"""Rewrite the expected files of the golden report corpus from the current tree.

Each directory next to this file is one case: ``argv.json`` holds the command
line (without ``--out``), and ``report.json``, ``stdout.txt``, ``stderr.txt``
and ``exit_code.txt`` hold what ``wittdiamond.cli.main`` wrote, printed and
returned for it; a case that exits before it writes a report (exit code 2) has
no ``report.json``.  An input file is stored in the case directory and named
in ``argv.json`` through ``CASE_PATH``, as ``<case>/spec.json``,
``<case>/data.json`` or ``<case>/left.json`` and ``<case>/right.json``, and
the case path reads as ``CASE_PATH`` in the stored stdout and stderr too, so
no absolute path reaches a stored file.  The report
goes to a temporary file, whose path reads as ``REPORT_PATH`` in the stored
stdout.  ``tests/test_golden.py`` runs every case and compares bytes; this
script is the only way an expected file changes.  It prints the path of each
file it changed.

Run from the repository root: ``PYTHONPATH=src python3 tests/golden/regen.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

CASES_DIR = Path(__file__).resolve().parent
REPORT_PATH = "<report>"
CASE_PATH = "<case>"
OUTPUTS = ("report.json", "stdout.txt", "stderr.txt", "exit_code.txt")


def case_dirs() -> list[Path]:
    return sorted(p for p in CASES_DIR.iterdir() if (p / "argv.json").is_file())


def run_case(case: Path) -> dict[str, bytes]:
    """The expected files of one case, by file name, as this tree produces them."""
    from wittdiamond.cli import main

    argv = [arg.replace(CASE_PATH, str(case))
            for arg in json.loads((case / "argv.json").read_text())]
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "report.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out_path)])
        out = {"report.json": out_path.read_bytes()} if out_path.is_file() else {}

    def text(stream: io.StringIO) -> bytes:
        return stream.getvalue().replace(str(out_path), REPORT_PATH).replace(
            str(case), CASE_PATH).encode()

    out.update({"stdout.txt": text(stdout), "stderr.txt": text(stderr),
                "exit_code.txt": f"{code}\n".encode()})
    return out


def main() -> int:
    for case in case_dirs():
        got = run_case(case)
        for name in OUTPUTS:
            path = case / name
            if name not in got:
                if path.is_file():
                    path.unlink()
                    print(path.relative_to(CASES_DIR.parent.parent))
            elif not path.is_file() or path.read_bytes() != got[name]:
                path.write_bytes(got[name])
                print(path.relative_to(CASES_DIR.parent.parent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
