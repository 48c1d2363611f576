"""Rewrite the expected files of the golden report corpus from the current tree.

Each directory next to this file is one case: ``argv.json`` holds the command
line (without ``--out``), and ``report.json``, ``stdout.txt`` and
``exit_code.txt`` hold what ``wittdiamond.cli.main`` wrote, printed and
returned for it.  An input file is stored in the case directory and named in
``argv.json`` through ``CASE_PATH``, as ``<case>/data.json``, so no absolute
path reaches a stored file.  The report goes to a temporary file, whose path
reads as ``REPORT_PATH`` in the stored stdout.  ``tests/test_golden.py`` runs every
case and compares bytes; this script is the only way an expected file
changes.  It prints the path of each file it changed.

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


def case_dirs() -> list[Path]:
    return sorted(p for p in CASES_DIR.iterdir() if (p / "argv.json").is_file())


def run_case(case: Path) -> dict[str, bytes]:
    """The expected files of one case, by file name, as this tree produces them."""
    from wittdiamond.cli import main

    argv = [arg.replace(CASE_PATH, str(case))
            for arg in json.loads((case / "argv.json").read_text())]
    with tempfile.TemporaryDirectory() as tmp:
        out_path = str(Path(tmp) / "report.json")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", out_path])
        report = Path(out_path).read_bytes()
    return {
        "report.json": report,
        "stdout.txt": stdout.getvalue().replace(out_path, REPORT_PATH).encode(),
        "exit_code.txt": f"{code}\n".encode(),
    }


def main() -> int:
    for case in case_dirs():
        for name, data in run_case(case).items():
            path = case / name
            if not path.is_file() or path.read_bytes() != data:
                path.write_bytes(data)
                print(path.relative_to(CASES_DIR.parent.parent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
