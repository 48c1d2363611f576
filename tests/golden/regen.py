"""Rewrite the expected files of the golden report corpus from the current tree.

Each directory next to this file is one case: ``argv.json`` holds the command
line (without ``--out``), and ``report.json``, ``stdout.txt``, ``stderr.txt``
and ``exit_code.txt`` hold what the command wrote, printed and returned; a case
that exits before it writes a report has no ``report.json``.  An input file is
stored in the case directory and named in ``argv.json`` as ``<case>/spec.json``
(or ``data.json``, ``left.json``, ``right.json``).  The case path reads as
``<case>`` and the report path as ``<report>`` in the stored stdout and stderr,
so no absolute path reaches a stored file.

Two producers give the same files for a case: ``run_case`` calls
``wittdiamond.cli.main`` in this process, and records the code of argparse's
``SystemExit`` as the exit code; ``run_case_fresh`` runs ``python -m
wittdiamond.cli`` in a new interpreter, under ``-O`` when this one runs under
it.  Both fix the terminal width that argparse wraps its usage lines to.
``tests/test_golden.py`` compares the output of both with the stored bytes;
this script writes what ``run_case`` gives, and is the only way an expected
file changes.  It prints the path of each file it changed.

Run from the repository root: ``PYTHONPATH=src python3 tests/golden/regen.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

CASES_DIR = Path(__file__).resolve().parent
REPORT_PATH = "<report>"
CASE_PATH = "<case>"
OUTPUTS = ("report.json", "stdout.txt", "stderr.txt", "exit_code.txt")
# argparse wraps usage lines to the terminal width, which COLUMNS sets.
COLUMNS = {"COLUMNS": "80"}


def case_dirs() -> list[Path]:
    return sorted(p for p in CASES_DIR.iterdir() if (p / "argv.json").is_file())


def case_argv(case: Path, out_path: Path) -> list[str]:
    """The command line of a case, with its input paths and ``--out out_path``."""
    argv = [arg.replace(CASE_PATH, str(case))
            for arg in json.loads((case / "argv.json").read_text())]
    return [*argv, "--out", str(out_path)]


def _outputs(case: Path, out_path: Path, code, stdout: str, stderr: str) -> dict[str, bytes]:
    out = {"report.json": out_path.read_bytes()} if out_path.is_file() else {}

    def text(stream: str) -> bytes:
        return stream.replace(str(out_path), REPORT_PATH).replace(str(case), CASE_PATH).encode()

    out.update({"stdout.txt": text(stdout), "stderr.txt": text(stderr),
                "exit_code.txt": f"{code}\n".encode()})
    return out


def run_case(case: Path) -> dict[str, bytes]:
    """The expected files of one case, by file name, from ``cli.main`` in this process."""
    from wittdiamond.cli import main

    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS):
        out_path = Path(tmp) / "report.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(case_argv(case, out_path))
            except SystemExit as exc:
                code = exc.code
        return _outputs(case, out_path, code, stdout.getvalue(), stderr.getvalue())


def run_case_fresh(case: Path, src: Path | None = None) -> dict[str, bytes]:
    """The expected files of one case, from ``python -m wittdiamond.cli`` in a new
    interpreter that imports the package from ``src`` (default: the directory
    that holds the imported ``wittdiamond``)."""
    if src is None:
        import wittdiamond

        src = Path(wittdiamond.__file__).resolve().parent.parent
    env = {**os.environ, **COLUMNS, "PYTHONPATH": str(src), "PYTHONUTF8": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "report.json"
        proc = subprocess.run(
            [sys.executable, *["-O"] * sys.flags.optimize, "-m", "wittdiamond.cli",
             *case_argv(case, out_path)],
            env=env, capture_output=True, timeout=60)
        return _outputs(case, out_path, proc.returncode,
                        proc.stdout.decode(), proc.stderr.decode())


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
