"""Require the tests to kill every mutant listed in ``mutants.json``.

Each entry names a file, a snippet that occurs in it exactly once, the
snippet's replacement, and the tests (pytest node ids under ``tests/``) that
must fail once the replacement is made.  Run from any directory:

    python3 mutation/run.py

The runner copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
to a temporary directory, so that pytest's ``pythonpath = ["src"]`` imports
the copy and the checkout is never edited.  It fails if a snippet does not
occur exactly once, or if the named tests do not all pass on the unmutated
copy.  Then it applies one mutant at a time, runs that mutant's tests, and
restores the file.  A mutant is killed when pytest reports failed tests (exit
code 1); an import error or an empty selection does not count.  The exit code
is 0 only if every mutant is killed.  Hypothesis runs with a fixed seed, so a
run is repeatable.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = pathlib.Path(__file__).resolve().parent / "mutants.json"


def _pytest(copy: pathlib.Path, tests: list[str]) -> subprocess.CompletedProcess:
    """pytest run on ``tests`` of the package under ``copy``, its output captured."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def main() -> int:
    mutants = json.loads(TABLE.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):  # test_cli.py reads README.md
            shutil.copy2(ROOT / name, copy)

        stale = [m["name"] for m in mutants
                 if (copy / m["file"]).read_text(encoding="utf-8").count(m["snippet"]) != 1]
        for name in stale:
            print(f"STALE: the snippet of {name!r} does not occur exactly once")
        if stale:
            return 1
        every_test = sorted({t for m in mutants for t in m["tests"]})
        run = _pytest(copy, every_test)
        if run.returncode != 0:
            print(run.stdout[-3000:] + run.stderr[-3000:])
            print(f"the unmutated copy fails its tests (pytest exit code {run.returncode})")
            return 1

        survivors = 0
        for m in mutants:
            path = copy / m["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m["snippet"], m["replacement"]), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = _pytest(copy, m["tests"]).returncode
            finally:
                path.write_text(original, encoding="utf-8")
            killed = code == 1
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED (pytest exit code %d)' % code}: "
                  f"{m['name']} ({time.perf_counter() - start:.1f} s)")
        print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
