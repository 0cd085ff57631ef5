"""Re-run the planted faults of ``faults/catalog.py`` against a copy of the tree.

Run from anywhere:

    python3 faults/run.py

It copies ``src/``, ``tests/``, ``configs/`` and ``pyproject.toml`` into a
temporary directory and first runs, on that clean copy, every test that the
entries name; they must pass.
Then it applies one entry's text edit at a time, runs only that entry's
tests with ``pytest -q`` (hypothesis draws the suite's examples but does not
shrink a failing one), and puts the file back.  It prints one line per
entry:

- ``caught``: each of the entry's tests has a failing case;
- ``missed``: some test of the entry passes with the fault in place;
- ``stale``: the entry's old text does not occur exactly once in its file.

It exits 1 if the clean copy fails or any entry is missed or stale.  It
writes nothing in the working tree and is not part of the test suite: it
runs one pytest per entry, about 80 s for the catalog on 2 cores.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # importing the catalog leaves no __pycache__ in the tree

from catalog import FAULTS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
COPIED = ["src", "tests", "configs", "pyproject.toml"]

# A pytest plugin, written beside the copy: the suite's hypothesis profile
# without shrinking, so a fault's first failing example is reported as found
# (shrinking it took a failing property up to 40 s).
NO_SHRINK_PLUGIN = """
from hypothesis import Phase, settings


def pytest_sessionstart(session):
    settings.register_profile("faults", settings(phases=[Phase.explicit, Phase.reuse, Phase.generate]))
    settings.load_profile("faults")
"""


def pytest(copy: Path, tests: list[str]) -> tuple[int, list[str]]:
    """pytest's exit status on ``tests`` in ``copy``, and the ids of its failed and erroring cases."""
    env = {**os.environ, "PYTHONPATH": f"{copy / 'src'}{os.pathsep}{copy}", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no_shrink", "-rfE", *tests]
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    red = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return done.returncode, red


def is_red(test: str, red: list[str]) -> bool:
    """Whether a failed or erroring case falls under ``test``, or ``test`` under an erroring file."""
    return any(r == test or r.startswith((test + "[", test + "::")) or test.startswith(r + "::") for r in red)


def check(copy: Path, fault) -> tuple[str, str]:
    """The entry's verdict, caught, missed or stale, and what made it so."""
    path = copy / fault.file
    text = path.read_text(encoding="utf-8")
    if (count := text.count(fault.old)) != 1:
        return "stale", f"its old text occurs {count} times in {fault.file}"
    path.write_text(text.replace(fault.old, fault.new), encoding="utf-8")
    try:
        _, red = pytest(copy, list(fault.tests))
    finally:
        path.write_text(text, encoding="utf-8")
    green = [test for test in fault.tests if not is_red(test, red)]
    return ("missed", "still green: " + ", ".join(green)) if green else ("caught", "")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(source, copy / name)
        (copy / "no_shrink.py").write_text(NO_SHRINK_PLUGIN, encoding="utf-8")
        tests = sorted({test for fault in FAULTS for test in fault.tests})
        status, red = pytest(copy, tests)
        if status != 0:
            print(f"the clean copy fails (pytest status {status}): {', '.join(red) or 'run its tests to see why'}")
            return 1
        print(f"clean copy: {len(tests)} tests pass")
        bad = 0
        for fault in FAULTS:
            start = time.perf_counter()
            verdict, detail = check(copy, fault)
            bad += verdict != "caught"
            elapsed = time.perf_counter() - start
            print(f"{verdict:<7} {fault.name} ({elapsed:.1f} s)" + (detail and f"\n        {detail}"))
    print(f"{len(FAULTS) - bad} of {len(FAULTS)} caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
