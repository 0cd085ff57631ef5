"""Check that the pinned bytes hold on every BLAS kernel and under numpy's SIMD dispatch cap.

Run from the root of the repository:

    python3 tools/portability.py

For each setting (the machine's defaults, each OpenBLAS core type below, and
numpy's dispatch capped at X86_V2) it runs, in child processes,
``tests/test_golden.py`` and ``tests/test_cli.py`` (the seven golden sweeps,
both table pins and both pattern pins) and the 500-trial default sweep,
whose CSV must hash to ``DEFAULT_SWEEP_SHA256``.  It prints one line per
setting, with the core that OpenBLAS reports, and exits 1 if any setting
fails.  A core type that the CPU cannot run fails its setting.  It takes
about 10 s per setting on 2 cores and is not part of the test suite.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SWEEP_SHA256 = "8f3259294f8781c427a0741db4ed36ee42059a764caadbceed1c376143d60bcc"
CORE_TYPES = ["Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX", "Zen"]
SETTINGS = [("default", {})]
SETTINGS += [(f"OPENBLAS_CORETYPE={core}", {"OPENBLAS_CORETYPE": core}) for core in CORE_TYPES]
SETTINGS += [("numpy dispatch capped", {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"})]

# Prints the core that numpy's bundled OpenBLAS runs, or "?" where the build
# does not export the call.
CORE_PROBE = """
import ctypes, pathlib, numpy
libs = sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
try:
    get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    get.restype = ctypes.c_char_p
    print(get().decode())
except (IndexError, OSError, AttributeError):
    print("?")
"""


def run(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def check(extra: dict[str, str]) -> tuple[str, list[str]]:
    """The core OpenBLAS reports under ``extra``, and what failed there."""
    env = {**os.environ, **extra, "PYTHONPATH": str(ROOT / "src")}
    failures = []
    tests = run(["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py", "tests/test_cli.py"], env)
    if tests.returncode != 0:
        failures.append("tests: " + (tests.stdout.strip().splitlines() or ["no output"])[-1])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        sweep = run(["-m", "nomabeam", "simulate", "--config", "configs/rural_default.cfg", "--out", str(out)], env)
        if sweep.returncode != 0:
            failures.append(f"sweep exited with status {sweep.returncode}")
        elif (digest := hashlib.sha256(out.read_bytes()).hexdigest()) != DEFAULT_SWEEP_SHA256:
            failures.append(f"500-trial sweep hashed to {digest[:16]}…")
    return run(["-c", CORE_PROBE], env).stdout.strip() or "?", failures


def main() -> int:
    failed = 0
    for name, extra in SETTINGS:
        core, failures = check(extra)
        failed += bool(failures)
        print(f"{'FAIL' if failures else 'pass'}  {name} (core {core})" + "".join(f"\n      {f}" for f in failures))
    print(f"{len(SETTINGS) - failed} of {len(SETTINGS)} settings pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
