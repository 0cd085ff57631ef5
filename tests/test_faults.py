"""The verdicts of ``faults/run.py``, the planted-fault runner, on edits made
by hand in a temporary directory; no entry of the catalog is run here."""

import sys
from pathlib import Path

import pytest

FAULTS_DIR = Path(__file__).resolve().parent.parent / "faults"


def _import_runner():
    # run.py imports its catalog as a top-level module and turns off bytecode
    # writing for its own process; the suite keeps its setting, and the
    # import leaves no __pycache__ in faults/
    bytecode, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(FAULTS_DIR))
    try:
        import run
    finally:
        sys.dont_write_bytecode, sys.path[:] = bytecode, path
    return run


runner = _import_runner()
Fault = sys.modules["catalog"].Fault

SOURCE = "x = 1\ny = 2\n"


def planted(tmp_path, old, tests=("t.py::T::test_a",)):
    (tmp_path / "m.py").write_text(SOURCE, encoding="utf-8")
    return Fault("planted", "m.py", old, "FAULT", tests)


def test_is_red_reads_cases_functions_classes_and_erroring_files():
    case = "tests/t.py::T::test_a"
    assert runner.is_red(case, [case])
    assert runner.is_red(case, [case + "[3]"])
    assert runner.is_red("tests/t.py::T", [case + "[3]"])
    assert runner.is_red(case, ["tests/t.py"])
    assert not runner.is_red(case, ["tests/t.py::T::test_ab", "tests/t.py::TT::test_a", "tests/t.py::T::test_b"])
    assert not runner.is_red("tests/t.py::T", ["tests/t.py::TT::test_a"])
    assert not runner.is_red(case, [])


@pytest.mark.parametrize("old, count", [("z = 3", 0), (" = ", 2)])
def test_stale_entry_runs_nothing_and_leaves_the_file(tmp_path, monkeypatch, old, count):
    monkeypatch.setattr(runner, "pytest", lambda copy, tests: pytest.fail("a stale entry ran pytest"))
    assert runner.check(tmp_path, planted(tmp_path, old)) == ("stale", f"its old text occurs {count} times in m.py")
    assert (tmp_path / "m.py").read_text(encoding="utf-8") == SOURCE


def test_verdict_is_read_on_the_edited_file_which_is_then_put_back(tmp_path, monkeypatch):
    seen = []

    def red_only(red):
        def fake(copy, tests):
            seen.append((copy / "m.py").read_text(encoding="utf-8"))
            return 1, red

        return fake

    fault = planted(tmp_path, "y = 2", ("t.py::T::test_a", "t.py::U"))
    monkeypatch.setattr(runner, "pytest", red_only(["t.py::T::test_a[1]", "t.py::U::test_b"]))
    assert runner.check(tmp_path, fault) == ("caught", "")
    monkeypatch.setattr(runner, "pytest", red_only(["t.py::T::test_a[1]"]))
    assert runner.check(tmp_path, fault) == ("missed", "still green: t.py::U")
    assert seen == ["x = 1\nFAULT\n"] * 2
    assert (tmp_path / "m.py").read_text(encoding="utf-8") == SOURCE

    def interrupted(copy, tests):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "pytest", interrupted)
    with pytest.raises(KeyboardInterrupt):
        runner.check(tmp_path, fault)
    assert (tmp_path / "m.py").read_text(encoding="utf-8") == SOURCE
