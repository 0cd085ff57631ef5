"""Self-test of the benchmark's checks.

Runs nomabeam on small inputs, shows that its output passes every check,
then plants one known fault at a time and shows that the check meant to
catch it fails.  Run from the root of the repository:

    python3 sweepbench/selftest.py

Exits 0 when the clean output passes and every planted fault is caught.
"""

from __future__ import annotations

import sys

import checks
import run

SWEEP_CONFIG = {**run.DEFAULT_CONFIG, "user_counts": (1, 2, 5), "trials": 60}
SWEEP_SEED = 3
ANCHOR_CONFIG = {**run.DEFAULT_CONFIG, **checks.ANCHOR_OVERRIDES}
PATTERN_BEAM = (1.2, -0.4)

# Fields of a sweep row.
SCHEME, K, TRIAL, RATE, SE, EE, CLUSTERS, DEACTIVATED = range(8)


def rows_of(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def find(text: str, pick) -> int:
    """Index of the first data row whose fields satisfy ``pick``."""
    for index, fields in enumerate(rows_of(text)):
        if pick(fields):
            return index
    raise LookupError("no row to plant the fault in")


def edit(text: str, indices, change) -> str:
    """``text`` with ``change`` applied to the fields of the given data rows."""
    lines = text.splitlines()
    for index in [indices] if isinstance(indices, int) else indices:
        lines[index + 1] = ",".join(change(lines[index + 1].split(",")))
    return "\n".join(lines) + "\n"


def setf(position: int, value):
    def change(fields):
        fields[position] = str(value)
        return fields

    return change


def scale_rate(factor: float):
    """Scale a row's rate with its spectral and energy efficiency, so that
    only the check on the rate itself can see the fault."""

    def change(fields):
        for position in (RATE, SE, EE):
            fields[position] = format(float(fields[position]) * factor, ".9g")
        return fields

    return change


def scale(position: int, factor: float):
    def change(fields):
        fields[position] = format(float(fields[position]) * factor, ".9g")
        return fields

    return change


def sweep_checks(text: str) -> set[str]:
    verdict, rows = checks.check_sweep(text, SWEEP_CONFIG)
    trend = checks.Trend()
    trend.add(rows)
    trend.check(verdict)
    return verdict.checks_failed


def anchor_checks(text: str) -> set[str]:
    verdict, rows = checks.check_sweep(text, ANCHOR_CONFIG)
    checks.check_anchor(rows, ANCHOR_CONFIG, verdict)
    return verdict.checks_failed


def pattern_checks(text: str) -> set[str]:
    return checks.check_pattern(text, run.DEFAULT_CONFIG, PATTERN_BEAM).checks_failed


def digest_checks(pair: tuple[str, str]) -> set[str]:
    verdict = checks.Verdict()
    checks.check_same_digest([pair[0]], [pair[1]], verdict)
    return verdict.checks_failed


def sweep_faults(text: str) -> list[tuple[str, str]]:
    def row(scheme, k=None, paired=None):
        def pick(f):
            return (
                f[SCHEME] == scheme
                and (k is None or int(f[K]) == k)
                and (paired is None or (int(f[CLUSTERS]) > 0) == paired)
            )

        return find(text, pick)

    paired_oma = row("oma_dbs", paired=True)
    dbs_k5 = [i for i, f in enumerate(rows_of(text)) if f[SCHEME] == "dbs" and f[K] == "5"]
    lines = text.splitlines()
    return [
        ("header", text.replace("scheme,K,", "scheme,k,", 1)),
        ("parse", edit(text, 0, setf(CLUSTERS, "x"))),
        ("finite", edit(text, 0, setf(RATE, "nan"))),
        ("positive_rate", edit(text, 0, scale_rate(0.0))),
        ("spectral_eff", edit(text, 0, scale(SE, 1.01))),
        ("energy_eff", edit(text, 0, scale(EE, 1.01))),
        ("baseline_zero", edit(text, row("dbs", k=5), setf(CLUSTERS, 1))),
        ("cluster_range", edit(text, row("noma_dbs_fcsi", k=1), setf(CLUSTERS, 1))),
        ("deactivated", edit(text, paired_oma, lambda f: setf(DEACTIVATED, int(f[CLUSTERS]) + 1)(f))),
        ("clusters_equal", edit(text, paired_oma, lambda f: setf(CLUSTERS, int(f[CLUSTERS]) - 1)(f))),
        ("unpaired_equal", edit(text, row("noma_dbs_fcsi", k=5, paired=False), scale_rate(1.01))),
        ("cb_ge_dbs", edit(text, row("cb", k=1), scale_rate(0.5))),
        ("unique", "\n".join(lines + lines[1:2]) + "\n"),
        ("complete", "\n".join(lines[:-1]) + "\n"),
        ("trend", edit(text, dbs_k5, scale_rate(1.5))),
    ]


def pattern_faults(text: str) -> list[tuple[str, str]]:
    rows = rows_of(text)
    az = [i for i, f in enumerate(rows) if f[0] == "az"]
    peak = min(az, key=lambda i: abs(float(rows[i][1])))
    sampled = checks.PHASOR_EVERY
    value = float(rows[sampled][4])
    lines = text.splitlines()
    return [
        ("pattern_range", edit(text, 5, setf(4, 1.0001))),
        ("pattern_peak", edit(text, peak, scale(4, 0.99))),
        ("pattern_phasor", edit(text, sampled, setf(4, value + (0.01 if value < 0.5 else -0.01)))),
        ("pattern_probe", edit(text, 7, lambda f: setf(2, float(f[2]) + 0.01)(f))),
        ("pattern_cut", "\n".join(lines[:1] + lines[1 + az[-1] - 100:]) + "\n"),
    ]


def main() -> int:
    cli = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    outputs = {}
    for name, config, argv in (
        ("sweep", SWEEP_CONFIG, ["simulate", "--seed", SWEEP_SEED]),
        ("anchor", ANCHOR_CONFIG, ["simulate"]),
        ("pattern", run.DEFAULT_CONFIG, ["pattern", "--beam", f"{PATTERN_BEAM[0]},{PATTERN_BEAM[1]}"]),
    ):
        cfg = run.OUT / f"selftest-{name}.cfg"
        out = run.OUT / f"selftest-{name}.csv"
        run.write_config(cfg, config)
        run.call_cli(cli, argv + ["--config", cfg, "--out", out])
        outputs[name] = out.read_text(encoding="utf-8")

    sweep, anchor, pattern = outputs["sweep"], outputs["anchor"], outputs["pattern"]
    anchor_fault = edit(anchor, 2, scale_rate(1.01))
    digest_fault = sweep.replace("1", "2", 1)
    cases = (
        [("clean sweep", sweep_checks, sweep, None)]
        + [(f"sweep {c}", sweep_checks, t, c) for c, t in sweep_faults(sweep)]
        + [("clean anchor", anchor_checks, anchor, None), ("anchor fault", anchor_checks, anchor_fault, "anchor")]
        + [("clean pattern", pattern_checks, pattern, None)]
        + [(f"pattern {c}", pattern_checks, t, c) for c, t in pattern_faults(pattern)]
        + [("same bytes", digest_checks, (sweep, sweep), None), ("other bytes", digest_checks, (sweep, digest_fault), "digest")]
    )
    missed = 0
    for label, check, data, expected in cases:
        failed = check(data)
        ok = not failed if expected is None else expected in failed
        missed += not ok
        shown = "passes" if not failed else "fails " + ", ".join(sorted(failed))
        print(f"{'ok  ' if ok else 'BAD '} {label:<24} {shown}")
    print(f"{len(cases) - missed} of {len(cases)} cases behave as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
