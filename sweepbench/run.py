"""Sweep benchmark for nomabeam: end-to-end throughput, per-module self time.

Run from the root of the repository:

    python3 sweepbench/run.py --workload rural-sweep --seed 1 --seconds 20 --trace 0

One process runs one workload.  It repeats whole rounds of the workload
through ``nomabeam.cli.main`` until ``--seconds`` have passed, checks every
CSV the program writes (see checks.py), and prints as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
An operation is one CSV row.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every round runs once untraced and once
traced, and the metrics are the per-module figures and the tracing overhead.
README.md in this directory describes the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small shared machine a second BLAS thread makes the
# figures depend on whether the other core happens to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# configs/rural_default.cfg, spelled out so that the checks know every value
# without reading it through the program's own parser.
DEFAULT_CONFIG = {
    "m_h": 32,
    "m_v": 2,
    "d_over_lambda": 0.5,
    "carrier_hz": 28e9,
    "bandwidth_hz": 20e6,
    "cell_radius_m": 100.0,
    "total_power_dbm": 30.0,
    "noise_power_dbm": -100.9178,
    "beta0": 0.5,
    "p_min": 1e-3,
    "epsilon": 0.05,
    "num_time_clusters": (1, 2),
    "paths_per_cluster": (1, 2),
    "nlos_gain_offset_db": (5.0, 15.0),
    "angle_spread_deg": 15.0,
    "shadowing_sigma_db": 4.0,
    "user_counts": (5, 15, 25, 35, 45, 55),
    "schemes": ("dbs", "noma_dbs_fcsi", "noma_dbs_pcsi", "oma_dbs", "cb"),
    "trials": 500,
    "master_seed": 1,
    "inter_cluster_rule": "proportional",
    "csi_mode": "full",
}


@dataclass(frozen=True)
class Workload:
    """``simulate`` rounds run the sweep once; ``pattern`` rounds cut ``beams`` beams."""

    command: str
    config: dict
    beams: int = 0


# Round sizes are set so that one untraced round takes one to three seconds
# on a 2-core machine: long enough to time, short enough for several rounds
# in a run, whose median is reported.
WORKLOADS = {
    "rural-sweep": Workload("simulate", {**DEFAULT_CONFIG, "trials": 10}),
    "sparse-cell": Workload("simulate", {**DEFAULT_CONFIG, "user_counts": (1, 2, 3, 4, 5), "trials": 50}),
    "massive-array": Workload(
        "simulate", {**DEFAULT_CONFIG, "m_h": 64, "m_v": 8, "user_counts": (128, 256, 448), "trials": 1}
    ),
    "pattern-cuts": Workload("pattern", DEFAULT_CONFIG, beams=12),
}

MIN_ROUNDS = 3
SETUP_SAMPLES = 5
# Round r sweeps with master_seed = seed + r * ROUND_SEED_STRIDE, so round 0
# uses the given seed and no two rounds of a run share a drop.
ROUND_SEED_STRIDE = 2**32

# Seconds reference_work() takes on the reference machine (2-core Xeon VM,
# Python 3.11, numpy 2.4) when no neighbour slows it.  Timings are scaled by
# the ratio of this to the adjacent reference_work() times, so that a host
# running slower or faster for a while does not read as a slower program.
REFERENCE_S = 0.1

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import nomabeam.cli; "
    "from nomabeam.sim_harness import load_scenario; load_scenario(sys.argv[2])"
)


@dataclass(frozen=True)
class _Point:
    theta: float
    phi: float


def reference_work() -> float:
    """Seconds taken by fixed work of the same mix as the program's: scalar
    draws, frozen dataclasses, small complex numpy arrays, float formatting.
    It does not touch nomabeam, so no change to the program moves it."""
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    i_h, i_v = np.arange(8), np.arange(4)
    total, lines = 0.0, []
    for _ in range(8000):
        p = _Point(rng.uniform(0.0, math.pi), rng.uniform(-1.0, 0.0))
        v = np.exp(1j * np.add.outer(math.cos(p.theta) * i_h, math.sin(p.phi) * i_v).ravel())
        total += abs(np.vdot(v, v[::-1])) + math.hypot(p.theta, p.phi)
        lines.append(format(total, ".9g"))
    return time.perf_counter() - start


def import_program():
    """Import nomabeam from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import nomabeam.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import nomabeam from {SRC}: {exc}") from exc
    origin = Path(nomabeam.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"nomabeam was imported from {origin}, not from {SRC}")
    return nomabeam.cli


def call_cli(cli, argv: list) -> None:
    """Run one nomabeam command in this process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([str(a) for a in argv])
    if status != 0:
        raise RuntimeError(f"nomabeam {' '.join(map(str, argv))} exited with {status}")


def write_config(path: Path, config: dict) -> None:
    def fmt(value) -> str:
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

    path.write_text("".join(f"{key} = {fmt(value)}\n" for key, value in config.items()), encoding="utf-8")


def beams_for(seed: int, round_index: int, count: int) -> list[tuple[float, float]]:
    """Beam directions of one pattern round: azimuth in the array's forward
    field of view, elevation toward the ground, as for real users."""
    rng = random.Random(f"{seed}/{round_index}")
    return [(rng.uniform(0.3, 2.84), rng.uniform(-1.2, 0.0)) for _ in range(count)]


class Runner:
    """Runs and checks the rounds of one workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.cli = import_program()
        OUT.mkdir(exist_ok=True)
        self.cfg_path = OUT / f"{name}.cfg"
        write_config(self.cfg_path, self.workload.config)
        self.verdict = checks.Verdict()
        self.trend = checks.Trend()

    def round_outputs(self, round_index: int, tag: str) -> list[tuple[Path, tuple]]:
        """Run one round; return each CSV written with the beam it cuts, if any."""
        base = OUT / f"{self.name}-{tag}"
        if self.workload.command == "simulate":
            out = base.with_suffix(".csv")
            seed = self.seed + round_index * ROUND_SEED_STRIDE
            call_cli(self.cli, ["simulate", "--config", self.cfg_path, "--seed", seed, "--out", out])
            return [(out, ())]
        outputs = []
        for b, beam in enumerate(beams_for(self.seed, round_index, self.workload.beams)):
            out = Path(f"{base}-{b}.csv")
            call_cli(self.cli, ["pattern", "--config", self.cfg_path, "--beam", f"{beam[0]!r},{beam[1]!r}", "--out", out])
            outputs.append((out, beam))
        return outputs

    def expected_rows(self) -> int:
        """Rows a round should write; one per beam for a pattern round, whose
        row count depends on the beams."""
        c = self.workload.config
        if self.workload.command == "simulate":
            return len(c["schemes"]) * len(c["user_counts"]) * c["trials"]
        return self.workload.beams

    def timed_round(self, round_index: int, tag: str) -> tuple[float, int, list[str]]:
        """(seconds, rows, CSV texts) of one checked round; a round that raises
        counts every row it should have written as failed."""
        start = time.perf_counter()
        try:
            outputs = self.round_outputs(round_index, tag)
        except Exception as exc:  # the program failed: record it and go on
            seconds = time.perf_counter() - start
            failed = checks.Verdict(rows=self.expected_rows())
            failed.fail("exception", f"round {round_index}: {exc!r}", range(failed.rows))
            self.verdict.merge(failed)
            return seconds, 0, []
        seconds = time.perf_counter() - start
        texts = [path.read_text(encoding="utf-8") for path, _ in outputs]
        for text, (_, beam) in zip(texts, outputs):
            if self.workload.command == "simulate":
                verdict, rows = checks.check_sweep(text, self.workload.config)
                self.trend.add(rows)
            else:
                verdict = checks.check_pattern(text, self.workload.config, beam)
            self.verdict.merge(verdict)
        return seconds, sum(text.count("\n") - 1 for text in texts), texts

    def check_anchor(self) -> None:
        if self.workload.command != "simulate":
            return
        config = {**self.workload.config, **checks.ANCHOR_OVERRIDES}
        cfg_path = OUT / f"{self.name}-anchor.cfg"
        out = OUT / f"{self.name}-anchor.csv"
        write_config(cfg_path, config)
        try:
            call_cli(self.cli, ["simulate", "--config", cfg_path, "--out", out])
        except Exception as exc:  # the program failed: record it and go on
            rows = len(config["schemes"]) * config["trials"]
            failed = checks.Verdict(rows=rows)
            failed.fail("exception", f"anchor: {exc!r}", range(rows))
            self.verdict.merge(failed)
            return
        verdict, rows = checks.check_sweep(out.read_text(encoding="utf-8"), config)
        checks.check_anchor(rows, config, verdict)
        self.verdict.merge(verdict)

    def finish(self) -> tuple[bool, int, int]:
        self.check_anchor()
        if self.workload.command == "simulate":
            self.trend.check(self.verdict)
        for check, message in self.verdict.problems:
            print(f"check failed: {check}: {message}", file=sys.stderr)
        failed = len(self.verdict.failed_rows)
        return not self.verdict.problems, self.verdict.rows, failed


def measure_setup(cfg_path: Path) -> float:
    """Median wall time of a fresh interpreter importing nomabeam and loading
    the config, each sample scaled to the reference speed of the host."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        speed = REFERENCE_S / reference_work()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path)], check=True)
        samples.append((time.perf_counter() - start) * speed)
    return statistics.median(samples)


def run_untraced(runner: Runner, seconds: float) -> dict:
    setup_s = measure_setup(runner.cfg_path)
    rates, wall_rates, first = [], [], None
    deadline = time.perf_counter() + seconds
    before = reference_work()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        elapsed, rows, texts = runner.timed_round(r, "round")
        after = reference_work()
        if rows:
            # host speed over the round, from the reference work on either side
            speed = REFERENCE_S / ((before + after) / 2.0)
            wall_rates.append(rows / elapsed)
            rates.append(rows / elapsed / speed)
        before = after
        if r == 0:
            first = texts
        r += 1
    if wall_rates:
        print(f"rows per wall second: median {statistics.median(wall_rates):.6g} over {len(wall_rates)} rounds",
              file=sys.stderr)
    _, _, again = runner.timed_round(0, "rerun")
    if first and again:
        checks.check_same_digest(first, again, runner.verdict)
    return {
        "setup_s": (setup_s, "s"),
        "rows_per_s": (statistics.median(rates) if rates else 0.0, "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    tracer = tracing.Tracer()
    plain, traced = [], []
    counts = None
    deadline = time.perf_counter() + seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        # alternate which pass goes first, so neither always runs on a warmer machine
        texts = {}
        for traced_pass in ((False, True) if r % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.pass_id = r
                tracer.install()
                try:
                    elapsed, _, texts[True] = runner.timed_round(r, "traced")
                finally:
                    tracer.uninstall()
                traced.append(elapsed)
            else:
                elapsed, _, texts[False] = runner.timed_round(r, "round")
                plain.append(elapsed)
        if texts[True] and texts[False]:
            checks.check_same_digest(texts[False], texts[True], runner.verdict)
        if counts is None:
            counts = layer_counts(tracer)
        tracer.reset_counts()
        r += 1
    self_times = tracer.self_seconds()
    tracer.write_spans(OUT / f"{runner.name}-spans.csv")
    metrics = {}
    for layer in tracing.LAYERS:
        per_pass = [self_times.get(p, {}).get(layer, 0.0) for p in range(r)]
        metrics[f"{layer}.self_s"] = (statistics.median(per_pass), "s")
    metrics.update(counts)
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return metrics


def layer_counts(tracer: tracing.Tracer) -> dict:
    """Work counts of the first traced round, which depend only on the seed."""
    calls = tracer.calls

    def ratio(useful: int, attempts: int) -> float:
        return useful / attempts if attempts else 0.0

    users = calls["channel.generate_user_channel"]
    pairings = calls["clustering.beta_uc"]
    return {
        "channel.users_drawn": (users, "count"),
        "channel.paths_drawn": (tracer.paths_drawn, "count"),
        "channel.useful_draw_ratio": (ratio(len(tracer.distinct_users), users), "ratio"),
        "array_geometry.steering_vectors": (calls["array_geometry.steering_vector"], "count"),
        "array_geometry.pattern_points": (calls["array_geometry.array_factor"], "count"),
        "clustering.pairings": (pairings, "count"),
        "clustering.useful_pairing_ratio": (ratio(len(tracer.distinct_drops), pairings), "ratio"),
        "link_metrics.link_states": (calls["link_metrics.compute_link_state"], "count"),
        "sim_harness.trials": (calls["sim_harness.run_trial"], "count"),
        "beamforming.plans": (calls["beamforming.build_plan"], "count"),
        "power_allocation.splits": (calls["power_allocation.opa"], "count"),
        "baselines.calls": (sum(n for key, n in calls.items() if key.startswith("baselines.")), "count"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    runner = Runner(args.workload, args.seed)
    measured = run_traced(runner, args.seconds) if args.trace else run_untraced(runner, args.seconds)
    correct, attempted, failed = runner.finish()
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
