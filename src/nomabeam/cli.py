"""Command line entry point: Monte Carlo sweeps and pattern cuts.

    nomabeam simulate --config rural.cfg [--trials N] [--seed S] --out results.csv
    nomabeam pattern  --config rural.cfg --beam 1.5708,0.0 --out pattern.csv

``simulate`` runs the configured sweep and writes one CSV row per
(scheme, K, trial); ``pattern`` writes normalized array-pattern cuts of a
beam steered at the given (theta, phi) in radians, for plotting.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import compress, repeat

import numpy as np

from .array_geometry import pattern
from .sim_harness import ConfigError, format_aggregates, load_scenario, run_sweep, write_csv

PATTERN_STEP_RAD = 1e-3


def _parse_beam(raw: str) -> tuple[float, float]:
    """The (theta, phi) of a '--beam theta,phi' argument, both finite."""
    usage = f"--beam expects 'theta,phi' in radians, got {raw!r}"
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(usage)
    try:
        theta, phi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{usage}: {exc}") from exc
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ConfigError(f"{usage}: direction angles must be finite, got ({theta}, {phi})")
    return theta, phi


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_scenario(args.config, trials=args.trials, master_seed=args.seed)
    columns = run_sweep(config)
    write_csv(columns, args.out)
    print(format_aggregates(columns))
    print(f"wrote {sum(len(cols.sum_rate_bps) for cols in columns.values())} rows to {args.out}")
    return 0


def _cmd_pattern(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    beam_theta, beam_phi = _parse_beam(args.beam)
    offsets = np.arange(-math.pi / 2, math.pi / 2 + PATTERN_STEP_RAD, PATTERN_STEP_RAD)
    held = np.full_like(offsets, beam_theta), np.full_like(offsets, beam_phi)
    az_theta, el_phi = beam_theta + offsets, beam_phi + offsets
    az = pattern(config, beam_theta, beam_phi, az_theta, held[1])
    el = pattern(config, beam_theta, beam_phi, held[0], el_phi)
    keep = (-math.pi / 2 <= el_phi) & (el_phi <= math.pi / 2)  # elevation probes stay physical
    # Each distinct value is formatted once: the offsets serve both cuts, and
    # each cut's held angle sits in its row template.
    offset_text = list(map(format, offsets.tolist(), repeat(".9g")))
    az_row = f"az,%s,%.9g,{beam_phi:.9g},%.9g"
    el_row = f"el,%s,{beam_theta:.9g},%.9g,%.9g"
    lines = ["axis,offset_rad,theta_rad,phi_rad,array_factor"]
    lines.extend(map(az_row.__mod__, zip(offset_text, az_theta.tolist(), az.tolist())))
    el_offsets = compress(offset_text, keep.tolist())
    lines.extend(map(el_row.__mod__, zip(el_offsets, el_phi[keep].tolist(), el[keep].tolist())))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote pattern cuts to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomabeam",
        description="Link-level simulator for a beam-steered mmWave downlink with 2-user power-domain sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the configured Monte Carlo sweep")
    sim.add_argument("--config", required=True, help="scenario file (flat key = value text)")
    sim.add_argument("--trials", type=int, default=None, help="override the configured trial count")
    sim.add_argument("--seed", type=int, default=None, help="override the configured master seed")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=_cmd_simulate)

    pat = sub.add_parser("pattern", help="emit array-pattern cuts for a steered beam")
    pat.add_argument("--config", required=True, help="scenario file (flat key = value text)")
    pat.add_argument(
        "--beam",
        required=True,
        help="beam direction 'theta,phi' in radians; write --beam=THETA,PHI when THETA starts with '-'",
    )
    pat.add_argument("--out", required=True, help="output CSV path")
    pat.set_defaults(func=_cmd_pattern)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
