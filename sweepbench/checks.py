"""Correctness checks on the CSVs nomabeam writes, computed apart from it.

Each check compares the output against a recomputation made here from the
scenario values, or against a property the method must have.  None compares
against stored output, so a change that rightly moves the numbers (a new
random stream, a fixed power split) still passes.  Every failed check is
recorded under its name, so the self-test can show that a planted fault
trips the check meant to catch it.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SWEEP_HEADER = "scheme,K,trial,sum_rate_bps,spectral_eff,energy_eff,noma_clusters,deactivated_users"
PATTERN_HEADER = "axis,offset_rad,theta_rad,phi_rad,array_factor"

PAIRING_SCHEMES = ("noma_dbs_fcsi", "noma_dbs_pcsi", "oma_dbs")
STEERED_SCHEMES = ("dbs",) + PAIRING_SCHEMES
UNPAIRED_SCHEMES = ("dbs", "cb")

# Consumption model of the energy-efficiency metric: amplifier inefficiency,
# watts per antenna element, base-station floor.
PA_INEFFICIENCY = 10.0
WATTS_PER_ANTENNA = 1.0
BASE_STATION_WATTS = 0.2

SPEED_OF_LIGHT = 299_792_458.0
ANTENNA_HEIGHT_M = 10.0

# The CSV carries 9 significant digits, so a value recomputed from other
# printed values agrees to about 1e-8; a 1% fault is far outside this.
REL_TOL = 1e-7
# Rates that must be equal come from the same arithmetic on the same drop.
SAME_RATE_TOL = 1e-9
# Mean partial-CSI rate may deviate from the full-CSI one by this share.
PCSI_TOLERANCE = 0.05

# One user, one path, no shadowing or spread, in a 1 mm cell: the user sits
# under the mast at the antenna height, so every scheme has the rate
# B log2(1 + P_e M (lambda / (4 pi h))^2 / sigma^2).
ANCHOR_OVERRIDES = {
    "user_counts": (1,),
    "num_time_clusters": (1, 1),
    "paths_per_cluster": (1, 1),
    "shadowing_sigma_db": 0.0,
    "angle_spread_deg": 0.0,
    "cell_radius_m": 1e-3,
    "trials": 3,
}
ANCHOR_TOL = 1e-6


class SweepRow(NamedTuple):
    index: int
    scheme: str
    K: int
    trial: int
    rate: float
    spectral_eff: float
    energy_eff: float
    clusters: int
    deactivated: int


class PatternRow(NamedTuple):
    index: int
    axis: str
    offset: float
    theta: float
    phi: float
    value: float


@dataclass
class Verdict:
    """Rows looked at, rows that failed a check, and every failed check."""

    rows: int = 0
    failed_rows: set[int] = field(default_factory=set)
    problems: list[tuple[str, str]] = field(default_factory=list)

    def fail(self, check: str, message: str, rows=()) -> None:
        self.problems.append((check, message))
        self.failed_rows.update(rows)

    @property
    def checks_failed(self) -> set[str]:
        return {check for check, _ in self.problems}

    def merge(self, other: "Verdict") -> None:
        """Take over ``other``'s findings, numbering its rows after these."""
        self.failed_rows.update(self.rows + i for i in other.failed_rows)
        self.rows += other.rows
        self.problems.extend(other.problems)


def digest(texts: list[str]) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
    return sha.hexdigest()


def check_same_digest(first: list[str], second: list[str], verdict: Verdict) -> None:
    """Two runs of the same inputs must write the same bytes."""
    a, b = digest(first), digest(second)
    if a != b:
        verdict.fail("digest", f"rerun wrote different bytes: {a[:12]} vs {b[:12]}")


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _data_lines(text: str, header: str, verdict: Verdict) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        verdict.fail("header", f"expected header {header!r}, got {lines[:1]!r}")
        return []
    verdict.rows = len(lines) - 1
    return lines[1:]


# ---------------------------------------------------------------------------
# Sweep CSVs


def parse_sweep(text: str, verdict: Verdict) -> list[SweepRow]:
    rows = []
    for index, line in enumerate(_data_lines(text, SWEEP_HEADER, verdict)):
        p = line.split(",")
        try:
            if len(p) != 8:
                raise ValueError(f"{len(p)} fields")
            rows.append(
                SweepRow(index, p[0], int(p[1]), int(p[2]), float(p[3]), float(p[4]),
                         float(p[5]), int(p[6]), int(p[7]))
            )
        except ValueError as exc:
            verdict.fail("parse", f"row {index} {line!r}: {exc}", [index])
    return rows


def check_sweep(text: str, config: dict) -> tuple[Verdict, list[SweepRow]]:
    """Row, drop and completeness checks on one sweep CSV."""
    verdict = Verdict()
    rows = parse_sweep(text, verdict)
    bandwidth = config["bandwidth_hz"]
    consumed = (
        PA_INEFFICIENCY * dbm_to_w(config["total_power_dbm"])
        + config["m_h"] * config["m_v"] * WATTS_PER_ANTENNA
        + BASE_STATION_WATTS
    )
    for r in rows:
        where = f"{r.scheme} K={r.K} trial={r.trial}"
        if not all(math.isfinite(x) for x in (r.rate, r.spectral_eff, r.energy_eff)):
            verdict.fail("finite", f"{where}: non-finite value", [r.index])
            continue
        if not r.rate > 0:
            verdict.fail("positive_rate", f"{where}: sum rate {r.rate}", [r.index])
        if not _close(r.spectral_eff, r.rate / bandwidth, REL_TOL):
            verdict.fail("spectral_eff", f"{where}: {r.spectral_eff} != {r.rate / bandwidth}", [r.index])
        if not _close(r.energy_eff, r.rate / consumed, REL_TOL):
            verdict.fail("energy_eff", f"{where}: {r.energy_eff} != {r.rate / consumed}", [r.index])
        if r.scheme in UNPAIRED_SCHEMES:
            if r.clusters != 0 or r.deactivated != 0:
                verdict.fail("baseline_zero", f"{where}: {r.clusters} clusters, {r.deactivated} deactivated", [r.index])
        elif r.scheme in PAIRING_SCHEMES:
            if not 0 <= r.clusters <= r.K // 2:
                verdict.fail("cluster_range", f"{where}: {r.clusters} clusters", [r.index])
        else:
            verdict.fail("scheme", f"{where}: unknown scheme", [r.index])
        if not 0 <= r.deactivated <= r.clusters:
            verdict.fail("deactivated", f"{where}: {r.deactivated} deactivated of {r.clusters}", [r.index])

    by_key: dict[tuple, list[SweepRow]] = defaultdict(list)
    for r in rows:
        by_key[(r.scheme, r.K, r.trial)].append(r)
    for key, same in by_key.items():
        if len(same) > 1:
            verdict.fail("unique", f"{key} appears {len(same)} times", [r.index for r in same])
    expected = {
        (s, k, t)
        for s in config["schemes"]
        for k in config["user_counts"]
        for t in range(config["trials"])
    }
    missing, extra = expected - by_key.keys(), by_key.keys() - expected
    if missing or extra:
        verdict.fail(
            "complete",
            f"{len(missing)} rows missing (e.g. {sorted(missing)[:2]}), {len(extra)} unexpected",
            [r.index for key in extra for r in by_key[key]],
        )

    drops = {(k, t) for (_, k, t) in by_key}
    for k, t in sorted(drops):
        got = {s: by_key[(s, k, t)][0] for s in config["schemes"] if (s, k, t) in by_key}
        pairing = [got[s] for s in PAIRING_SCHEMES if s in got]
        if len({r.clusters for r in pairing}) > 1:
            verdict.fail(
                "clusters_equal",
                f"K={k} trial={t}: clusters differ {[(r.scheme, r.clusters) for r in pairing]}",
                [r.index for r in pairing],
            )
        elif pairing and pairing[0].clusters == 0:
            steered = [got[s] for s in STEERED_SCHEMES if s in got]
            if not all(_close(r.rate, steered[0].rate, SAME_RATE_TOL) for r in steered):
                verdict.fail(
                    "unpaired_equal",
                    f"K={k} trial={t}: no pair formed but rates differ {[(r.scheme, r.rate) for r in steered]}",
                    [r.index for r in steered],
                )
        if k == 1 and "cb" in got and "dbs" in got:
            # Cauchy-Schwarz: the matched filter gets at least the steered beam's gain.
            if got["cb"].rate < got["dbs"].rate * (1.0 - SAME_RATE_TOL):
                verdict.fail(
                    "cb_ge_dbs",
                    f"K=1 trial={t}: cb {got['cb'].rate} < dbs {got['dbs'].rate}",
                    [got["cb"].index],
                )
    return verdict, rows


class Trend:
    """Mean rate per (scheme, K), pooled over every sweep of a run."""

    def __init__(self) -> None:
        self.sums: dict[tuple[str, int], float] = defaultdict(float)
        self.counts: dict[tuple[str, int], int] = defaultdict(int)

    def add(self, rows: list[SweepRow]) -> None:
        for r in rows:
            if math.isfinite(r.rate):
                self.sums[(r.scheme, r.K)] += r.rate
                self.counts[(r.scheme, r.K)] += 1

    def check(self, verdict: Verdict) -> None:
        """Paper trend at each K: full-CSI NOMA beats plain steering and
        orthogonal sharing on average, and partial CSI stays close to it."""
        means = {key: self.sums[key] / self.counts[key] for key in self.counts}
        for k in sorted({k for (_, k) in means}):
            try:
                fcsi, dbs, oma, pcsi = (
                    means[(s, k)] for s in ("noma_dbs_fcsi", "dbs", "oma_dbs", "noma_dbs_pcsi")
                )
            except KeyError:
                continue
            if fcsi < dbs or fcsi < oma:
                verdict.fail("trend", f"K={k}: mean fcsi {fcsi:.6g} below dbs {dbs:.6g} or oma {oma:.6g}")
            if abs(pcsi - fcsi) > PCSI_TOLERANCE * fcsi:
                verdict.fail("trend", f"K={k}: mean pcsi {pcsi:.6g} not within 5% of fcsi {fcsi:.6g}")


def anchor_rate(config: dict) -> float:
    """Closed-form rate of the one-user, one-path, under-the-mast drop."""
    wavelength = SPEED_OF_LIGHT / config["carrier_hz"]
    path_gain = (wavelength / (4.0 * math.pi * ANTENNA_HEIGHT_M)) ** 2
    snr = (
        dbm_to_w(config["total_power_dbm"]) * config["m_h"] * config["m_v"] * path_gain
        / dbm_to_w(config["noise_power_dbm"])
    )
    return config["bandwidth_hz"] * math.log2(1.0 + snr)


def check_anchor(rows: list[SweepRow], config: dict, verdict: Verdict) -> None:
    expected = anchor_rate(config)
    for r in rows:
        if not _close(r.rate, expected, ANCHOR_TOL):
            verdict.fail("anchor", f"{r.scheme} trial={r.trial}: {r.rate} != closed form {expected}", [r.index])


# ---------------------------------------------------------------------------
# Pattern CSVs


def phasor_pattern(config: dict, beam: tuple[float, float], probe: tuple[float, float]) -> float:
    """(1/M) |a(beam)^H a(probe)| summed element by element."""
    (bt, bp), (pt, pp) = beam, probe
    du_az = math.cos(pt) * math.cos(pp) - math.cos(bt) * math.cos(bp)
    du_el = math.sin(pp) - math.sin(bp)
    i = np.arange(config["m_h"])[:, None]
    j = np.arange(config["m_v"])[None, :]
    phases = 2.0 * math.pi * config["d_over_lambda"] * (i * du_az + j * du_el)
    return float(abs(np.exp(1j * phases).sum())) / (config["m_h"] * config["m_v"])


def _peak_deficit(config: dict, offset: float) -> float:
    """Largest drop below 1 the pattern may show at ``offset`` from its beam.

    Per axis sin(Mx)/(M sin x) = 1 - (M^2-1) x^2 / 6 + O(x^4) with
    x = pi d du and |du| <= |offset|; twice that, summed over both axes.
    """
    x2 = (math.pi * config["d_over_lambda"] * offset) ** 2
    return 2.0 * x2 * ((config["m_h"] ** 2 - 1) + (config["m_v"] ** 2 - 1)) / 6.0


PHASOR_EVERY = 97  # rows between two phasor-sum comparisons
PROBE_TOL = 5e-8  # radians; angles carry 9 significant digits
PHASOR_TOL = 2e-6  # the printed angles move the pattern by up to about 1e-6


def check_pattern(text: str, config: dict, beam: tuple[float, float]) -> Verdict:
    verdict = Verdict()
    rows = []
    for index, line in enumerate(_data_lines(text, PATTERN_HEADER, verdict)):
        p = line.split(",")
        try:
            if len(p) != 5 or p[0] not in ("az", "el"):
                raise ValueError("expected axis,offset,theta,phi,value")
            rows.append(PatternRow(index, p[0], float(p[1]), float(p[2]), float(p[3]), float(p[4])))
        except ValueError as exc:
            verdict.fail("parse", f"row {index} {line!r}: {exc}", [index])
    theta0, phi0 = beam
    for r in rows:
        if not all(math.isfinite(x) for x in r[2:]):
            verdict.fail("finite", f"row {r.index}: non-finite value", [r.index])
            continue
        if not 0.0 <= r.value <= 1.0:
            verdict.fail("pattern_range", f"row {r.index}: value {r.value} outside [0, 1]", [r.index])
        want = (theta0 + r.offset, phi0) if r.axis == "az" else (theta0, phi0 + r.offset)
        if (
            abs(r.theta - want[0]) > PROBE_TOL
            or abs(r.phi - want[1]) > PROBE_TOL
            or abs(r.phi) > math.pi / 2 + PROBE_TOL
        ):
            verdict.fail("pattern_probe", f"row {r.index}: probe ({r.theta}, {r.phi}) is not beam + offset", [r.index])

    for axis in ("az", "el"):
        cut = [r for r in rows if r.axis == axis]
        if len(cut) < 2 or any(b.offset <= a.offset for a, b in zip(cut, cut[1:])):
            verdict.fail("pattern_cut", f"{axis} cut: {len(cut)} rows, offsets not increasing")
            continue
        if axis == "az" and (cut[0].offset > -math.pi / 2 + 0.01 or cut[-1].offset < math.pi / 2 - 0.01):
            verdict.fail("pattern_cut", f"az cut spans only [{cut[0].offset}, {cut[-1].offset}]")
        peak = min(cut, key=lambda r: abs(r.offset))
        if peak.value < 1.0 - _peak_deficit(config, peak.offset):
            verdict.fail("pattern_peak", f"{axis} cut: {peak.value} at offset {peak.offset}, want about 1", [peak.index])

    sampled = [r for r in rows if r.index % PHASOR_EVERY == 0]
    sampled += [min((r for r in rows if r.axis == a), key=lambda r: abs(r.offset), default=None) for a in ("az", "el")]
    for r in sampled:
        if r is None or r.index in verdict.failed_rows:
            continue
        want = (theta0 + r.offset, phi0) if r.axis == "az" else (theta0, phi0 + r.offset)
        expected = phasor_pattern(config, beam, want)
        if abs(r.value - expected) > PHASOR_TOL:
            verdict.fail("pattern_phasor", f"row {r.index}: {r.value} != phasor sum {expected}", [r.index])
    return verdict
