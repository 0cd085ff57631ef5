import hashlib
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomabeam.cli import PATTERN_STEP_RAD, main

from csv_reference import SWEEP_HEADER, pattern_csv
from drops import array

SMALL_CFG = """
m_h = 8
m_v = 2
user_counts = 3,5
schemes = dbs,noma_dbs_fcsi
trials = 2
master_seed = 3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


# Every scheme at user counts given out of order; its summary table printed by
# `nomabeam simulate`, pinned by the sha256 of stdout without the final
# 'wrote N rows to ...' line, per trial count (one trial gives stderr 0.0000)
TABLE_CFG = """
m_h = 8
m_v = 2
user_counts = 5,1,3
master_seed = 11
"""
TABLE_SHA256 = {
    1: "9974ff2469ca95aa6eb64ce465a9780f4503d78fd0bb34386513e5d7006053df",
    3: "335f37c056344686242301d408ba25ba92b23d964f7efaf6c1912db6cb765760",
}


class TestSimulateCommand:
    def test_end_to_end(self, config_path, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(["simulate", "--config", config_path, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 2 * 2 * 2
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", sorted(TABLE_SHA256))
    def test_pinned_summary_table(self, tmp_path, capsys, trials):
        cfg = tmp_path / "table.cfg"
        cfg.write_text(TABLE_CFG)
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(cfg), "--trials", str(trials), "--out", str(out)]) == 0
        *table, wrote = capsys.readouterr().out.splitlines(keepends=True)
        assert wrote == f"wrote {5 * 3 * trials} rows to {out}\n"
        assert hashlib.sha256("".join(table).encode()).hexdigest() == TABLE_SHA256[trials]

    def test_trial_and_seed_overrides(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        code = main(
            ["simulate", "--config", config_path, "--trials", "1", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_error_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("m_h = 8\nnot_a_key = 2\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, line, message",
        [
            ("bandwidth_hz", "bandwidth_hz = 0", "bandwidth_hz must be positive"),
            ("bandwidth_hz", "bandwidth_hz = -20e6", "bandwidth_hz must be positive"),
            ("total_power_dbm", "total_power_dbm = nan", "total_power_dbm must lie in [-200, 200] dBm"),
            ("noise_power_dbm", "noise_power_dbm = inf", "noise_power_dbm must lie in [-200, 200] dBm"),
            ("cell_radius_m", "cell_radius_m = 0", "cell_radius_m must be positive"),
            ("carrier_hz", "carrier_hz = 0", "carrier_hz must lie in [1e+06, 1e+12] Hz"),
            ("angle_spread_deg", "angle_spread_deg = -1", "angle_spread_deg must be nonnegative and finite"),
            ("total_power_dbm", "total_power_dbm = 4000", "total_power_dbm must lie in [-200, 200] dBm"),
            ("noise_power_dbm", "noise_power_dbm = 4000", "noise_power_dbm must lie in [-200, 200] dBm"),
            ("noise_power_dbm", "noise_power_dbm = -4000", "noise_power_dbm must lie in [-200, 200] dBm"),
            ("carrier_hz", "carrier_hz = 1e-300", "carrier_hz must lie in [1e+06, 1e+12] Hz"),
            ("shadowing_sigma_db", "shadowing_sigma_db = 10000", "shadowing_sigma_db must lie in [0, 30] dB"),
            ("carrier_hz", "carrier_hz = 1e-290", "carrier_hz must lie in [1e+06, 1e+12] Hz"),
            ("carrier_hz", "carrier_hz = 1e300", "carrier_hz must lie in [1e+06, 1e+12] Hz"),
            (
                "nlos_gain_offset_db",
                "paths_per_cluster = 2\nnlos_gain_offset_db = -7000,-7000",
                "nlos_gain_offset_db must satisfy -30 <= lo <= hi <= 200",
            ),
            # a 7000 dB offset would underflow every scattered path's amplitude to 0
            (
                "nlos_gain_offset_db",
                "paths_per_cluster = 2\nnlos_gain_offset_db = 7000,7000",
                "nlos_gain_offset_db must satisfy -30 <= lo <= hi <= 200",
            ),
            (
                "nlos_gain_offset_db",
                "paths_per_cluster = 2\nnlos_gain_offset_db = 5,200.00000000000003",
                "nlos_gain_offset_db must satisfy -30 <= lo <= hi <= 200",
            ),
            ("num_time_clusters", "num_time_clusters = 2,1", "num_time_clusters must satisfy 1 <= lo <= hi <= 6"),
            ("paths_per_cluster", "paths_per_cluster = 1,31", "paths_per_cluster must satisfy 1 <= lo <= hi <= 30"),
            ("cell_radius_m", "cell_radius_m = 1e300", "cell_radius_m must be positive and at most 100000 m"),
            ("bandwidth_hz", "bandwidth_hz = 1e308", "bandwidth_hz must be positive and at most 1e+12 Hz"),
            (
                "total_power_dbm",
                "paths_per_cluster = 2\ntotal_power_dbm = -3170",
                "total_power_dbm must lie in [-200, 200] dBm",
            ),
            (
                "angle_spread_deg",
                "paths_per_cluster = 2\nangle_spread_deg = inf",
                "angle_spread_deg must be nonnegative and finite",
            ),
            (
                "angle_spread_deg",
                "paths_per_cluster = 2\nangle_spread_deg = nan",
                "angle_spread_deg must be nonnegative and finite",
            ),
            (
                "total_power_dbm",
                "paths_per_cluster = 2\ntotal_power_dbm = -3050\ncell_radius_m = 100000",
                "total_power_dbm must lie in [-200, 200] dBm",
            ),
            ("schemes", "schemes = dbs,dbs", "schemes must not repeat"),
            ("schemes", "schemes = noma_dbs,noma_dbs_fcsi\ncsi_mode = full", "schemes must not repeat"),
            ("user_counts", "user_counts = 3,3", "user_counts must not repeat"),
            ("user_counts", "user_counts = 3,16", "user_counts must satisfy 1 <= K < M=16"),
            ("master_seed", "master_seed = -1", "master_seed must be nonnegative"),
            ("m_h", "m_h = 0", "m_h must be >= 1"),
            ("m_v", "m_v = 0", "m_v must be >= 1"),
            ("d_over_lambda", "d_over_lambda = inf", "d_over_lambda must lie in (0, 10] wavelengths"),
            ("d_over_lambda", "d_over_lambda = 10.000000000000002", "d_over_lambda must lie in (0, 10] wavelengths"),
            ("d_over_lambda", "d_over_lambda = 1e308", "d_over_lambda must lie in (0, 10] wavelengths"),
            ("p_min", "p_min = nan", "p_min must be nonnegative and finite"),
            ("p_min", "p_min = inf", "p_min must be nonnegative and finite"),
            ("p_min", "p_min = -1", "p_min must be nonnegative and finite"),
            ("beta0", "beta0 = 0", "beta0 must be in (0, 1)"),
            ("beta0", "beta0 = 1", "beta0 must be in (0, 1)"),
            ("epsilon", "epsilon = 1", "epsilon must be in [0, 1)"),
            ("epsilon", "epsilon = -0.01", "epsilon must be in [0, 1)"),
            ("d_over_lambda", "d_over_lambda = 0", "d_over_lambda must lie in (0, 10] wavelengths"),
            ("inter_cluster_rule", "inter_cluster_rule = sideways", "unknown inter_cluster_rule: 'sideways'"),
            ("user_counts", "user_counts = 0", "user_counts must satisfy 1 <= K < M=16"),
            ("trials", "trials = 0", "trials must be >= 1"),
        ],
    )
    def test_config_edge_rejected_with_one_error_line(self, tmp_path, capsys, key, line, message):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(SMALL_CFG + line + "\n")
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err and message in err
        assert not out.exists()

    def test_negative_seed_override_rejected(self, config_path, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", config_path, "--seed", "-5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "master_seed must be nonnegative" in err
        assert not out.exists()

    def test_path_count_bound_checked_at_load(self, tmp_path, capsys):
        # `pattern` loads the scenario but draws no channel, so a count the
        # loader failed to bound would not run here either
        cfg = tmp_path / "paths.cfg"
        cfg.write_text(SMALL_CFG + "num_time_clusters = 1,100000000\n")
        out = tmp_path / "p.csv"
        code = main(["pattern", "--config", str(cfg), "--beam", "1.5708,0.0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "num_time_clusters must satisfy 1 <= lo <= hi <= 6" in err
        assert not out.exists()

    def test_missing_config_exits_nonzero(self, tmp_path):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_huge_p_min_runs_without_warnings(self, tmp_path, capsys):
        # noise at 200 dBm leaves every link ratio tiny, and p_min over it
        # does not fit a float: every shared beam is infeasible, quietly
        cfg = tmp_path / "huge_p_min.cfg"
        cfg.write_text("user_counts = 2,5\ntrials = 3\np_min = 1e300\nnoise_power_dbm = 200\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 1 + 5 * 2 * 3


# Each command's arguments between its --config and its --out.
COMMAND_ARGS = {"simulate": [], "pattern": ["--beam", "1.5708,0.0"]}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_non_utf8_config_rejected_with_one_error_line(tmp_path, capsys, command):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"m_h = 32\n\xff\xfe\n")
    out = tmp_path / "x.csv"
    code = main([command, "--config", str(cfg), *COMMAND_ARGS[command], "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(cfg) in captured.err
    assert captured.out == "" and not out.exists()


# sha256 of `nomabeam pattern` on the default 32x2 half-wavelength array
PATTERN_SHA256 = {
    "1.5708,0.0": "3369096c3651dcc99e3a18e97078cd5760a5f4f0ec4e7c6240cfdfe19a65113e",
    "0.9,-0.6": "0d8e5687589fa90b8588461b5cb744b4d7a4c926a3a849e8fd0a9051405979e7",
}


# The default array, one row, grating lobes at 1.5 wavelengths, and the
# massive array at 2.5 wavelengths
PATTERN_ARRAYS = [array(32, 2, 0.5), array(8, 1, 0.5), array(4, 2, 1.5), array(64, 8, 2.5)]
beam_angles = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e300, -1e300, math.pi / 2, -math.pi / 2]),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestPatternCommand:
    @pytest.mark.parametrize("beam", sorted(PATTERN_SHA256))
    def test_pinned_bytes(self, tmp_path, beam):
        cfg = tmp_path / "default.cfg"
        cfg.write_text("m_h = 32\nm_v = 2\n")
        out = tmp_path / "pattern.csv"
        assert main(["pattern", "--config", str(cfg), "--beam", beam, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PATTERN_SHA256[beam]

    @settings(max_examples=40)
    @given(st.sampled_from(PATTERN_ARRAYS), beam_angles, beam_angles)
    def test_bytes_match_per_value_formatting(self, tmp_path_factory, cfg, theta, phi):
        work = tmp_path_factory.mktemp("cuts")
        config = work / "array.cfg"
        config.write_text(f"m_h = {cfg.m_h}\nm_v = {cfg.m_v}\nd_over_lambda = {cfg.d_over_lambda}\nuser_counts = 2\n")
        out = work / "pattern.csv"
        assert main(["pattern", "--config", str(config), f"--beam={theta!r},{phi!r}", "--out", str(out)]) == 0
        assert out.read_bytes() == pattern_csv(cfg, theta, phi, PATTERN_STEP_RAD).encode()

    def test_writes_both_axis_cuts(self, config_path, tmp_path):
        out = tmp_path / "pattern.csv"
        beam = f"{math.pi / 2},0.0"
        assert main(["pattern", "--config", config_path, "--beam", beam, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,offset_rad,theta_rad,phi_rad,array_factor"
        axes = {line.split(",")[0] for line in lines[1:]}
        assert axes == {"az", "el"}
        values = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(values) > 0.999  # the cut passes through the beam peak
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)

    def test_negative_azimuth_in_attached_form(self, config_path, tmp_path):
        # argparse reads a separate value that starts with '-' as an option
        out = tmp_path / "pattern.csv"
        assert main(["pattern", "--config", config_path, "--beam=-0.5,0.1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert {line.split(",")[0] for line in lines[1:]} == {"az", "el"}
        assert max(float(line.split(",")[4]) for line in lines[1:]) > 0.999

    def test_bad_beam_argument(self, config_path, tmp_path, capsys):
        code = main(
            ["pattern", "--config", config_path, "--beam", "only-one", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "theta,phi" in capsys.readouterr().err

    @pytest.mark.parametrize("beam", ["nan,0.0", "0.0,inf", "-inf,nan"])
    def test_non_finite_beam_rejected(self, config_path, tmp_path, capsys, beam):
        out = tmp_path / "p.csv"
        # '=' keeps argparse from reading '-inf,nan' as an option
        code = main(["pattern", "--config", config_path, f"--beam={beam}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "direction angles must be finite" in err
        assert not out.exists()
