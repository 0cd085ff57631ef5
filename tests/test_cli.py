import hashlib
import math

import pytest

from nomabeam.cli import main
from nomabeam.sim_harness import CSV_HEADER

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


class TestSimulateCommand:
    def test_end_to_end(self, config_path, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(["simulate", "--config", config_path, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2
        assert "wrote" in capsys.readouterr().out

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
        "line, message",
        [
            ("bandwidth_hz = 0", "bandwidth_hz must be positive"),
            ("bandwidth_hz = -20e6", "bandwidth_hz must be positive"),
            ("total_power_dbm = nan", "total_power_dbm must lie in [-200, 200] dBm"),
            ("noise_power_dbm = inf", "noise_power_dbm must lie in [-200, 200] dBm"),
            ("cell_radius_m = 0", "cell_radius_m must be positive"),
            ("carrier_hz = 0", "carrier must lie in [1e+06, 1e+12] Hz"),
            ("angle_spread_deg = -1", "angle spread"),
            ("total_power_dbm = 4000", "total_power_dbm must lie in [-200, 200] dBm"),
            ("noise_power_dbm = 4000", "noise_power_dbm must lie in [-200, 200] dBm"),
            ("noise_power_dbm = -4000", "noise_power_dbm must lie in [-200, 200] dBm"),
            ("carrier_hz = 1e-300", "carrier must lie in [1e+06, 1e+12] Hz"),
            ("shadowing_sigma_db = 10000", "shadowing sigma must lie in [0, 30] dB"),
            ("carrier_hz = 1e-290", "carrier must lie in [1e+06, 1e+12] Hz"),
            ("carrier_hz = 1e300", "carrier must lie in [1e+06, 1e+12] Hz"),
            ("paths_per_cluster = 2\nnlos_gain_offset_db = -7000,-7000", "nlos_gain_offset_db must not go below -30 dB"),
            ("cell_radius_m = 1e300", "cell_radius_m must be positive and at most 100000 m"),
            ("bandwidth_hz = 1e308", "bandwidth_hz must be positive and at most 1e+12 Hz"),
            ("paths_per_cluster = 2\ntotal_power_dbm = -3170", "total_power_dbm must lie in [-200, 200] dBm"),
            ("paths_per_cluster = 2\nangle_spread_deg = inf", "angle spread must be nonnegative and finite"),
            ("paths_per_cluster = 2\nangle_spread_deg = nan", "angle spread must be nonnegative and finite"),
            (
                "paths_per_cluster = 2\ntotal_power_dbm = -3050\ncell_radius_m = 100000",
                "total_power_dbm must lie in [-200, 200] dBm",
            ),
            ("schemes = dbs,dbs", "schemes must not repeat"),
            ("schemes = noma_dbs,noma_dbs_fcsi\ncsi_mode = full", "schemes must not repeat"),
            ("user_counts = 3,3", "user_counts must not repeat"),
            ("master_seed = -1", "master_seed must be nonnegative"),
            ("d_over_lambda = inf", "element spacing must lie in (0, 10] wavelengths"),
            ("d_over_lambda = 10.000000000000002", "element spacing must lie in (0, 10] wavelengths"),
            ("d_over_lambda = 1e308", "element spacing must lie in (0, 10] wavelengths"),
            ("p_min = nan", "p_min must be nonnegative and finite"),
            ("p_min = inf", "p_min must be nonnegative and finite"),
        ],
    )
    def test_config_edge_rejected_with_one_error_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(SMALL_CFG + line + "\n")
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
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
        assert "num_time_clusters_range must lie within [1, 6]" in err
        assert not out.exists()

    def test_zero_path_gain_exits_nonzero(self, tmp_path, capsys):
        # a 7000 dB offset underflows every scattered path's amplitude to 0
        cfg = tmp_path / "zero-gain.cfg"
        cfg.write_text(SMALL_CFG + "paths_per_cluster = 2\nnlos_gain_offset_db = 7000,7000\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "path gain must be nonzero" in err

    def test_missing_config_exits_nonzero(self, tmp_path):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


# sha256 of `nomabeam pattern` on the default 32x2 half-wavelength array
PATTERN_SHA256 = {
    "1.5708,0.0": "3369096c3651dcc99e3a18e97078cd5760a5f4f0ec4e7c6240cfdfe19a65113e",
    "0.9,-0.6": "0d8e5687589fa90b8588461b5cb744b4d7a4c926a3a849e8fd0a9051405979e7",
}


class TestPatternCommand:
    @pytest.mark.parametrize("beam", sorted(PATTERN_SHA256))
    def test_pinned_bytes(self, tmp_path, beam):
        cfg = tmp_path / "default.cfg"
        cfg.write_text("m_h = 32\nm_v = 2\n")
        out = tmp_path / "pattern.csv"
        assert main(["pattern", "--config", str(cfg), "--beam", beam, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PATTERN_SHA256[beam]

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

    def test_bad_beam_argument(self, config_path, tmp_path, capsys):
        code = main(
            ["pattern", "--config", config_path, "--beam", "only-one", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "theta,phi" in capsys.readouterr().err
