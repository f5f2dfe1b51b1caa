import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlkpp
from nlkpp import ConfigError, ConvergenceFailure, waves
from nlkpp.cli import _problem, main
from nlkpp.config import parse_config

BASE = """
[scenario]
seed = 11

[model]
kappa_plus = 2.0
kappa_minus = 1.0
mortality = 1.0

[kernel_plus]
family = gaussian
sigma = 1.0

[kernel_minus]
family = gaussian
sigma = 1.0

[grid]
dimension = 1
half_length = 20.0
points = 128

[time]
dt = 2e-3
horizon = 0.5
snapshot_stride = 125

[initial]
kind = constant
value = 0.5
"""


def summary_dict(path: Path) -> dict:
    entries = {}
    for line in (path / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


class TestParsing:
    def test_defaults(self):
        cfg = parse_config(BASE.replace("dt = 2e-3", "").replace(
            "snapshot_stride = 125", ""))
        assert cfg.dt == 1e-3
        assert cfg.snapshot_stride == 100
        assert cfg.command == "simulate"
        assert cfg.seed == 11

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("points = 128", "points = 1000"))

    def test_rejects_missing_kernel_parameter(self):
        text = BASE.replace("family = gaussian\nsigma = 1.0", "family = exppoly", 1)
        with pytest.raises(ConfigError, match="mu|requires"):
            parse_config(text)

    def test_unknown_key_reports_line(self):
        text = BASE + "\n[model]\nbogus = 3\n"
        with pytest.raises(ConfigError, match="line"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE + "\n[mystery]\nx = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(BASE + "\n[model]\nkappa_plus = 3\n")

    def test_missing_profile_file(self):
        text = BASE.replace("kind = constant\nvalue = 0.5",
                            "kind = profile-file\npath = /nonexistent.csv")
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(text)

    def test_bad_initial_kind(self):
        with pytest.raises(ConfigError, match="unknown initial kind"):
            parse_config(BASE.replace("kind = constant", "kind = blob"))

    @pytest.mark.parametrize("old, new", [
        ("snapshot_stride = 125", "snapshot_stride = 0"),
        ("dt = 2e-3", "dt = 0"),
        ("dt = 2e-3", "dt = -1e-3"),
        ("horizon = 0.5", "horizon = 0"),
        ("horizon = 0.5", "horizon = inf"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\nlambda_count = 1"),
        ("value = 0.5", "value = 0.5\n\n[verify]\npairs = 0"),
    ])
    def test_rejects_out_of_range_values_with_line(self, old, new):
        text = BASE.replace(old, new)
        lineno = text.splitlines().index(new.splitlines()[-1]) + 1
        with pytest.raises(ConfigError, match=f"line {lineno}:") as info:
            parse_config(text)
        assert info.value.line == lineno

    def test_front_inflate_is_an_unknown_key(self, tmp_path, capsys):
        text = BASE + "\n[front]\ninflate = 1.2\n"
        lineno = text.splitlines().index("inflate = 1.2") + 1
        with pytest.raises(ConfigError, match=f"line {lineno}: unknown key 'inflate'"):
            parse_config(text)
        cfg_file = tmp_path / "front.cfg"
        cfg_file.write_text(text)
        assert main(["front", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'inflate'" in capsys.readouterr().err


class TestScenarios:
    def test_simulate_writes_artifacts(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(BASE)
        rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        entries = summary_dict(tmp_path / "out")
        assert entries["simulate.strip_ok"] == "true"
        assert entries["assumption.A2_kernel_domination"] == "true"
        assert (tmp_path / "out" / "snapshots.csv").exists()

    def test_determinism_across_threads_and_reruns(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(BASE)
        main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "a"),
              "--threads", "1"])
        main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "b"),
              "--threads", "8"])
        for name in ("snapshots.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

    def test_dispersion_summary(self, tmp_path):
        cfg_file = tmp_path / "d.cfg"
        cfg_file.write_text(BASE)
        rc = main(["dispersion", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        entries = summary_dict(tmp_path / "out")
        assert float(entries["dispersion.lambda_star"]) == pytest.approx(0.798, abs=2e-3)
        assert float(entries["dispersion.c_star"]) == pytest.approx(2.193, abs=2e-3)
        assert entries["dispersion.class"] == "V"
        assert entries["dispersion.j_at_cstar"] == "2"
        assert float(entries["dispersion.m_xi"]) == 0.0
        data = np.loadtxt(tmp_path / "out" / "dispersion.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 2
        assert np.min(data[:, 1]) >= float(entries["dispersion.c_star"]) - 1e-9

    def test_wave_below_minimal_speed_fails(self, tmp_path):
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(BASE + "\n[wave]\nspeed = 1.0\n")
        rc = main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert "minimal speed" in entries["error"]

    @pytest.mark.parametrize("command, extra", [
        ("front", ""),
        ("wave", "\n[wave]\nspeed_factor = 1.5\n"),
    ])
    def test_no_carrying_capacity_writes_error(self, tmp_path, command, extra):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(BASE.replace("kappa_plus = 2.0", "kappa_plus = 0.5") + extra)
        rc = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert "carrying capacity" in entries["error"]
        assert entries["error.type"] == "ValueError"

    def test_wave_domain_too_small_writes_error(self, tmp_path):
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(BASE + "\n[wave]\nspacing = 0.1\n"
                            "domain_left = -5\ndomain_right = 5\n")
        rc = main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert "domain too small" in entries["error"]
        assert entries["error.type"] == "ValueError"

    def test_wave_scenario(self, tmp_path):
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(BASE + "\n[wave]\nspeed_factor = 1.5\nspacing = 0.1\n"
                            "domain_left = -45\ndomain_right = 70\n")
        rc = main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        entries = summary_dict(tmp_path / "out")
        assert float(entries["wave.residual_sup"]) <= 1e-4  # coarse grid scenario
        profile = np.loadtxt(tmp_path / "out" / "profile.csv", delimiter=",", skiprows=1)
        assert profile.shape[1] == 2
        assert (tmp_path / "out" / "fit.txt").exists()

    def test_verify_comparison_suite(self, tmp_path):
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(BASE + "\n[verify]\nsuite = comparison\npairs = 4\n")
        rc = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        entries = summary_dict(tmp_path / "out")
        assert entries["verify.violations"] == "0"
        assert float(entries["verify.max_order_violation"]) <= 1e-9

    def test_front_scenario(self, tmp_path):
        text = BASE.replace("kind = constant\nvalue = 0.5",
                            "kind = bump\nwidth = 2.0\nheight = 0.5")
        text = text.replace("horizon = 0.5", "horizon = 4.0")
        cfg_file = tmp_path / "f.cfg"
        cfg_file.write_text(text + "\n[front]\nlevel = 0.25\n")
        rc = main(["front", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        trace = np.loadtxt(tmp_path / "out" / "front_trace.csv", delimiter=",", skiprows=1)
        assert trace.shape[0] > 1
        assert np.all(np.diff(trace[:, 1]) > -0.5)  # front advances overall

    def test_equal_kernels_share_one_weights_object(self):
        problem = _problem(parse_config(BASE))
        assert problem.a_minus_w is problem.a_plus_w
        problem = _problem(parse_config(BASE.replace("sigma = 1.0", "sigma = 1.5", 1)))
        assert problem.a_minus_w is not problem.a_plus_w

    @pytest.mark.parametrize("sigma_plus, shared", [("1.0", True), ("1.5", False)])
    def test_wave_with_equal_kernels_builds_one_line(self, tmp_path, monkeypatch,
                                                     sigma_plus, shared):
        seen = []

        def stop(params, k_plus, k_minus, c, **kwargs):
            seen.append((k_plus, k_minus))
            raise ConvergenceFailure("stopped after the lines were built")

        monkeypatch.setattr(waves, "solve_profile", stop)
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(BASE.replace("sigma = 1.0", f"sigma = {sigma_plus}", 1)
                            + "\n[wave]\nspeed_factor = 1.5\n")
        assert main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        [(k_plus, k_minus)] = seen
        assert (k_minus is k_plus) == shared

    @pytest.mark.parametrize("sigma_minus, samplings", [("1.0", 1), ("0.8", 2)])
    def test_wave_samples_each_line_kernel_once(self, tmp_path, monkeypatch, sigma_minus,
                                                samplings):
        spacings = []

        def counted(k, h, *args, **kwargs):
            spacings.append(h)
            return sample(k, h, *args, **kwargs)

        sample = waves.sample_line_kernel
        monkeypatch.setattr(waves, "sample_line_kernel", counted)
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(BASE.replace("family = gaussian\nsigma = 1.0\n\n[grid]",
                                         f"family = gaussian\nsigma = {sigma_minus}\n\n[grid]")
                            + "\n[wave]\nspeed_factor = 1.5\nspacing = 0.1\n"
                            "domain_left = -45\ndomain_right = 70\n")
        assert main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        assert len(spacings) == samplings
        assert len(set(spacings)) == 1


LAPLACE = BASE.replace("family = gaussian\nsigma = 1.0", "family = laplace\nmu = 1.0")


class TestLaplaceWave:
    def test_short_left_domain_names_its_end(self, tmp_path):
        # psi(-60) = theta - 1.8e-6 on the default domain; it converges on [-80, 80]
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(LAPLACE + "\n[wave]\nspeed_factor = 1.3\n")
        assert main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        entries = summary_dict(tmp_path / "out")
        assert entries["error.type"] == "ConvergenceFailure"
        assert "left end: psi(-60) = theta - 1.82e-06" in entries["error"]
        assert "domain_left" in entries["error"]

    def test_critical_speed(self, tmp_path):
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(LAPLACE + "\n[wave]\nspeed_factor = 1.0\n")
        assert main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        entries = summary_dict(tmp_path / "out")
        assert float(entries["wave.residual_sup"]) <= 1e-6
        assert entries["wave.j"] == "2"


WAVE_FAMILIES = {
    "gaussian": "sigma = 1.0",
    "laplace": "mu = 1.0",
    "compact_uniform": "radius = 1.0",
    "exppoly": "p = 1.0\nq = 4.0\nmu = 1.0",
    "power_tail": "q = 4.0",
}


@settings(derandomize=True, max_examples=15, deadline=None)
@given(family=st.sampled_from(sorted(WAVE_FAMILIES)), speed_factor=st.floats(1.0, 2.0),
       spacing=st.sampled_from([0.1, 0.2]))
def test_wave_configs_end_in_a_summary(tmp_path_factory, family, speed_factor, spacing):
    kernel = f"family = {family}\n{WAVE_FAMILIES[family]}\n"
    out = tmp_path_factory.mktemp("wave")
    cfg_file = out / "w.cfg"
    cfg_file.write_text("[model]\nkappa_plus = 2.0\nkappa_minus = 1.0\nmortality = 1.0\n"
                        f"[kernel_plus]\n{kernel}[kernel_minus]\n{kernel}"
                        f"[wave]\nspeed_factor = {speed_factor!r}\nspacing = {spacing}\n")
    rc = main(["wave", "--config", str(cfg_file), "--out", str(out / "run")])
    assert rc in (0, 1, 2)
    if rc == 2:
        return
    entries = summary_dict(out / "run")
    if rc == 1:
        assert entries["error"] and entries["error.type"]
    else:
        assert "error" not in entries


def test_cli_import_skips_scipy_stats_and_signal():
    src = str(Path(nlkpp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, nlkpp.cli\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestMoreScenarios:
    def test_dimension_three_rejected(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(BASE.replace("dimension = 1", "dimension = 3"))

    def test_verify_necessity_mode(self, tmp_path):
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text(BASE.replace("points = 128", "points = 1024")
                            .replace("half_length = 20.0", "half_length = 10.0")
                            .replace("dt = 2e-3", "dt = 1e-3")
                            + "\n[verify]\nsuite = comparison\nnecessity = true\n")
        rc = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        entries = summary_dict(tmp_path / "out")
        assert float(entries["verify.max_overshoot_above_theta"]) > 1e-4

    def test_two_dimensional_simulation(self, tmp_path):
        text = BASE.replace("dimension = 1", "dimension = 2")
        text = text.replace("points = 128", "points = 32").replace(
            "half_length = 20.0", "half_length = 10.0")
        cfg_file = tmp_path / "2d.cfg"
        cfg_file.write_text(text)
        rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        data = np.loadtxt(tmp_path / "out" / "snapshots.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 4  # t, x1, x2, u


class TestProfileFileWorkflow:
    def test_wave_profile_feeds_simulation(self, tmp_path):
        wave_cfg = tmp_path / "w.cfg"
        wave_cfg.write_text(BASE + "\n[wave]\nspeed_factor = 1.5\nspacing = 0.1\n"
                            "domain_left = -45\ndomain_right = 70\n")
        assert main(["wave", "--config", str(wave_cfg),
                     "--out", str(tmp_path / "wave")]) == 0
        profile_csv = tmp_path / "wave" / "profile.csv"
        sim_text = BASE.replace(
            "kind = constant\nvalue = 0.5",
            f"kind = shifted-profile\npath = {profile_csv}\nshift = -5.0")
        sim_cfg = tmp_path / "s.cfg"
        sim_cfg.write_text(sim_text)
        assert main(["simulate", "--config", str(sim_cfg),
                     "--out", str(tmp_path / "sim")]) == 0
        entries = summary_dict(tmp_path / "sim")
        assert entries["simulate.strip_ok"] == "true"

    def test_one_column_profile_file_writes_error(self, tmp_path):
        profile_csv = tmp_path / "one_column.csv"
        profile_csv.write_text("psi\n1.0\n0.0\n")
        sim_cfg = tmp_path / "s.cfg"
        sim_cfg.write_text(BASE.replace("kind = constant\nvalue = 0.5",
                                        f"kind = profile-file\npath = {profile_csv}"))
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "sim")]) == 1
        entries = summary_dict(tmp_path / "sim")
        assert entries["error.type"] == "ConfigError"
        assert "two columns" in entries["error"]

    def test_one_row_profile_file_gives_constant_start(self, tmp_path):
        profile_csv = tmp_path / "one_row.csv"
        profile_csv.write_text("s,psi\n0.0,0.25\n")
        sim_cfg = tmp_path / "s.cfg"
        sim_cfg.write_text(BASE.replace("kind = constant\nvalue = 0.5",
                                        f"kind = profile-file\npath = {profile_csv}"))
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "sim")]) == 0
        data = np.loadtxt(tmp_path / "sim" / "snapshots.csv", delimiter=",", skiprows=1)
        assert np.all(data[data[:, 0] == 0.0, 2] == 0.25)
