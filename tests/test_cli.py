import os
import re
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlkpp
from nlkpp import (ConfigError, ConvergenceFailure, StepConfig, cli, config, fronts,
                   simulate, waves)
from nlkpp.cli import build_initial, main
from nlkpp.kernels import _per_kernel
from nlkpp.config import COMMANDS, SUITES, load_config, parse_config

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
        assert cfg.step == StepConfig(dt=1e-3, method="rk4", floor=0.0)
        assert cfg.time.snapshot_stride == 100
        assert cfg.scenario.command == "simulate"
        assert cfg.scenario.seed == 11

    @pytest.mark.parametrize("sigma_minus, shared", [("1.0", True), ("1", True), ("0.8", False)])
    def test_equal_kernel_sections_give_one_kernel(self, sigma_minus, shared):
        cfg = parse_config(BASE.replace("sigma = 1.0\n\n[grid]",
                                        f"sigma = {sigma_minus}\n\n[grid]"))
        assert (cfg.kernel_minus is cfg.kernel_plus) == shared
        assert (cfg.kernel_minus == cfg.kernel_plus) == shared

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
        ("value = 0.5", "value = 0.5\n\n[wave]\nspacing = 0"),
        ("value = 0.5", "value = 0.5\n\n[wave]\nspacing = -0.1"),
        ("value = 0.5", "value = 0.5\n\n[wave]\nspacing = inf"),
        ("value = 0.5", "value = 0.5\n\n[wave]\ndomain_left = 80\ndomain_right = -40"),
        ("value = 0.5", "value = 0.5\n\n[wave]\ndomain_right = inf"),
        ("value = 0.5", "value = 0.5\n\n[front]\nn_directions = 0"),
        ("value = 0.5", "value = 0.5\n\n[front]\nn_directions = 1"),
        ("value = 0.5", "value = 0.5\n\n[front]\nn_directions = 2"),
        ("dt = 2e-3", "dt = 2e-3\nmethod = leapfrog"),
        ("value = 0.5", "value = 0.5\n\n[wave]\nspeed = nan"),
        ("value = 0.5", "value = 0.5\n\n[wave]\nspeed_factor = inf"),
        ("value = 0.5", "value = 0.5\ncenter = 5 -3"),
        ("dt = 2e-3", "dt = 2e-3\nfloor = nan"),
        ("dt = 2e-3", "dt = 2e-3\nfloor = -1"),
        ("mortality = 1.0", "mortality = 0"),
        ("kappa_plus = 2.0", "kappa_plus = -2"),
        ("kappa_minus = 1.0", "kappa_minus = nan"),
        ("kappa_plus = 2.0", "kappa_plus = inf"),
        ("points = 128", "points = 1000"),
        ("points = 128", "points = 8"),
        ("half_length = 20.0", "half_length = -1"),
        ("half_length = 20.0", "half_length = inf"),
        ("dimension = 1", "dimension = 0"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\ndirection = 1 1"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\ndirection = 0"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\ndirection = nan"),
        ("value = 0.5", "value = 0.5\n\n[front]\nlevel = nan"),
        ("value = 0.5", "value = 0.5\n\n[front]\nlevel = inf"),
        ("value = 0.5", "value = 0.5\n\n[front]\nshrink = 1.5"),
        ("value = 0.5", "value = 0.5\n\n[front]\nshrink = 0"),
        ("sigma = 1.0", "sigma = inf"),
        ("sigma = 1.0", "sigma = 1.0\noffset = nan"),
        ("sigma = 1.0", "sigma = 1.0\nmu = inf"),
        ("sigma = 1.0", "sigma = 1.0\np = nan"),
        ("sigma = 1.0", "sigma = 1.0\nq = -inf"),
        ("sigma = 1.0", "sigma = 1.0\nradius = nan"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\nlambda_max = nan"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\nlambda_max = inf"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\nlambda_min = 0"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\nlambda_min = 2\nlambda_max = 1"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\nlambda_max = 1\nlambda_min = 1"),
        ("value = 0.5", "value = 0.5\n\n[dispersion]\nlambda_min = 5"),
        ("value = 0.5", "value = nan"),
        ("value = 0.5", "value = 0.5\ncenter = nan"),
        ("value = 0.5", "value = 0.5\nwidth = inf"),
        ("value = 0.5", "value = 0.5\nwidth = -2"),
        ("value = 0.5", "value = 0.5\nheight = nan"),
        ("value = 0.5", "value = 0.5\nshift = inf"),
        ("value = 0.5", "value = 0.5\ndirection = 0"),
        ("value = 0.5", "value = 0.5\ndirection = 3"),
        ("value = 0.5", "value = 0.5\n\n[wave]\nspeed = 2.5\nspeed_factor = 1.3"),
        ("value = 0.5", "value = 0.5\n\n[wave]\nspeed_factor = 1.3\nspeed = 2.5"),
        # a density that is not integrable: its normalizer is not finite; the family line
        ("family = gaussian\nsigma = 1.0", "p = 0.5\nq = 0\nmu = 1e-300\nfamily = exppoly"),
        ("[kernel_minus]\nfamily = gaussian\nsigma = 1.0",
         "[kernel_minus]\np = 0.5\nq = 0\nmu = 1e-300\nfamily = exppoly"),
    ])
    def test_rejects_out_of_range_values_with_line(self, old, new):
        text = BASE.replace(old, new)
        lineno = text.splitlines().index(new.splitlines()[-1]) + 1
        with pytest.raises(ConfigError, match=f"line {lineno}:") as info:
            parse_config(text)
        assert info.value.line == lineno

    @pytest.mark.parametrize("text, cited, message", [
        (BASE + "\n[model]\nkappa_plus\n", "kappa_plus",
         "expected 'key = value', got 'kappa_plus'"),
        ("seed = 3\n" + BASE, "seed = 3", "key outside of any \\[section\\]"),
        (BASE + "\n[output]\nsplit_snapshots = maybe\n", "split_snapshots = maybe",
         "bad value for 'split_snapshots': 'maybe' \\(expected a boolean, got 'maybe'\\)"),
    ])
    def test_malformed_lines_are_refused_with_line(self, text, cited, message):
        lineno = text.splitlines().index(cited) + 1
        with pytest.raises(ConfigError, match=f"line {lineno}: {message}") as info:
            parse_config(text)
        assert info.value.line == lineno

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'mortality' in "
                                              "section \\[model\\]"):
            parse_config(BASE.replace("mortality = 1.0", ""))

    @pytest.mark.parametrize("old, new, cited", [
        ("kind = constant", "kind = blob", "kind = blob"),
        ("kind = constant\nvalue = 0.5", "kind = constant", "kind = constant"),
        ("kind = constant\nvalue = 0.5", "kind = bump\nwidth = 2.0", "kind = bump"),
        ("kind = constant\nvalue = 0.5", "kind = profile-file", "kind = profile-file"),
        ("kind = constant\nvalue = 0.5", "kind = shifted-profile\npath = /nonexistent.csv",
         "path = /nonexistent.csv"),
        ("dimension = 1", "dimension = 3", "dimension = 3"),
        ("family = gaussian\nsigma = 1.0", "family = exppoly", "family = exppoly"),
        ("[kernel_minus]\nfamily = gaussian\nsigma = 1.0", "[kernel_minus]\nfamily = laplace",
         "family = laplace"),
        ("sigma = 1.0", "sigma = -1.0", "family = gaussian"),
        ("seed = 11", "seed = 11\ncommand = bogus", "command = bogus"),
        # the command is the CLI's subcommand alone: the config may not name one
        ("seed = 11", "seed = 11\ncommand = simulate", "command = simulate"),
    ])
    def test_whole_config_errors_cite_the_line_of_their_key(self, old, new, cited):
        text = BASE.replace(old, new, 1)
        lineno = text.splitlines().index(cited) + 1
        with pytest.raises(ConfigError, match=f"line {lineno}:") as info:
            parse_config(text)
        assert info.value.line == lineno

    def test_command_outside_commands_is_refused(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(BASE)
        message = re.escape(f"unknown command 'bogus'; expected one of {COMMANDS}")
        for parse, source in ((parse_config, BASE), (load_config, cfg_file)):
            with pytest.raises(ConfigError, match=f"^{message}$") as info:
                parse(source, command="bogus")
            assert info.value.line is None

    @pytest.mark.parametrize("dimension, center", [(1, "5 -3"), (2, "5")])
    def test_center_must_match_grid_dimension(self, tmp_path, capsys, dimension, center):
        text = BASE.replace("dimension = 1", f"dimension = {dimension}").replace(
            "kind = constant\nvalue = 0.5",
            f"kind = bump\nwidth = 2.0\nheight = 0.5\ncenter = {center}")
        lineno = text.splitlines().index(f"center = {center}") + 1
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(text)
        assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert f"line {lineno}: bad value for 'center'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("direction", ["1", "0 0", "1 nan", "1 0 0"])
    def test_direction_needs_one_finite_component_per_kernel_axis(self, direction):
        text = BASE.replace("dimension = 1", "dimension = 2") + (
            f"\n[dispersion]\ndirection = {direction}\n")
        lineno = text.splitlines().index(f"direction = {direction}") + 1
        with pytest.raises(ConfigError, match=f"line {lineno}: bad value for 'direction'"):
            parse_config(text)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unreadable_config_exits_2_with_one_error_line(self, tmp_path, capsys, command):
        for path in (tmp_path / "missing.cfg", tmp_path):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read config file {str(path)!r}: ")
            assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def _refused_at(self, tmp_path, capsys, command, text, lineno, message):
        """``text`` is refused at ``lineno`` with ``message``, and ``command`` exits 2."""
        with pytest.raises(ConfigError, match=f"line {lineno}: {message}"):
            parse_config(text)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(text)
        assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _with_dimensions(text, grid, dimensions, cited):
        """``text`` with the kernel ``dimensions`` and a ``grid``-dimensional [grid] (None:
        none), and the line number of [``cited``]'s ``dimension``."""
        for section, dimension in dimensions.items():
            text = text.replace(f"[{section}]\n", f"[{section}]\ndimension = {dimension}\n")
        grid_section = "[grid]\ndimension = 1\nhalf_length = 20.0\npoints = 128\n"
        text = text.replace(grid_section, "" if grid is None else grid_section.replace(
            "dimension = 1", f"dimension = {grid}"))
        lines = text.splitlines()
        lineno = lines.index(f"dimension = {dimensions[cited]}", lines.index(f"[{cited}]")) + 1
        return text, lineno

    @pytest.mark.parametrize("grid, dimensions, cited", [
        (1, {"kernel_minus": 2}, "kernel_minus"),
        (2, {"kernel_plus": 1, "kernel_minus": 1}, "kernel_plus"),
        (None, {"kernel_plus": 2}, "kernel_plus"),
        (None, {"kernel_minus": 2}, "kernel_minus"),
    ])
    @pytest.mark.parametrize("command", ["dispersion", "simulate"])
    def test_kernel_dimensions_must_agree(self, tmp_path, capsys, command, grid, dimensions,
                                          cited):
        text, lineno = self._with_dimensions(BASE, grid, dimensions, cited)
        self._refused_at(tmp_path, capsys, command, text, lineno, "\\[kernel_.*differs")

    @pytest.mark.parametrize("grid, dimensions", [
        (None, {"kernel_plus": 3, "kernel_minus": 3}),
        (2, {"kernel_plus": 3, "kernel_minus": 2}),
    ])
    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    @pytest.mark.parametrize("command", ["dispersion", "front", "simulate"])
    def test_kernel_dimension_must_be_1_or_2(self, tmp_path, capsys, command, family, grid,
                                             dimensions):
        base = {"gaussian": BASE, "laplace": LAPLACE}[family]
        text, lineno = self._with_dimensions(base, grid, dimensions, "kernel_plus")
        self._refused_at(tmp_path, capsys, command, text, lineno,
                         "bad value for 'dimension': '3' \\(must be 1 or 2\\)")

    def test_profile_path_that_is_a_directory_is_refused_with_line(self, tmp_path, capsys):
        text = BASE.replace("kind = constant\nvalue = 0.5",
                            f"kind = profile-file\npath = {tmp_path}")
        lineno = text.splitlines().index(f"path = {tmp_path}") + 1
        self._refused_at(tmp_path, capsys, "simulate", text, lineno,
                         f"initial profile file '{tmp_path}' is not a file")

    @pytest.mark.parametrize("initial", [
        "kind = profile-file\npath = {path}\nshift = 5.0",
        "kind = bump\nwidth = 2.0\nheight = 0.5\nvalue = 3.0",
        "kind = constant\nvalue = 0.5\nwidth = 2.0",
        "kind = step\ndirection = -1\ncenter = 1.0",
        "kind = shifted-profile\npath = {path}\nshift = 1.0\ndirection = 1",
    ])
    def test_initial_key_its_kind_does_not_read_is_refused_with_line(self, tmp_path, capsys,
                                                                      initial):
        profile = tmp_path / "p.csv"
        profile.write_text("s,psi\n-1,1\n1,0\n")
        lines = initial.format(path=profile).splitlines()
        kind, key = lines[0].split(" = ")[1], lines[-1].split(" = ")[0]
        text = BASE.replace("kind = constant\nvalue = 0.5", "\n".join(lines))
        lineno = text.splitlines().index(lines[-1]) + 1
        self._refused_at(tmp_path, capsys, "simulate", text, lineno,
                         f"initial kind '{kind}' does not read '{key}'")

    def test_verify_necessity_is_an_unknown_key(self, tmp_path, capsys):
        # the counterexample is the suite `necessity`, not a switch of `comparison`
        text = BASE + "\n[verify]\nnecessity = true\n"
        lineno = text.splitlines().index("necessity = true") + 1
        self._refused_at(tmp_path, capsys, "verify", text, lineno,
                         "unknown key 'necessity' in section \\[verify\\]")

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
        for out in ("a", "b"):
            assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / out)]) == 0
        for name in ("snapshots.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

        # a 2-D 128^2 run with a+ not a-, in two processes at one and two BLAS threads
        plane = (BASE.replace("dimension = 1", "dimension = 2")
                 .replace("half_length = 20.0", "half_length = 10.0")
                 .replace("[kernel_minus]\nfamily = gaussian\nsigma = 1.0",
                          "[kernel_minus]\nfamily = laplace\nmu = 1.5")
                 .replace("dt = 2e-3\nhorizon = 0.5", "dt = 0.02\nhorizon = 0.2")
                 .replace("kind = constant\nvalue = 0.5", "kind = bump\nwidth = 4\nheight = 0.5"))
        cfg_file.write_text(plane)
        for threads in ("1", "2"):
            _interpreter(["-m", "nlkpp.cli", "simulate", "--config", str(cfg_file),
                          "--out", str(tmp_path / f"plane{threads}")],
                         OPENBLAS_NUM_THREADS=threads)
        for name in ("snapshots.csv", "summary.txt"):
            assert (tmp_path / "plane1" / name).read_bytes() == (
                tmp_path / "plane2" / name).read_bytes()

    # a drift of -2 against the direction makes c* negative; the double root stays
    @pytest.mark.parametrize("offset, lambda_star, c_star, m_xi", [
        ("", 0.798, 2.193, 0.0),
        ("\noffset = -2", 0.886, -0.561, -2.0),
    ], ids=["centred", "offset-2"])
    def test_dispersion_summary(self, tmp_path, offset, lambda_star, c_star, m_xi):
        cfg_file = tmp_path / "d.cfg"
        cfg_file.write_text(BASE.replace("sigma = 1.0", "sigma = 1.0" + offset, 1))
        rc = main(["dispersion", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        entries = summary_dict(tmp_path / "out")
        assert float(entries["dispersion.lambda_star"]) == pytest.approx(lambda_star, abs=2e-3)
        assert float(entries["dispersion.c_star"]) == pytest.approx(c_star, abs=2e-3)
        assert entries["dispersion.class"] == "V"
        assert entries["dispersion.j_at_cstar"] == "2"
        assert float(entries["dispersion.m_xi"]) == m_xi
        data = np.loadtxt(tmp_path / "out" / "dispersion.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 2
        assert np.min(data[:, 1]) >= float(entries["dispersion.c_star"]) - 1e-9

    def test_two_dimensional_dispersion_defaults_to_e1(self, tmp_path):
        text = (BASE.replace("dimension = 1", "dimension = 2")
                .replace("points = 128", "points = 32")
                .replace("half_length = 20.0", "half_length = 10.0"))
        outs = []
        for name, extra in (("default", ""), ("e1", "\n[dispersion]\ndirection = 1 0\n")):
            cfg_file = tmp_path / f"{name}.cfg"
            cfg_file.write_text(text + extra)
            outs.append(tmp_path / name)
            assert main(["dispersion", "--config", str(cfg_file), "--out", str(outs[-1])]) == 0
        for artifact in ("summary.txt", "dispersion.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_wave_below_minimal_speed_fails(self, tmp_path):
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(BASE + "\n[wave]\nspeed = 1.0\n")
        rc = main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert "minimal speed" in entries["error"]
        assert entries["error.type"] == "ValueError"

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

    @pytest.mark.parametrize("dimension", ["1", "2"])
    def test_compact_transform_past_overflow_writes_error(self, tmp_path, dimension):
        # lambda R passes 700 within lambda_max: the transform reads inf, not a traceback
        cfg_file = tmp_path / "d.cfg"
        cfg_file.write_text(BASE.replace("family = gaussian\nsigma = 1.0",
                                         "family = compact_uniform\nradius = 2.0", 1)
                            .replace("dimension = 1", f"dimension = {dimension}")
                            + "\n[dispersion]\nlambda_max = 400\n")
        rc = main(["dispersion", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert "transform diverges" in entries["error"]
        assert entries["error.type"] == "ValueError"

    @pytest.mark.parametrize("mu, kind, overflow", [("1e200", "OverflowError", False),
                                                    ("1e-200", "ZeroDivisionError", True)])
    def test_line_moment_arithmetic_error_writes_error(self, tmp_path, mu, kind, overflow):
        # the 1-D laplace line's closed-form moments overflow (mu^2) or divide by zero, which
        # _moment refuses as a KernelError naming the family, the power and lambda; at
        # mu = 1e-200 the assumption check then samples points out to 8e200, whose
        # squares overflow with a RuntimeWarning
        cfg_file = tmp_path / "d.cfg"
        cfg_file.write_text(BASE.replace("family = gaussian\nsigma = 1.0",
                                         f"family = laplace\nmu = {mu}", 1))
        with pytest.warns(RuntimeWarning, match="overflow") if overflow else nullcontext():
            rc = main(["dispersion", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert re.fullmatch(r"laplace line moment of power 0 at lambda = \S+ leaves the "
                            rf"float range \({kind}\)", entries["error"])
        assert entries["error.type"] == "KernelError"

    @pytest.mark.parametrize("text, message, kind", [
        (BASE + "\n[wave]\nspacing = 0.1\ndomain_left = -5\ndomain_right = 5\n",
         "domain too small", "ValueError"),
        # the default [-40, 80] is 1500 kernel scales wide; Newton diverges at its first step
        (BASE.replace("sigma = 1.0", "sigma = 0.08")
         + "\n[wave]\nspeed_factor = 1.3\nspacing = 0.02\n",
         "the domain spans 1500 kernel scales (effective_scale 0.08); try a narrower domain",
         "ConvergenceFailure"),
        # a+ = a- uniform on [-1, 1] just above c*: Newton converges to a profile
        # that rises in its tail
        (BASE.replace("family = gaussian\nsigma = 1.0", "family = compact_uniform\nradius = 1.0")
         + "\n[wave]\nspeed_factor = 1.01\nspacing = 0.05\n",
         "profile is not non-increasing: it rises by 7.07e-08 from s = 11.95 to 12",
         "ConvergenceFailure"),
        # domains of one cell and of none: refused before the grid is indexed
        (BASE + "\n[wave]\nspacing = 0.9\ndomain_left = -1\ndomain_right = 0\n",
         "domain too small", "ValueError"),
        (BASE + "\n[wave]\nspacing = 5\ndomain_left = -1\ndomain_right = 0\n",
         "domain too small", "ValueError"),
    ], ids=["too-small", "too-wide", "non-monotone", "one-cell", "no-cell"])
    def test_wave_domain_size_writes_error(self, tmp_path, text, message, kind):
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(text)
        rc = main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert message in entries["error"]
        assert entries["error.type"] == kind

    @pytest.mark.parametrize("sigma", ["0.03", "0.08"])
    def test_under_resolved_wave_kernel_writes_kernel_error(self, tmp_path, sigma):
        # the line samples refuse what discretize refuses, before the solver can fail
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(BASE.replace("sigma = 1.0", f"sigma = {sigma}")
                            + "\n[wave]\nspacing = 0.1\n")
        rc = main(["wave", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert "below the grid spacing 0.1" in entries["error"]
        assert entries["error.type"] == "KernelError"

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

    @pytest.mark.parametrize("dt, horizon", [("0.4", "0.8"), ("3", "3"), ("0.03", "1")])
    def test_verify_refuses_what_simulate_refuses(self, tmp_path, dt, horizon):
        text = (BASE.replace("points = 128", "points = 256").replace("dt = 2e-3", f"dt = {dt}")
                .replace("horizon = 0.5", f"horizon = {horizon}"))
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(text + "\n[verify]\npairs = 2\n")
        errors = []
        for command in ("simulate", "verify"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 1
            entries = summary_dict(out)
            assert entries["error.type"] == "ValueError"
            errors.append(entries["error"])
        assert errors[0] == errors[1]

    def test_verify_steps_with_the_time_section(self, tmp_path, monkeypatch):
        seen = []

        def record(*args, **kwargs):
            seen.append(args[6])
            return harness(*args, **kwargs)

        harness = fronts.comparison_harness
        monkeypatch.setattr(fronts, "comparison_harness", record)
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(BASE.replace("horizon = 0.5", "horizon = 0.1\nfloor = 1e-12\n"
                                         "method = exp_euler")
                            + "\n[verify]\npairs = 2\n")
        assert main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        assert seen == [StepConfig(dt=2e-3, method="exp_euler", floor=1e-12)] * 2

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

    def test_blow_up_without_a_floor_names_the_floor(self, tmp_path, capsys):
        text = (BASE.replace("half_length = 20.0\npoints = 128",
                             "half_length = 200.0\npoints = 4096")
                .replace("dt = 2e-3\nhorizon = 0.5", "dt = 0.05\nhorizon = 60")
                .replace("kind = constant\nvalue = 0.5", "kind = bump\nwidth = 2.0\nheight = 0.5"))
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(text)
        assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        entries = summary_dict(tmp_path / "out")
        assert entries["error.type"] == "ConvergenceFailure"
        assert entries["error"].startswith("non-finite state after step ")
        assert entries["error"].endswith("set [time] floor, e.g. 1e-14")
        assert capsys.readouterr().err == ""  # numpy's overflow warnings are not printed

    @pytest.mark.parametrize("level", ["0", "-1", "1", "5"])
    def test_front_level_outside_the_plateau_writes_error(self, tmp_path, level):
        cfg_file = tmp_path / "f.cfg"
        cfg_file.write_text(BASE + f"\n[front]\nlevel = {level}\n")
        rc = main(["front", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        entries = summary_dict(tmp_path / "out")
        assert "must lie in (0, theta) = (0, 1)" in entries["error"]
        assert entries["error.type"] == "ValueError"
        assert "front.c_hat" not in entries
        assert not (tmp_path / "out" / "front_trace.csv").exists()

    @pytest.mark.parametrize("command, old, new", [
        ("simulate", "[grid]\ndimension = 1\nhalf_length = 20.0\npoints = 128\n", ""),
        ("dispersion", "family = gaussian\nsigma = 1.0", "family = laplace\nmu = 1e200"),
        ("wave", "value = 0.5", "value = 0.5\n\n[wave]\nspeed = 1.0"),
        ("front", "value = 0.5", "value = 0.5\n\n[front]\nlevel = 0"),
        ("verify", "kappa_plus = 2.0", "kappa_plus = 0.5"),
    ])
    def test_a_failed_runner_names_its_command(self, tmp_path, command, old, new):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(BASE.replace(old, new, 1))
        rc = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        entries = summary_dict(tmp_path / "out")
        assert rc == 1 and entries["error"] and entries["error.type"]
        assert list(entries)[:2] == ["seed", "scenario.command"]
        assert entries["scenario.command"] == command

    def test_equal_kernels_share_one_weights_object(self):
        for text, shared in ((BASE, True), (BASE.replace("sigma = 1.0", "sigma = 1.5", 1), False)):
            cfg = parse_config(text)
            wp, wm = _per_kernel(cli.discretize, cfg.kernel_plus, cfg.kernel_minus, cfg.grid)
            assert (wm is wp) == shared

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
    def test_simulate_discretizes_each_kernel_once(self, tmp_path, monkeypatch, sigma_minus,
                                                   samplings):
        kernels = []

        def counted(kernel, grid):
            kernels.append(kernel)
            return discretize(kernel, grid)

        discretize = cli.discretize
        monkeypatch.setattr(cli, "discretize", counted)
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(BASE.replace("sigma = 1.0\n\n[grid]",
                                         f"sigma = {sigma_minus}\n\n[grid]"))
        assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        assert len(kernels) == samplings

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


def _run(command: str, cfg_file: Path, out: Path) -> tuple[int, dict]:
    """Exit status and summary of one in-process CLI run; any escaping exception fails."""
    rc = main([command, "--config", str(cfg_file), "--out", str(out)])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert not (out / "summary.txt").exists()  # a refused config runs nothing
        return rc, {}
    entries = summary_dict(out)  # exit 0 or 1 leaves a summary
    if "error" in entries:
        assert rc == 1 and entries["error"] and entries["error.type"]
    return rc, entries


# canonical rates: the stability guard needs dt * 4 < 0.5.  The grid holds a
# bump grown by eight reaches of the sigma = 1 kernel, so a step can run on
# the occupied window; a centre near the edge makes the window wrap instead.
@settings(derandomize=True, max_examples=25, deadline=None)
@given(dimension=st.sampled_from([1, 2]),
       dt=st.sampled_from([0.01, 0.05, 0.1, 0.12, 0.125, 0.2, 0.4, 3.0]),
       steps=st.integers(1, 4), off_lattice=st.sampled_from([0.0, 0.0, 0.37]),
       method=st.sampled_from(["rk4", "exp_euler", "euler"]),
       floor=st.sampled_from([0.0, 1e-3, 1e-14]),
       center=st.sampled_from([0.0, 39.0, -38.5]))
def test_simulate_and_verify_configs_end_in_a_summary(tmp_path_factory, dimension, dt, steps,
                                                       off_lattice, method, floor, center):
    out = tmp_path_factory.mktemp("step")
    cfg_file = out / "s.cfg"
    cfg_file.write_text(
        "[model]\nkappa_plus = 2.0\nkappa_minus = 1.0\nmortality = 1.0\n"
        "[kernel_plus]\nfamily = gaussian\nsigma = 1.0\n"
        "[kernel_minus]\nfamily = gaussian\nsigma = 0.8\n"
        f"[grid]\ndimension = {dimension}\nhalf_length = 40.0\n"
        f"points = {512 if dimension == 1 else 128}\n"
        f"[time]\ndt = {dt!r}\nhorizon = {(steps + off_lattice) * dt!r}\n"
        f"method = {method}\nfloor = {floor!r}\n"
        "[initial]\nkind = bump\nwidth = 3.0\nheight = 0.5\n"
        f"center = {' '.join([repr(center)] * dimension)}\n"
        "[verify]\npairs = 2\n")
    refusals = []
    for command in ("simulate", "verify"):
        rc, entries = _run(command, cfg_file, out / command)
        refusals.append((rc == 2, entries.get("error"), entries.get("error.type")))
    assert refusals[0] == refusals[1]


RATES = ["-1.0", "0.0", "nan", "inf", "0.5", "2.0"]
# one edit of a valid config: a model rate, the dispersion direction or a front value
EDITS = st.one_of(
    st.tuples(st.just("model"), st.sampled_from(["kappa_plus", "kappa_minus", "mortality"]),
              st.sampled_from(RATES)),
    st.tuples(st.just("dispersion"), st.just("direction"),
              st.sampled_from([None, "1", "1 0", "1 1", "0 0", "nan"])),
    st.tuples(st.just("front"), st.just("level"), st.sampled_from([None, "0.25", "nan", "inf"])),
    st.tuples(st.just("front"), st.just("shrink"), st.sampled_from([None, "0.5", "1.5", "0"])),
)


# an exception escaping main fails the example: that is the traceback a CLI run would print
@settings(derandomize=True, max_examples=50, deadline=None)
@given(command=st.sampled_from(["dispersion", "front"]), dimension=st.sampled_from([1, 2]),
       family=st.sampled_from(["gaussian\nsigma = 1.0", "laplace\nmu = 1.0"]), edit=EDITS)
def test_dispersion_and_front_configs_end_in_a_summary(tmp_path_factory, command, dimension,
                                                       family, edit):
    sections = {"model": {"kappa_plus": "2.0", "kappa_minus": "1.0", "mortality": "1.0"},
                "kernel_plus": {"family": family},
                "kernel_minus": {"family": "gaussian", "sigma": "1.0"},
                "grid": {"dimension": dimension, "half_length": "8.0", "points": 64 // dimension},
                "time": {"dt": "0.02", "horizon": "0.2"},
                "initial": {"kind": "bump", "width": "2.0", "height": "0.5"},
                "dispersion": {}, "front": {"n_directions": "4"}}
    section, key, value = edit
    sections[section][key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in
                                            entries.items() if value is not None)
                   for name, entries in sections.items())
    out = tmp_path_factory.mktemp(command)
    cfg_file = out / "c.cfg"
    cfg_file.write_text(text)
    _run(command, cfg_file, out / "run")


def _interpreter(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this ``nlkpp``, its environment
    updated with ``env``; it must exit 0."""
    src = str(Path(nlkpp.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


def _run_python(code: str) -> str:
    """Last line that ``code`` prints in a fresh interpreter importing this ``nlkpp``."""
    return _interpreter(["-c", code]).stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    code = ("import sys, nlkpp.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "[]"


def test_fft_pair_on_a_prime_axis_loads_no_scipy_fft():
    # 97 is prime: numpy's pocketfft transforms it too
    code = ("import sys\nimport numpy as np\nfrom nlkpp.kernels import _irfft, _rfft\n"
            "for shape in ((97,), (97, 128)):\n"
            "    _irfft(_rfft(np.ones(shape), shape), shape)\n"
            "print('scipy.fft' in sys.modules)")
    assert _run_python(code) == "False"


# a 2-D gaussian simulate at a small size
GAUSSIAN_2D = (BASE.replace("dimension = 1", "dimension = 2").replace("points = 128", "points = 64")
               .replace("half_length = 20.0", "half_length = 16.0")
               .replace("dt = 2e-3\nhorizon = 0.5", "dt = 0.05\nhorizon = 1.0")
               .replace("snapshot_stride = 125", "snapshot_stride = 10"))

# front-2d at that size: compact_uniform a+, gaussian a-
FRONT_2D = (GAUSSIAN_2D.replace("family = gaussian\nsigma = 1.0",
                                "family = compact_uniform\nradius = 2.0", 1)
            .replace("kind = constant\nvalue = 0.5", "kind = bump\nwidth = 2.0\nheight = 0.5")
            + "\n[front]\nn_directions = 4\n")

# the scipy subpackages a run may load
SCIPY_PARTS = ("scipy.fft", "scipy.special", "scipy.integrate", "scipy.optimize",
               "scipy.linalg", "scipy.stats", "scipy.signal")


@pytest.mark.parametrize("command, text, loaded", [
    ("simulate", BASE, "0 []"),
    ("simulate", LAPLACE, "0 []"),
    ("wave", BASE + "\n[wave]\nspeed_factor = 1.3\nspacing = 0.1\n"
                    "domain_left = -40\ndomain_right = 80\n", "0 []"),
    ("wave", LAPLACE + "\n[wave]\nspeed_factor = 1.3\nspacing = 0.1\n"
                       "domain_left = -80\ndomain_right = 80\n", "0 []"),
    ("simulate", GAUSSIAN_2D, "0 []"),
    ("front", FRONT_2D, "0 []"),
    ("wave", LAPLACE.replace("dimension = 1", "dimension = 2")
     + "\n[wave]\nspeed_factor = 1.3\nspacing = 0.1\ndomain_left = -100\ndomain_right = 80\n",
     "0 ['scipy.special']"),
], ids=["gaussian-simulate", "laplace-simulate", "gaussian-wave", "laplace-wave",
        "gaussian-simulate-2d", "front-2d", "laplace-wave-2d"])
def test_run_loads_only_the_scipy_it_calls(tmp_path, command, text, loaded):
    """A simulate, wave or front with closed-form kernels needs no scipy: the 2-D
    transforms of 5-smooth planes run on numpy, and so do the chord's Bessel series.
    A 2-D laplace wave loads ``scipy.special`` alone, for its marginal's K_1: the
    marginal's tail is the kernel's closed form, no quadrature."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    argv = [command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]
    code = ("import sys\nfrom nlkpp.cli import main\n"
            f"rc = main({argv!r})\n"
            f"print(rc, sorted(m for m in {SCIPY_PARTS!r} if m in sys.modules))")
    assert _run_python(code) == loaded


class TestMoreScenarios:
    def test_dimension_three_rejected(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(BASE.replace("dimension = 1", "dimension = 3"))

    def test_verify_necessity_mode(self, tmp_path):
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text(BASE.replace("points = 128", "points = 1024")
                            .replace("half_length = 20.0", "half_length = 10.0")
                            .replace("dt = 2e-3", "dt = 1e-3")
                            + "\n[verify]\nsuite = necessity\n")
        rc = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        entries = summary_dict(tmp_path / "out")
        assert float(entries["verify.max_overshoot_above_theta"]) > 1e-4

    def test_suite_argument_runs_necessity_without_the_key(self, tmp_path):
        # no [verify] section: the argument alone picks the counterexample
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text(BASE.replace("points = 128", "points = 1024")
                            .replace("half_length = 20.0", "half_length = 10.0")
                            .replace("dt = 2e-3", "dt = 1e-3"))
        rc = main(["verify", "necessity", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")])
        entries = summary_dict(tmp_path / "out")
        assert rc == 0, entries.get("error")
        assert entries["verify.suite"] == "necessity"
        assert float(entries["verify.max_overshoot_above_theta"]) > 1e-4
        assert "verify.pairs" not in entries

    def test_verify_necessity_samples_only_kernel_plus(self, tmp_path):
        # a- is the run's own spike: a [kernel_minus] the grid cannot resolve is never sampled
        text = (BASE.replace("points = 128", "points = 256")
                .replace("sigma = 1.0\n\n[grid]", "sigma = 0.05\n\n[grid]")
                + "\n[verify]\nsuite = necessity\n")
        assert "sigma = 0.05" in text
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text(text)
        rc = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        entries = summary_dict(tmp_path / "out")
        assert rc == 0, entries.get("error")
        assert entries["verify.suite"] == "necessity"
        assert "error" not in entries

    def test_verify_necessity_requires_a_grid(self, tmp_path):
        """The suite fails, by the key or by ``verify necessity``, and its summary names it."""
        grid = "[grid]\ndimension = 1\nhalf_length = 20.0\npoints = 128\n"
        cfg_file = tmp_path / "n.cfg"
        for argv, verify in ((["verify"], "\n[verify]\nsuite = necessity\n"),
                             (["verify", "necessity"], "")):
            cfg_file.write_text(BASE.replace(grid, "") + verify)
            rc = main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
            assert rc == 1
            entries = summary_dict(tmp_path / "out")
            assert list(entries)[:5] == ["seed", "scenario.command", "verify.suite", "error",
                                         "error.type"]
            assert entries["verify.suite"] == "necessity"
            assert entries["error"] == "this scenario requires a [grid] section"
            assert entries["error.type"] == "NlkppError"

    def test_split_snapshots_hold_the_rows_of_snapshots_csv(self, tmp_path):
        cfg_file = tmp_path / "s.cfg"
        for split in ("false", "true"):
            cfg_file.write_text(BASE + f"\n[output]\nsplit_snapshots = {split}\n")
            out = tmp_path / split
            assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        whole = (tmp_path / "false" / "snapshots.csv").read_text().splitlines()
        parts = sorted((tmp_path / "true").glob("snapshot_*.csv"))
        # snapshots at steps 0, 125 and 250 of the 250-step run
        assert [p.name for p in parts] == [f"snapshot_{i:04d}.csv" for i in range(3)]
        assert not (tmp_path / "true" / "snapshots.csv").exists()
        split_rows = []
        for part in parts:
            header, *rows = part.read_text().splitlines()
            assert header == whole[0]
            split_rows += rows
        assert split_rows == whole[1:]
        assert ((tmp_path / "true" / "summary.txt").read_bytes()
                == (tmp_path / "false" / "summary.txt").read_bytes())

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_snapshot_rows_are_each_field_in_17_digits(self, tmp_path, dimension):
        text = BASE if dimension == 1 else GAUSSIAN_2D
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(text)
        assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        cfg = parse_config(text)
        traj = simulate(cfg.params,
                        *_per_kernel(cli.discretize, cfg.kernel_plus, cfg.kernel_minus, cfg.grid),
                        build_initial(cfg, cfg.grid), cfg.step, cfg.time.horizon,
                        snapshot_stride=cfg.time.snapshot_stride)
        x = cfg.grid.axis_coords()
        # the reference: every field of every row formatted on its own, as _fmt formats a float
        expected = [",".join("%.17g" % v for v in (f.time, *x[list(idx)], f.values[idx]))
                    for f in traj.snapshots for idx in np.ndindex(f.values.shape)]
        assert (tmp_path / "out" / "snapshots.csv").read_text().splitlines()[1:] == expected

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


class TestOverridesAndExitStatus:
    """The command-line overrides of the config, and the exits that no error causes."""

    def _run(self, tmp_path, argv, text, name="out"):
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(text)
        out = tmp_path / name
        rc = main([*argv, "--config", str(cfg_file), "--out", str(out)])
        return rc, summary_dict(out), out

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_directory_that_cannot_be_made_exits_2(self, tmp_path, capsys, below):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(BASE)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / below if below else taken
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {str(out)!r}: ")
        assert err.count("\n") == 1
        assert taken.read_text() == "a file\n"

    def test_seed_option_overrides_the_config(self, tmp_path):
        text = BASE + "\n[verify]\npairs = 2\n"
        rc_option, entries, by_option = self._run(tmp_path, ["verify", "--seed", "5"], text,
                                                  "option")
        rc_config, _, by_config = self._run(tmp_path, ["verify"],
                                            text.replace("seed = 11", "seed = 5"), "config")
        assert rc_option == rc_config == 0
        assert entries["seed"] == "5"
        assert ((by_option / "summary.txt").read_bytes()
                == (by_config / "summary.txt").read_bytes())

    @pytest.mark.parametrize("command", COMMANDS)
    def test_threads_option_exits_2(self, tmp_path, capsys, command):
        """A run has no thread count to set: no command takes ``--threads`` (given as
        one word, so that ``verify`` does not read its value as a suite)."""
        cfg_file = tmp_path / "t.cfg"
        cfg_file.write_text(BASE)
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg_file), "--threads=2",
                  "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads=2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1", "2", "0", "-1", "two"])
    def test_threads_key_exits_2_with_its_line(self, tmp_path, capsys, value):
        """``[scenario] threads`` is an unknown key whatever its value, the counts that
        were once taken included."""
        text = BASE.replace("seed = 11", f"seed = 11\nthreads = {value}")
        lineno = text.splitlines().index(f"threads = {value}") + 1
        cfg_file = tmp_path / "t.cfg"
        cfg_file.write_text(text)
        assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: line {lineno}: unknown key 'threads' in section [scenario]\n")
        assert not (tmp_path / "out").exists()

    def test_suite_argument_overrides_the_config(self, tmp_path, capsys):
        text = BASE + "\n[verify]\nsuite = comparison\npairs = 2\n"
        rc, entries, _ = self._run(tmp_path, ["verify", "comparison"], text, "given")
        assert rc == 0 and entries["verify.suite"] == "comparison"
        with pytest.raises(SystemExit) as info:
            self._run(tmp_path, ["verify", "mystery"], text, "unknown")
        assert info.value.code == 2
        assert "argument suite: invalid choice: 'mystery'" in capsys.readouterr().err
        assert not (tmp_path / "unknown").exists()

    @pytest.mark.parametrize("argv", [["verify"], ["verify", "comparison"]])
    def test_unknown_suite_in_the_config_exits_2_with_its_line(self, tmp_path, capsys, argv):
        text = BASE + "\n[verify]\nsuite = mystery\npairs = 2\n"
        lineno = text.splitlines().index("suite = mystery") + 1
        with pytest.raises(ConfigError, match=f"line {lineno}: bad value for 'suite': "
                                              "'mystery' \\(unknown suite; expected one of "):
            parse_config(text)
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(text)
        assert main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, verify", [
        (["verify"], "suite = necessity\npairs = 7"),
        (["verify", "necessity"], "pairs = 7"),
        (["verify", "necessity"], "suite = comparison\npairs = 7"),
    ], ids=["key", "argument", "argument-over-key"])
    def test_a_key_the_suite_does_not_read_exits_2_with_its_line(self, tmp_path, capsys,
                                                                 argv, verify):
        text = BASE + f"\n[verify]\n{verify}\n"
        lineno = text.splitlines().index("pairs = 7") + 1
        message = f"line {lineno}: verify suite 'necessity' does not read 'pairs'"
        with pytest.raises(ConfigError, match=message):
            parse_config(text, "verify", suite=argv[1] if argv[1:] else None)
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text(text)
        assert main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite", SUITES)
    def test_each_suite_reads_its_keys(self, suite):
        """Under each suite a ``[verify]`` key is taken if the suite reads it and refused
        at its line if not."""
        for key in config._KEYS["verify"]:
            if key == "suite":
                continue
            text = BASE + f"\n[verify]\nsuite = {suite}\n{key} = 3\n"
            if key in config._SUITE_KEYS[suite]:
                assert getattr(parse_config(text, "verify").verify, key) == 3
            else:
                lineno = text.splitlines().index(f"{key} = 3") + 1
                with pytest.raises(ConfigError, match=re.escape(
                        f"line {lineno}: verify suite {suite!r} does not read {key!r}")):
                    parse_config(text, "verify")

    def test_suite_argument_replaces_the_key(self):
        text = BASE + "\n[verify]\nsuite = necessity\npairs = 7\n"
        cfg = parse_config(text, "verify", suite="comparison")
        assert (cfg.verify.suite, cfg.verify.pairs) == ("comparison", 7)
        message = re.escape(f"unknown suite 'bogus'; expected one of {SUITES}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(text, "verify", suite="bogus")

    def test_necessity_without_overshoot_exits_1(self, tmp_path):
        # one step of 1e-3 overshoots theta by 8.4e-5, short of the 1e-4 it must show
        text = (BASE.replace("points = 128", "points = 1024")
                .replace("half_length = 20.0", "half_length = 10.0")
                .replace("dt = 2e-3\nhorizon = 0.5", "dt = 1e-3\nhorizon = 1e-3")
                + "\n[verify]\nsuite = necessity\n")
        rc, entries, _ = self._run(tmp_path, ["verify"], text)
        assert rc == 1
        assert entries["verify.violations"] == "1"
        assert 0 < float(entries["verify.max_overshoot_above_theta"]) < 1e-4
        assert "error" not in entries

    def test_start_outside_the_strip_exits_1(self, tmp_path):
        # theta = 1: a constant start at 2 theta decays toward theta from above
        rc, entries, _ = self._run(tmp_path, ["simulate"], BASE.replace("value = 0.5",
                                                                        "value = 2.0"))
        assert rc == 1
        assert entries["simulate.strip_ok"] == "false"
        assert entries["simulate.global_max"] == "2"
        assert "error" not in entries

    def test_no_initial_section_starts_at_half_theta(self, tmp_path):
        text = BASE[:BASE.index("[initial]")]
        rc, entries, out = self._run(tmp_path, ["simulate"], text)
        assert rc == 0
        data = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1)
        assert np.all(data[data[:, 0] == 0.0, 2] == 0.5)
        assert entries["simulate.global_min"] == "0.5"

    def test_front_with_a_heavy_tail_has_no_front_set(self, tmp_path):
        text = (BASE.replace("family = gaussian\nsigma = 1.0", "family = power_tail\nq = 4.0", 1)
                .replace("kind = constant\nvalue = 0.5", "kind = bump\nwidth = 2.0\nheight = 0.5"))
        rc, entries, out = self._run(tmp_path, ["front"], text)
        assert rc == 0
        assert entries["front.c_star_max"] == entries["front.c_star_min"] == "inf"
        assert (out / "front_trace.csv").exists()
        assert not (out / "interior_deficit.csv").exists()


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

    def test_decreasing_profile_file_writes_error(self, tmp_path):
        # 1 on the left falling to 0 on the right, listed from the right
        profile_csv = tmp_path / "decreasing.csv"
        profile_csv.write_text("s,psi\n10,0\n0,0.5\n-10,1\n")
        sim_cfg = tmp_path / "s.cfg"
        sim_cfg.write_text(BASE.replace("kind = constant\nvalue = 0.5",
                                        f"kind = profile-file\npath = {profile_csv}"))
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "sim")]) == 1
        entries = summary_dict(tmp_path / "sim")
        assert entries["error.type"] == "ConfigError"
        assert "needs increasing s; data row 2 has s = 0 after 10" in entries["error"]
        assert not (tmp_path / "sim" / "snapshots.csv").exists()

    def test_one_row_profile_file_gives_constant_start(self, tmp_path):
        profile_csv = tmp_path / "one_row.csv"
        profile_csv.write_text("s,psi\n0.0,0.25\n")
        sim_cfg = tmp_path / "s.cfg"
        sim_cfg.write_text(BASE.replace("kind = constant\nvalue = 0.5",
                                        f"kind = profile-file\npath = {profile_csv}"))
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "sim")]) == 0
        data = np.loadtxt(tmp_path / "sim" / "snapshots.csv", delimiter=",", skiprows=1)
        assert np.all(data[data[:, 0] == 0.0, 2] == 0.25)
