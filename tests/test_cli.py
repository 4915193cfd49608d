import copy
import json
import math
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedphase import cli, csvformat, hydro, propagator
from dressedphase.cli import (
    KINDS,
    ExperimentConfig,
    compare,
    load_config,
    load_config_dict,
    main,
    run,
)
from dressedphase.errors import ConfigError, EdgeLeakageError, ValidationError
from oracles import csv_tables_loop, write_csv_loop

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def dressed_config(**overrides):
    cfg = {
        "kind": "dressed",
        "system": {"omega_g": 0.0, "omega_e": 5.0, "mu": 1.0},
        "field": {
            "carrier": 5.0,
            "envelope": {"shape": "constant", "peak": 2.0},
            "phase": {"shape": "constant", "phi0": 0.0},
        },
        "grid": {"t0": 0.0, "t1": 5.0, "samples": 101},
        "dressed": {"branch": "ground", "phi_g": 0.3, "phi_e": 0.0, "compare": False, "n_max": 2},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_minimal_config_fills_defaults(tmp_path):
    path = write_config(tmp_path, dressed_config())
    config = load_config(path)
    assert isinstance(config, ExperimentConfig)
    assert config.params["n_max"] == 2
    # Integrator settings apply, and default, only where the run propagates.
    assert config.integrator is None
    compared = dressed_config()
    compared["dressed"]["compare"] = True
    assert load_config_dict(compared).integrator.rel_tol == 1e-9


def test_validation_names_gamma_re(tmp_path):
    cfg = dressed_config(system={"omega_g": 0.0, "omega_e": 5.0, "gamma_re": -1.0})
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, cfg))
    assert any("gamma_re" in p for p in err.value.problems)


def test_validation_names_missing_delay():
    cfg = {
        "kind": "interfere",
        "system": {"omega_g": 0.0, "omega_e": 5.0},
        "field": {
            "carrier": 5.0,
            "envelope": {"shape": "gaussian", "peak": 0.02, "center": 0.0, "width": 2.0},
        },
        "interfere": {"n_delta": 16},
    }
    with pytest.raises(ConfigError) as err:
        load_config_dict(cfg)
    assert any("interfere.delay" in p for p in err.value.problems)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    with pytest.raises(ConfigError, match=r"parse error \(line 1"):
        load_config(path)


def test_kind_block_must_match(tmp_path):
    cfg = dressed_config()
    cfg["adiabatic"] = {"n_max": 1}
    with pytest.raises(ConfigError, match="exactly one kind-specific block"):
        load_config(write_config(tmp_path, cfg))


def test_dressed_run_static_resonant(tmp_path):
    config = load_config_dict(dressed_config())
    summary = run(config, tmp_path / "out")
    assert summary.metrics["adiabatic_margin"] == 0.0
    data = np.genfromtxt(tmp_path / "out" / "dressed.csv", delimiter=",", names=True)
    # static resonant: Phi_G_r = phi_g + (omega_g - Omega/2) t, linear in t
    expected = 0.3 - data["t"]
    assert np.max(np.abs(data["phi_G_r_re"] - expected)) < 1e-12
    assert math.isfinite(summary.duration_s)


def test_adiabatic_run_constant_pulse(tmp_path):
    cfg = {
        "kind": "adiabatic",
        "system": {"omega_g": 0.0, "omega_e": 6.0},
        "field": {"carrier": 5.0, "envelope": {"shape": "constant", "peak": 1.0}},
        "grid": {"t0": 0.0, "t1": 10.0, "samples": 101},
        "adiabatic": {"n_max": 3},
    }
    summary = run(load_config_dict(cfg), tmp_path / "out")
    assert summary.metrics["margin"] == 0.0
    rows = np.genfromtxt(tmp_path / "out" / "adiabatic.csv", delimiter=",", names=True)
    assert np.all(rows["max_ratio"] == 0.0)


def test_interfere_run_visibility(tmp_path):
    peak = 0.04 * math.pi / (2.0 * math.sqrt(math.pi))
    cfg = {
        "kind": "interfere",
        "system": {"omega_g": 0.0, "omega_e": 5.0, "mu": 1.0},
        "field": {
            "carrier": 5.0,
            "envelope": {"shape": "gaussian", "peak": peak, "center": 0.0, "width": 2.0},
        },
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-14},
        "interfere": {"delay": 30.0, "n_delta": 128},
    }
    summary = run(load_config_dict(cfg), tmp_path / "out")
    assert summary.metrics["visibility"] >= 0.999
    data = np.genfromtxt(tmp_path / "out" / "interfere.csv", delimiter=",", names=True)
    assert list(data.dtype.names) == ["delta_rad", "P_e"]
    assert data["P_e"].size == 128


def test_propagate_and_hydro_runs(tmp_path):
    prop_cfg = {
        "kind": "propagate",
        "system": {"omega_g": 0.0, "omega_e": 5.0, "mu": 1.0},
        "field": {"carrier": 5.0, "envelope": {"shape": "constant", "peak": 1.0}},
        "grid": {"t0": 0.0, "t1": 4.0 * math.pi, "samples": 201},
        "propagate": {"engine": "rwa"},
    }
    summary = run(load_config_dict(prop_cfg), tmp_path / "p")
    assert summary.metrics["final_P_e"] == pytest.approx(0.0, abs=1e-9)

    hydro_cfg = {
        "kind": "hydro",
        "hydro": {
            "x_min": -20.0,
            "dx": 40.0 / 512,
            "n_points": 512,
            "mass": 1.0,
            "potential": {"shape": "free"},
            "packet": {"center": -3.0, "sigma": 1.5, "k0": 1.0},
            "t_final": 1.0,
            "dt": 0.02,
        },
    }
    summary = run(load_config_dict(hydro_cfg), tmp_path / "h")
    assert summary.metrics["norm_drift"] < 1e-12
    data = np.genfromtxt(tmp_path / "h" / "hydro.csv", delimiter=",", names=True)
    assert list(data.dtype.names) == ["t", "x", "R", "S", "U", "p"]


def test_compare_mode_emits_error_csv(tmp_path):
    tau = 150.0
    cfg = {
        "kind": "dressed",
        "system": {"omega_g": 0.0, "omega_e": 12.0},
        "field": {
            "carrier": 2.0,
            "envelope": {"shape": "gaussian", "peak": 1.0, "center": tau, "width": tau},
        },
        "grid": {"t0": 0.0, "t1": 2 * tau, "samples": 1201},
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-13},
        "dressed": {"branch": "ground", "compare": True, "n_max": 1},
    }
    summary = compare(load_config_dict(cfg), tmp_path / "out")
    margin = summary.metrics["adiabatic_margin"]
    assert summary.metrics["max_amplitude_error"] <= 10.0 * margin
    assert (tmp_path / "out" / "compare.csv").exists()
    plain = dressed_config()
    with pytest.raises(ConfigError, match="compare"):
        compare(load_config_dict(plain), tmp_path / "nope")


def test_cli_exit_codes(tmp_path):
    good = write_config(tmp_path, dressed_config(), "good.json")
    assert main(["run", "--config", str(good), "--out", str(tmp_path / "o1"), "--quiet"]) == 0

    bad = write_config(
        tmp_path,
        dressed_config(system={"omega_g": 0.0, "omega_e": 5.0, "gamma_re": -1.0}),
        "bad.json",
    )
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o2"), "--quiet"]) == 1

    floor = dressed_config()
    floor["field"] = {"carrier": 5.0, "envelope": {"shape": "constant", "peak": 0.0}}
    floor_path = write_config(tmp_path, floor, "floor.json")
    assert main(["run", "--config", str(floor_path), "--out", str(tmp_path / "o3"), "--quiet"]) == 2


@pytest.mark.parametrize(
    "config,envelope,code",
    [
        ("adiabatic", {"width": 6e302}, 0),
        ("dressed_compare", {"width": 6e302}, 0),
        ("adiabatic", {"width": 6e-298}, 2),
        ("adiabatic", {"center": 6e302}, 2),
        ("adiabatic", {"peak": 1e300}, 0),
    ],
    ids=["adiabatic_wide", "dressed_wide", "adiabatic_narrow", "adiabatic_far", "adiabatic_strong"],
)
def test_extreme_gaussian_runs_without_warnings(tmp_path, capsys, config, envelope, code):
    # A width power past the float range divides each derivative to 0, its
    # limit, and so does a power of the Rabi frequency past it; a pulse that
    # misses the grid is the documented below-floor error.
    cfg = json.loads((DEMO_CONFIGS / f"{config}.json").read_text())
    cfg["field"]["envelope"].update(envelope)
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: dressed: field below floor") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        return
    metrics = json.loads((tmp_path / "o" / "summary.json").read_text())["metrics"]
    assert all(math.isfinite(value) for value in metrics.values())
    if "peak" in envelope:
        # |Omega|^k passes the float range from k = 2: those ratios are 0.0,
        # and the ratios over |dw~| alone stay.
        n, k, ratio = np.loadtxt(tmp_path / "o" / "adiabatic.csv", delimiter=",", skiprows=1).T
        assert np.all(ratio[k >= 2] == 0.0) and np.all(ratio[k == 0] > 0.0)
        return
    assert metrics["margin" if config == "adiabatic" else "adiabatic_margin"] == 0.0


def test_non_finite_literal_exits_1(tmp_path, capsys):
    text = json.dumps(dressed_config()).replace('"mu": 1.0', '"mu": NaN')
    path = tmp_path / "nan.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "validation: system.mu: must be finite" in capsys.readouterr().err
    for literal in ("Infinity", "-Infinity"):
        cfg = json.loads(text.replace("NaN", "1.0").replace('"peak": 2.0', f'"peak": {literal}'))
        with pytest.raises(ConfigError, match=r"field\.envelope\.peak: must be finite"):
            load_config_dict(cfg)


def _interfere_config(n_delta):
    return {
        "kind": "interfere",
        "system": {"omega_g": 0.0, "omega_e": 5.0},
        "field": {
            "carrier": 5.0,
            "envelope": {"shape": "gaussian", "peak": 0.02, "center": 0.0, "width": 2.0},
        },
        "interfere": {"delay": 30.0, "n_delta": n_delta},
    }


def _adiabatic_config(n_max):
    cfg = dressed_config(kind="adiabatic", adiabatic={"n_max": n_max})
    del cfg["dressed"]
    return cfg


@pytest.mark.parametrize(
    "cfg,field_name",
    [
        (_interfere_config("many"), "interfere.n_delta"),
        (_interfere_config(0), "interfere.n_delta"),
        (_interfere_config(2.5), "interfere.n_delta"),
        (_interfere_config(True), "interfere.n_delta"),
        (dressed_config(dressed={"n_max": 5}), "dressed.n_max"),
        (_adiabatic_config(5), "adiabatic.n_max"),
    ],
    ids=["n_delta_string", "n_delta_zero", "n_delta_float", "n_delta_bool", "dressed_n_max_5",
         "adiabatic_n_max_5"],
)
def test_integer_parameter_exits_1(tmp_path, capsys, cfg, field_name):
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any(p.startswith(f"validation: {field_name}: must be an integer") for p in err.value.problems)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert f"validation: {field_name}: must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def hydro_config():
    return {
        "kind": "hydro",
        "hydro": {
            "x_min": -20.0,
            "dx": 40.0 / 512,
            "n_points": 512,
            "potential": {"shape": "harmonic", "omega0": 0.5},
            "packet": {"center": -3.0, "sigma": 1.5, "k0": 1.0},
            "t_final": 1.0,
            "dt": 0.02,
        },
    }


def propagate_config():
    cfg = dressed_config(kind="propagate", propagate={"engine": "rwa"})
    del cfg["dressed"]
    return cfg


def _replace(cfg, path, value):
    """A copy of ``cfg`` with the value at the dotted ``path`` set."""
    cfg = copy.deepcopy(cfg)
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    return cfg


# Malformed values, each reported at load time at the field named.  Without
# that check each one ran a different experiment, failed only inside run, or
# ended in a traceback.
MALFORMED = {
    "samples_fraction": (dressed_config(), "grid.samples", 2401.9, "grid.samples"),
    "t1_string": (dressed_config(), "grid.t1", "1200", "grid.t1"),
    "peak_string": (dressed_config(), "field.envelope.peak", "1.0", "field.envelope.peak"),
    "peak_bool": (dressed_config(), "field.envelope.peak", True, "field.envelope.peak"),
    "rel_tol_string": (dressed_config(), "integrator", {"rel_tol": "1e-9"}, "integrator.rel_tol"),
    "phi_g_string": (dressed_config(), "dressed.phi_g", "0.3", "dressed.phi_g"),
    "compare_string": (dressed_config(), "dressed.compare", "no", "dressed.compare"),
    "stride_negative": (hydro_config(), "hydro.csv_stride", -3, "hydro.csv_stride"),
    "stride_fraction": (hydro_config(), "hydro.csv_stride", 2.5, "hydro.csv_stride"),
    "stride_string": (hydro_config(), "hydro.csv_stride", "x", "hydro.csv_stride"),
    "packet_unknown_key": (hydro_config(), "hydro.packet.width", 2.0, "hydro.packet.width"),
    "potential_box": (hydro_config(), "hydro.potential.shape", "box", "hydro.potential.shape"),
    "c_g_string": (propagate_config(), "propagate.c_g", ["a", 0], "propagate.c_g"),
    "sigma_string": (hydro_config(), "hydro.packet.sigma", "wide", "hydro.packet.sigma"),
    "omega0_string": (hydro_config(), "hydro.potential.omega0", "fast", "hydro.potential.omega0"),
    "width_negative": (dressed_config(), "field.envelope.width", -1, "field.envelope.width"),
    "harmonic_without_omega0": (hydro_config(), "hydro.potential", {"shape": "harmonic"},
                                "hydro.potential.omega0"),
    "integrator_not_object": (dressed_config(), "integrator", 5, "integrator"),
    "mu_beyond_float": (dressed_config(), "system.mu", 10**400, "system.mu"),
    "delay_negative": (_interfere_config(16), "interfere.delay", -1.0, "interfere.delay"),
    "pulse_pair_constant_envelope": (_interfere_config(16), "field.envelope.shape", "constant",
                                     "field.envelope.shape"),
    "n_points_1000": (hydro_config(), "hydro.n_points", 1000, "hydro.n_points"),
    "dx_zero": (hydro_config(), "hydro.dx", 0.0, "hydro.dx"),
    "dt_zero": (hydro_config(), "hydro.dt", 0.0, "hydro.dt"),
    "t_final_negative": (hydro_config(), "hydro.t_final", -1.0, "hydro.t_final"),
    "dt_not_dividing": (hydro_config(), "hydro.dt", 0.03, "hydro.dt"),
    # 5e13 frames of 512 points: far past the bound on the frames kept.
    "dt_frames_unbounded": (hydro_config(), "hydro.dt", 2e-14, "hydro.dt"),
    # t_final/dt overflows to inf.
    "dt_subnormal": (hydro_config(), "hydro.dt", 1e-310, "hydro.dt"),
    # One step gives 2 frames; the residuals' centered time derivative needs 3.
    "t_final_one_step": (hydro_config(), "hydro.t_final", 0.02, "hydro.t_final"),
    "sigma_negative": (hydro_config(), "hydro.packet.sigma", -1.5, "hydro.packet.sigma"),
    "hydro_with_integrator": (hydro_config(), "integrator", {"rel_tol": 1e-3}, "integrator"),
    "adiabatic_with_integrator": (_adiabatic_config(2), "integrator", {"rel_tol": 1e-3}, "integrator"),
    "dressed_integrator_without_compare": (dressed_config(), "integrator", {"rel_tol": 1e-3}, "integrator"),
    "dressed_t0_nonzero": (dressed_config(), "grid.t0", 1.0, "grid.t0"),
    "t1_not_above_t0": (dressed_config(), "grid.t1", 0.0, "grid.t1"),
    "samples_two": (dressed_config(), "grid.samples", 2, "grid.samples"),
    # The initial packet and the potential are built on the grid at load.
    "sigma_square_underflows": (hydro_config(), "hydro.packet.sigma", 1e-300, "hydro.packet.sigma"),
    "sigma_square_overflows": (hydro_config(), "hydro.packet.sigma", 1e300, "hydro.packet.sigma"),
    "packet_off_the_grid": (hydro_config(), "hydro.packet.center", 1e6, "hydro.packet"),
    "packet_at_the_edge": (hydro_config(), "hydro.packet.sigma", 30.0, "hydro.packet"),
    "packet_not_finite": (hydro_config(), "hydro.packet.k0", 1e308, "hydro.packet"),
    "potential_overflows": (hydro_config(), "hydro.potential.omega0", 1e200, "hydro.potential.omega0"),
    # Finite, but the half-step phase 0.5*dt*max|V| ~ 2e300 rad is rounding noise.
    "potential_phase_unresolved": (hydro_config(), "hydro.potential.omega0", 1e150,
                                   "hydro.potential.omega0"),
    "c_g_norm_overflows": (propagate_config(), "propagate.c_g", [1e300, 0.0], "propagate.c_g"),
    # t1 - t0 overflows: rejected before numpy samples the grid and warns.
    "grid_span_overflows": (propagate_config(), "grid", {"t0": -1e308, "t1": 1e308, "samples": 501}, "grid.t1"),
    # A finite span too short for its samples in floats: they repeat.
    "grid_samples_repeat": (propagate_config(), "grid", {"t0": 1e300, "t1": 1.0000000000000011e300, "samples": 501},
                            "grid"),
}


@pytest.mark.parametrize("base,path,value,field_name", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_config_exits_1_at_load(tmp_path, capsys, base, path, value, field_name):
    config_path = write_config(tmp_path, _replace(base, path, value))
    with pytest.raises(ConfigError) as err:
        load_config(config_path)
    assert any(p.startswith(f"validation: {field_name}: ") for p in err.value.problems)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert f"error: cli: validation: {field_name}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "raw,problem",
    [
        ([dressed_config()], "validation: config: must be a JSON object"),
        ("dressed", "validation: config: must be a JSON object"),
        (dressed_config(kind="bogus"), f"validation: kind: must be one of {KINDS}"),
        ({"dressed": {}}, f"validation: kind: must be one of {KINDS}"),
    ],
    ids=["list", "string", "unknown_kind", "no_kind"],
)
def test_config_must_be_an_object_of_a_known_kind(tmp_path, capsys, raw, problem):
    path = write_config(tmp_path, raw)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == [problem]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: cli: {problem}\n"
    assert not (tmp_path / "o").exists()


def test_a_build_problem_naming_no_field_is_reported_at_the_section():
    # No builder of the config schema raises such a message today; a new one
    # would be reported at its section.
    def build(**values):
        raise ValidationError("Builder: the values do not fit together")

    problems = cli._Problems()
    check = cli._section({"a": (cli._number, cli._REQUIRED)}, build)
    assert check(problems, "block", {"a": 1.0}) is cli._BAD
    assert problems == ["validation: block: the values do not fit together"]


def test_dressed_demo_on_a_subnormal_spacing_exits_1_at_load(tmp_path, capsys):
    # At t1 = 1e-100 the demo's 2,400 intervals are 4.2e-104 long, and each
    # Simpson denominator h0*h1*(h0 + h1) is subnormal, which would make the
    # phases NaN: rejected at load, with no warning and no run.  At
    # t1 = 1e-99 the denominators are normal and the config loads.
    cfg = json.loads((DEMO_CONFIGS / "dressed_compare.json").read_text())
    cfg["grid"]["t1"] = 1e-100
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(), mock.patch.object(cli, "_run_dressed", side_effect=AssertionError("ran")):
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: cli: validation: grid: the spacing must keep the Simpson denominator"
        " h0*h1*(h0 + h1) a normal float; it reaches 1.4"
    )
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    cfg["grid"]["t1"] = 1e-99
    assert load_config_dict(cfg).grid.t1 == 1e-99


def test_validation_error_in_run_exits_1(tmp_path, capsys):
    # mu 1e300 passes load, but the generalized Rabi frequency overflows on
    # the grid: dressed_phases raises ValidationError, exit 1, one line.
    cfg = dressed_config(system={"omega_g": 0.0, "omega_e": 5.0, "mu": 1e300})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dressedphase: dressed_phases: the generalized Rabi frequency is not finite")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_run_without_quiet_prints_outputs_and_metrics(tmp_path, capsys):
    path = write_config(tmp_path, dressed_config())
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    out = tmp_path / "o"
    assert capsys.readouterr().out == (
        f"wrote {out / 'dressed.csv'}\nwrote {out / 'summary.json'}\n  adiabatic_margin = 0.0\n"
    )


def _missing(tmp_path):
    return tmp_path / "absent.json", tmp_path / "o"


def _directory(tmp_path):
    return tmp_path, tmp_path / "o"


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(dressed_config()).encode("ascii").replace(b"ground", b"gr\xf6und"))
    return path, tmp_path / "o"


def _out_is_a_file(tmp_path):
    out = tmp_path / "taken"
    out.write_text("")
    return write_config(tmp_path, dressed_config()), out


@pytest.mark.parametrize("paths", [_missing, _directory, _not_utf8, _out_is_a_file])
def test_unreadable_input_exits_1(tmp_path, capsys, paths):
    config_path, out = paths(tmp_path)
    # Each case fails before any computation: an --out that is a file included.
    with mock.patch.object(cli, "_run_dressed", side_effect=AssertionError("the runner ran")):
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cli: ")


SPECIAL_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    1.0, -2.0, 1e16, 2.0**53, 123456789.0, 0.1, 1.0 / 3.0, -2.5e-8, 6.02214076e23,
]


def _assert_csv_matches_per_value_writer(directory, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    csvformat.write_csv(directory / "rows.csv", header, table.T)
    write_csv_loop(directory / "values.csv", header, table)
    written = (directory / "rows.csv").read_bytes()
    assert written == (directory / "values.csv").read_bytes()
    assert b"\r" not in written and written.endswith(b"\n")


@pytest.mark.parametrize("columns", [1, 9])
# Tables on either side of the writer's 512-value crossover (bytes % or the
# kernel), and of one block and a last block at that crossover: 512 values
# and 4,096-value blocks are 512 and 4,096 rows of one column, 57 and 455 of nine.
@pytest.mark.parametrize(
    "rows",
    [0, 1, len(SPECIAL_VALUES), 600, 255, 256, 257, 513,
     511, 512, 4095, 4096, 4097, 4607, 4608, 56, 57, 454, 455, 456],
)
def test_csv_writer_matches_per_value_writer(tmp_path, columns, rows):
    values = np.resize(np.array(SPECIAL_VALUES), rows * columns)
    _assert_csv_matches_per_value_writer(tmp_path, values.reshape(rows, columns))


CSV_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Tables cross the crossover and the block size: up to 3,000 rows of 1 to 7
# columns, cycling through up to 300 drawn values.
csv_shapes = st.tuples(st.integers(1, 3000), st.integers(1, 7))


def _cycled(values, shape):
    rows, columns = shape
    return np.resize(np.array(values, dtype=np.float64), rows * columns).reshape(rows, columns)


@CSV_PROPERTY
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300), shape=csv_shapes)
def test_csv_writer_matches_on_any_bit_pattern(tmp_path_factory, bits, shape):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_csv_matches_per_value_writer(tmp_path_factory.mktemp("csv"), _cycled(values, shape))


@CSV_PROPERTY
@given(values=st.lists(st.floats(), min_size=1, max_size=300), shape=csv_shapes)
def test_csv_writer_matches_on_any_float(tmp_path_factory, values, shape):
    # st.floats draws subnormals, signed zeros, infinities and NaN.
    _assert_csv_matches_per_value_writer(tmp_path_factory.mktemp("csv"), _cycled(values, shape))


@pytest.mark.parametrize(
    "columns", [[[0.0] * 5, [1.0] * 4], [[0.0] * 4, [1.0] * 4, [2.0] * 4], [np.zeros((4, 2))]]
)
def test_csv_writer_rejects_columns_that_do_not_align(tmp_path, columns):
    # Unequal lengths, more columns than names, a 2-D column: stacked one
    # block at a time, each would write misaligned rows, so none opens the file.
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"1-D columns of one length, not \[\(\d"):
        csvformat.write_csv(path, ["a", "b"][: len(columns)], columns)
    assert not path.exists()


# Rows on either side of whole blocks (4,096 // columns rows), and any count
# up to three blocks; values from the whole float range, with NaN, +-inf
# and -0.0 drawn often.
csv_specials = st.sampled_from([math.nan, math.inf, -math.inf, -0.0])


@CSV_PROPERTY
@given(data=st.data(), columns=st.integers(1, 7))
def test_csv_writer_stacks_any_columns_as_rows(tmp_path_factory, data, columns):
    block = 4096 // columns
    edges = [k * block + d for k in (1, 2) for d in (-1, 0, 1)]
    rows = data.draw(st.sampled_from([0, 1, *edges]) | st.integers(0, 3 * block))
    values = data.draw(st.lists(st.floats() | csv_specials, min_size=1, max_size=300))
    table = [np.resize(np.array(values[j:] + values[:j]), rows) for j in range(columns)]
    header = [f"c{j}" for j in range(columns)]
    directory = tmp_path_factory.mktemp("csv")
    csvformat.write_csv(directory / "columns.csv", header, table)
    write_csv_loop(directory / "values.csv", header, zip(*table))
    assert (directory / "columns.csv").read_bytes() == (directory / "values.csv").read_bytes()


def test_csv_writer_matches_at_every_power_of_ten(tmp_path):
    # Where the leading exponent changes: 10^k for every k of the float range,
    # its two neighbours and their negations.
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    _assert_csv_matches_per_value_writer(tmp_path, np.concatenate([values, -values]).reshape(-1, 3))


def test_csv_writer_rounds_ties_to_even(tmp_path):
    # m / 4 and m / 8 for odd m just above 2^52 have 18 significant digits,
    # the last a 5: ties at 17 digits, which %.17g rounds to even, and which
    # random bits nearly never draw.  m / 2 and m / 16 have 17 and 19.
    odd = 2**52 + 1 + 2 * np.arange(0, 3000, 7)
    values = np.concatenate([odd / 4.0, odd / 8.0, odd / 2.0, odd / 16.0])
    _assert_csv_matches_per_value_writer(tmp_path, values.reshape(-1, 4))


# Values whose 64-bit-mantissa product lands within 0.35 of a half unit of
# the 17th digit on the wrong side, by the rounding of the power of ten:
# only adding that rounding error back writes them right (found by a search
# of random bit patterns).
POWER_ERROR_DECIDES = [
    9.477131664217946e+258, -8.977422923420105e+301, 9.616623925106128e-276, -8.404136726475891e-239,
    9.689563449346574e+252, -9.623813277005508e-115, -9.918223583390591e-214,
]


def test_csv_writer_adds_the_powers_rounding_error(tmp_path):
    _assert_csv_matches_per_value_writer(tmp_path, np.resize(POWER_ERROR_DECIDES, (1000, 7)))


def test_csv_power_table_is_correctly_rounded():
    # Row r holds 64 * 10^(16 - E), E = r + _E_MIN, at the mantissa of 64
    # bits nearest to it (half to even), and its relative error; the rows
    # of 0, inf and nan hold 64 * 10^16.
    scale, rho = csvformat._tables()[:2]
    assert scale.size == csvformat._SPECIAL + 3
    for row, (entry, error) in enumerate(zip(scale, rho.tolist())):
        j = 16 - (row + csvformat._E_MIN) if row < csvformat._SPECIAL else 16
        exact = 64 * Fraction(10) ** j
        e = 0
        while exact / Fraction(2) ** e >= 2**64:
            e += 1
        while exact / Fraction(2) ** e < 2**63:
            e -= 1
        nearest = round(exact / Fraction(2) ** e) * Fraction(2) ** e
        assert Fraction(*entry.as_integer_ratio()) == nearest, j
        assert error == float((exact - nearest) / nearest), j


def test_csv_tables_equal_their_construction_entry_by_entry():
    # The powers from one recurrence and the templates from each form's
    # 17-digit one are, in value and dtype, every power and template built
    # on its own.
    for table, reference in zip(csvformat._tables(), csv_tables_loop(), strict=True):
        assert table.dtype == reference.dtype and table.shape == reference.shape
        assert np.array_equal(table, reference)


def test_csv_writer_without_long_double(tmp_path, monkeypatch):
    # Where longdouble has fewer than 63 mantissa bits every block goes
    # through the bytes %, with the same bytes.
    rng = np.random.default_rng(3)
    table = rng.integers(0, 2**64, 3000 * 4, dtype=np.uint64).view(np.float64).reshape(-1, 4)
    monkeypatch.setattr(np, "finfo", lambda dtype: mock.Mock(nmant=52))
    csvformat._tables.cache_clear()
    try:
        with mock.patch.object(csvformat, "_format_block", side_effect=AssertionError("vector path taken")):
            _assert_csv_matches_per_value_writer(tmp_path, table)
        assert csvformat._tables() is None
    finally:
        csvformat._tables.cache_clear()


def test_csv_writer_formats_a_small_last_block_with_percent(tmp_path):
    # 4,196 rows of one column: one 4,096-value block through the kernel,
    # then a last block of 100 values through the bytes %.
    table = np.resize(np.array(SPECIAL_VALUES + POWER_ERROR_DECIDES), (4196, 1))
    with mock.patch.object(csvformat, "_format_block", wraps=csvformat._format_block) as kernel:
        _assert_csv_matches_per_value_writer(tmp_path, table)
    assert [call.args[0].size for call in kernel.call_args_list] == [4096]


def test_csv_writer_of_a_small_table_never_builds_the_kernel(tmp_path):
    # 511 values (73 rows of 7) is one block under the crossover: bytes %
    # only, with no tables or source rows built.
    table = np.resize(np.array(SPECIAL_VALUES), (73, 7))
    built = AssertionError("kernel built")
    with mock.patch.object(csvformat, "_tables", side_effect=built), \
            mock.patch.object(csvformat, "_source_rows", side_effect=built):
        _assert_csv_matches_per_value_writer(tmp_path, table)


def test_determinism_byte_identical(tmp_path):
    config = load_config_dict(dressed_config())
    run(config, tmp_path / "a")
    run(config, tmp_path / "b")
    assert (tmp_path / "a" / "dressed.csv").read_bytes() == (
        tmp_path / "b" / "dressed.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "cfg",
    [dressed_config(), _adiabatic_config(2), propagate_config(), _interfere_config(16), hydro_config()],
    ids=KINDS,
)
def test_summary_json_is_the_asdict_form(tmp_path, cfg):
    summary = run(load_config_dict(cfg), tmp_path / "out")
    expected = asdict(summary)
    # summary.json is written before its own path joins the outputs.
    assert expected["outputs"].pop() == str(tmp_path / "out" / "summary.json")
    text = (tmp_path / "out" / "summary.json").read_text(encoding="utf-8")
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_summary_config_round_trip(tmp_path):
    config = load_config_dict(dressed_config())
    run(config, tmp_path / "out")
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert load_config_dict(echo) == config
    # Every shipped config: a hydro echo carries no integrator block, which
    # load_config would reject.
    for path in sorted(DEMO_CONFIGS.glob("*.json")):
        config = load_config(path)
        run(config, tmp_path / path.stem)
        echo = json.loads((tmp_path / path.stem / "summary.json").read_text())["config"]
        assert load_config_dict(echo) == config, path.name


def test_unknown_fields_rejected():
    cfg = dressed_config()
    cfg["mystery"] = 1
    with pytest.raises(ConfigError, match="unknown field"):
        load_config_dict(cfg)
    cfg2 = dressed_config()
    cfg2["system"]["charge"] = 3
    with pytest.raises(ConfigError, match="system.charge"):
        load_config_dict(cfg2)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("block,field", [("envelope", "peak"), ("system", "mu")])
def test_tiny_field_runs_without_warnings(tmp_path, capsys, block, field):
    # |Omega|^k underflows to 0 from k = 2: those adiabatic ratios take
    # their limit, inf, with no RuntimeWarning.
    cfg = json.loads((DEMO_CONFIGS / "dressed_compare.json").read_text())
    (cfg["field"] if block == "envelope" else cfg)[block][field] = 1e-300
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    # The margin is inf in the run summary, and null in strict JSON.
    text = (tmp_path / "o" / "summary.json").read_text()
    metrics = json.loads(text, parse_constant=_reject_constant)["metrics"]
    assert metrics["adiabatic_margin"] is None


def test_hydro_run_decomposes_each_frame_once(tmp_path):
    # Both residuals and the written columns share one decomposition per
    # frame, and both residuals of a window share one gradient of S: per
    # window that and the current's divergence.  The written frames keep the
    # U and p of their residuals; only frame 0, which has none, forms its own.
    config = load_config(DEMO_CONFIGS / "hydro.json")
    with mock.patch.object(hydro, "polar_decompose", wraps=hydro.polar_decompose) as decompose, \
            mock.patch.object(hydro, "_central_difference", wraps=hydro._central_difference) as diff, \
            mock.patch.object(hydro, "quantum_potential", wraps=hydro.quantum_potential) as potential:
        summary = run(config, tmp_path / "o")
    assert summary.metrics["frames"] == 101
    assert decompose.call_count == 101
    assert diff.call_count == 2 * 99 + 1
    assert potential.call_count == 99 + 1


def test_hydro_run_memory_grows_by_the_frame_list_alone():
    # No frame list is kept: the solver's frames stream through the analysis'
    # window of three, where the decompositions and residual rows live too,
    # and both runs write 17 frames.  Only the lists of residual norms grow
    # with the frame count, by a few KB; a run holding its 100 extra frames
    # (16 B per point and frame) would grow by 25 times the bound.
    cfg = json.loads((DEMO_CONFIGS / "hydro.json").read_text())

    def traced_peak(t_final):
        cfg["hydro"]["t_final"] = t_final
        config = load_config_dict(cfg)
        cli._run_hydro(config)  # warm-up
        tracemalloc.start()
        try:
            cli._run_hydro(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = traced_peak(4.0) - traced_peak(2.0)  # 201 frames against 101
    assert growth <= 4 * 16 * cfg["hydro"]["n_points"]


def test_leaking_run_exits_2_with_the_solvers_message(tmp_path, capsys):
    # The packet reaches the grid edge at a step past the first window, so
    # the streamed run fails after frames went through the analysis: exit 2
    # with split_step_solve's own message for the same input, and no output.
    cfg = json.loads((DEMO_CONFIGS / "hydro.json").read_text())
    cfg["hydro"]["packet"]["k0"] = 40.0
    p = load_config_dict(cfg).params
    with pytest.raises(EdgeLeakageError) as leak:
        hydro.split_step_solve(*cli._hydro_start(p), p["t_final"], p["dt"])
    assert "at step" in str(leak.value)
    path = write_config(tmp_path, cfg)
    with mock.patch.object(hydro, "polar_decompose", wraps=hydro.polar_decompose) as decompose:
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert decompose.call_count >= 3
    assert capsys.readouterr().err == f"error: {leak.value}\n"
    assert not (tmp_path / "o").exists()


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    # The packet runs into the grid edge after a few steps: the solver fails
    # midway, after the config was accepted, and nothing may be written.
    cfg = json.loads((DEMO_CONFIGS / "hydro.json").read_text())
    cfg["hydro"]["packet"]["k0"] = 40.0
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "edge leakage" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unresolvable_drive_exits_before_any_magnus_step(tmp_path, capsys):
    # At peak 1e12 the oracle's coupling turns by pi or more per Magnus step
    # even at the step cap: exit 2 with one line on stderr, no output
    # directory, and no Magnus grid made (a grid made fails at once, where
    # the step doubling would run some 79 million steps).
    cfg = json.loads((DEMO_CONFIGS / "dressed_compare.json").read_text())
    cfg["field"]["envelope"]["peak"] = 1e12
    path = write_config(tmp_path, cfg)
    grid = mock.Mock(side_effect=AssertionError("a Magnus grid was made"))
    with mock.patch.object(propagator, "_magnus_grid", grid):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "step-size underflow" in err
    assert not (tmp_path / "o").exists()
    grid.assert_not_called()


@pytest.mark.parametrize(
    "config,block,key,value,span",
    [
        ("propagate", "system", "omega_e", 1e200, "0.005026548245743889"),
        ("propagate", "field", "carrier", 5e300, "0.005026548245743889"),
        ("interfere", "system", "omega_e", 5e300, "22.0"),
    ],
    ids=["propagate_omega_e", "propagate_carrier", "interfere_omega_e"],
)
def test_overflowing_detuning_exits_before_any_magnus_step(tmp_path, capsys, config, block, key, value, span):
    # The detuning's square overflows a Magnus step even at the step cap:
    # exit 2 with one line on stderr and no warning, no output directory,
    # and no Magnus grid made, where the step doubling ran to the cap.
    cfg = json.loads((DEMO_CONFIGS / f"{config}.json").read_text())
    cfg[block][key] = value
    path = write_config(tmp_path, cfg)
    grid = mock.Mock(side_effect=AssertionError("a Magnus grid was made"))
    with warnings.catch_warnings(), mock.patch.object(propagator, "_magnus_grid", grid):
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: propagator: step-size underflow: the detuning (")
    assert err.endswith(f"overflows a Magnus step at 1048576 steps over an interval of {span}\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    grid.assert_not_called()


def test_large_detuning_runs_without_warnings(tmp_path, capsys):
    # At omega_e 1e100 the series test of each Magnus exponential squares
    # past the float range; an inf is never small, so the closed form runs,
    # with no RuntimeWarning.
    cfg = json.loads((DEMO_CONFIGS / "propagate.json").read_text())
    cfg["system"]["omega_e"] = 1e100
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    metrics = json.loads((tmp_path / "o" / "summary.json").read_text())["metrics"]
    assert metrics["final_P_g"] == pytest.approx(1.0, abs=1e-12)


def test_subnormal_max_step_exits_with_one_line(tmp_path, capsys):
    # A max_step of 5e-324 asks for an infinite first Magnus step count:
    # past the cap, so exit 2 with one line on stderr naming the grid's ends
    # as plain floats, and no output directory.
    cfg = json.loads((DEMO_CONFIGS / "dressed_compare.json").read_text())
    cfg["integrator"]["max_step"] = 5e-324
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("steps per interval on [0.0, 1200.0]\n")
    assert not (tmp_path / "o").exists()
