import json
import math

import numpy as np
import pytest

from dressedphase.cli import (
    ExperimentConfig,
    compare,
    load_config,
    load_config_dict,
    main,
    run,
)
from dressedphase.errors import ConfigError


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
    assert config.integrator.rel_tol == 1e-9
    assert config.params["n_max"] == 2


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


def test_non_finite_literal_exits_1(tmp_path, capsys):
    text = json.dumps(dressed_config()).replace('"mu": 1.0', '"mu": NaN')
    path = tmp_path / "nan.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "validation: system.mu: must be finite" in capsys.readouterr().err
    for literal in ("Infinity", "-Infinity"):
        cfg = json.loads(text.replace("NaN", "1.0").replace('"peak": 2.0', f'"peak": {literal}'))
        with pytest.raises(ConfigError, match="peak must be finite"):
            load_config_dict(cfg)


def test_determinism_byte_identical(tmp_path):
    config = load_config_dict(dressed_config())
    run(config, tmp_path / "a")
    run(config, tmp_path / "b")
    assert (tmp_path / "a" / "dressed.csv").read_bytes() == (
        tmp_path / "b" / "dressed.csv"
    ).read_bytes()


def test_summary_config_round_trip(tmp_path):
    config = load_config_dict(dressed_config())
    run(config, tmp_path / "out")
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert load_config_dict(echo) == config


def test_unknown_fields_rejected():
    cfg = dressed_config()
    cfg["mystery"] = 1
    with pytest.raises(ConfigError, match="unknown field"):
        load_config_dict(cfg)
    cfg2 = dressed_config()
    cfg2["system"]["charge"] = 3
    with pytest.raises(ConfigError, match="system.charge"):
        load_config_dict(cfg2)
