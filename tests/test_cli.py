"""Command-line interface: config parsing, runs, verify, determinism."""

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from fkin.cli import execute, main, parse_config, render_csv
from fkin.errors import DomainError
from fkin.kinetics import (ROUTES, KineticProblem, MLForcing, PowerLaw,
                           binomial_problem, select_solver)
from fkin.verification import canonical_problems

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def kinetic_payload(**overrides):
    payload = {
        "schema_version": 1,
        "mode": "kinetic",
        "problem": {
            "n0": 1.0,
            "nus": [1.0],
            "rates": [1.0],
            "forcing": {"type": "unit"},
        },
        "time_grid": {"start": 0.1, "stop": 2.0, "count": 20},
        "solver_selector": "auto",
        "output_path": "out.csv",
    }
    payload.update(overrides)
    return payload


class TestParsing:
    def test_minimal_kinetic(self, tmp_path):
        cfg = parse_config(kinetic_payload())
        assert cfg.mode == "kinetic"
        assert cfg.time_grid.shape == (20,)

    @pytest.mark.parametrize("mutate", [
        {"schema_version": 2},
        {"mode": "unknown"},
        {"mode": None},
        {"time_grid": {"start": 0.1, "stop": 2.0}},
        {"time_grid": {"start": 2.0, "stop": 0.1, "count": 5}},
        {"time_grid": {"start": -1.0, "stop": 2.0, "count": 5}},
        {"time_grid": {"start": 0.1, "stop": 2.0, "count": 0}},
        {"time_grid": {"start": 0.1, "stop": 2.0, "count": 5, "step": 1}},
        {"problem": {"n0": 1.0, "nus": [1.0], "rates": [1.0],
                     "forcing": {"type": "mystery"}}},
        {"problem": {"n0": 1.0, "nus": [1.0], "rates": [1.0, 2.0],
                     "forcing": {"type": "unit"}}},
        {"problem": {"n0": True, "nus": [1.0], "rates": [1.0],
                     "forcing": {"type": "unit"}}},
        {"extra_field": 1},
    ])
    def test_rejects_malformed(self, mutate):
        from fkin.errors import ConfigError
        payload = kinetic_payload()
        payload.update(mutate)
        with pytest.raises(ConfigError):
            parse_config(payload)

    def test_verify_mode_has_no_selector(self):
        from fkin.errors import ConfigError
        payload = kinetic_payload(mode="verify")
        with pytest.raises(ConfigError):
            parse_config(payload)

    def test_specfun_grid_may_be_negative(self):
        payload = {
            "schema_version": 1,
            "mode": "specfun-eval",
            "problem": {"beta": 0.5, "gamma": 1.0, "delta": 1.0},
            "space_grid": {"start": -5.0, "stop": 5.0, "count": 11},
            "output_path": "out.csv",
        }
        cfg = parse_config(payload)
        assert cfg.space_grid[0] == -5.0


class TestRun:
    def test_kinetic_matches_decay(self, tmp_path, capsys):
        path = write_config(tmp_path, kinetic_payload())
        out = tmp_path / "run.csv"
        assert main(["run", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,value"
        for row in lines[1:]:
            t, v = (float(c) for c in row.split(","))
            assert abs(v - math.exp(-t)) < 1e-9

    def test_output_is_deterministic(self, tmp_path):
        path = write_config(tmp_path, kinetic_payload())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", str(path), "--out", str(out1)])
        main(["run", str(path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_output_path(self, tmp_path):
        payload = kinetic_payload()
        del payload["output_path"]
        path = write_config(tmp_path, payload)
        assert main(["run", str(path)]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"]

    @pytest.mark.parametrize("text", ["Infinity", "NaN", "1" + "0" * 400])
    def test_non_finite_number(self, tmp_path, capsys, text):
        # the JSON reader accepts NaN and Infinity, and a long integer
        # overflows a double: each is a configuration error, not NaN rows
        payload = kinetic_payload()
        payload["problem"]["forcing"] = {"type": "power", "rho": 0.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload).replace("0.5", text),
                        encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "finite" in record["message"]
        assert not (tmp_path / "o.csv").exists()

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_checksum_mismatch(self, tmp_path, capsys):
        payload = kinetic_payload(expected_sha256="0" * 64)
        path = write_config(tmp_path, payload)
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "SolverError"
        assert "checksum" in record["message"]

    def test_selector_must_apply(self, tmp_path, capsys):
        # the single-term problem has no matched ML forcing, so the
        # explicitly requested route cannot run
        payload = kinetic_payload(solver_selector="ml-closed")
        path = write_config(tmp_path, payload)
        rc = main(["run", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc != 0

    def test_run_failure_is_reported(self, tmp_path, capsys):
        # argument far beyond the series radius trips the solver, which
        # must surface as a structured nonzero failure, not a traceback
        payload = {
            "schema_version": 1,
            "mode": "specfun-eval",
            "problem": {"beta": 0.5, "gamma": 1.0, "delta": 1.0},
            "space_grid": {"start": 0.0, "stop": 500.0, "count": 5},
            "output_path": "out.csv",
        }
        path = write_config(tmp_path, payload)
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "SolverError"


class TestShippedConfigs:
    @pytest.mark.parametrize("name", [
        "kinetic_single_exp.json",
        "verify_matched_ml.json",
        "diffusion_halforder.json",
        "levy_half.json",
        "specfun_ml_half.json",
    ])
    def test_round_trip(self, name, tmp_path, monkeypatch):
        # exit 0 implies the embedded expected_sha256 matched the bytes
        monkeypatch.chdir(tmp_path)
        shutil.copy(CONFIG_DIR / name, tmp_path / name)
        assert main(["run", name]) == 0

    def test_verify_report_columns_and_tolerance(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(CONFIG_DIR / "verify_matched_ml.json", tmp_path / "v.json")
        assert main(["run", "v.json", "--out", "report.csv"]) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "t,value,inverted,inverted_rel_err,stepped,stepped_rel_err"
        rows = np.array([[float(c) for c in row.split(",")]
                         for row in lines[1:]])
        assert rows.shape == (8, 6)
        assert float(np.max(rows[:, 3])) <= 1e-6


class TestVerifyCommand:
    def test_single_criterion(self, capsys):
        assert main(["verify", "--filter", "far-field-decay"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS far-field-decay")

    def test_unknown_filter(self, capsys):
        assert main(["verify", "--filter", "no-such-criterion"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestEvalML:
    def test_prints_full_repr(self, capsys):
        rc = main(["eval-ml", "--beta", "1", "--gamma", "1", "--delta", "1",
                   "--z", "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == repr(math.e)

    def test_bad_parameters(self, capsys):
        rc = main(["eval-ml", "--beta", "-1", "--gamma", "1", "--delta", "1",
                   "--z", "0"])
        assert rc == 2


def test_render_csv_uses_repr_and_lf():
    text = render_csv(("a", "b"), [(0.1, 1.0 / 3.0)])
    assert text == "a,b\n0.1,0.3333333333333333\n"
    assert "\r" not in text


@pytest.mark.parametrize("payload", [
    # Mittag-Leffler values re-summed in extended precision
    {"schema_version": 1, "mode": "specfun-eval",
     "problem": {"beta": 0.5, "gamma": 1.0, "delta": 1.0},
     "space_grid": {"start": -8.0, "stop": -2.0, "count": 40}},
    # stable density in the tail, where the series fails its guard
    {"schema_version": 1, "mode": "levy", "problem": {"rho": 0.75},
     "time_grid": {"start": 0.08, "stop": 0.2, "count": 5}},
    # bulk diffusion at alpha = 0.9, where the residue families cancel
    # past their guard and are re-summed in extended precision
    {"schema_version": 1, "mode": "diffusion",
     "problem": {"alpha": 0.9, "diff_coeff": 1.0, "dim": 1},
     "space_grid": {"start": 0.5, "stop": 7.5, "count": 15}, "time": 1.0},
], ids=["specfun-rescue", "levy-tail", "diffusion-bulk"])
def test_rescue_tables_repeat_bytes(payload):
    config = parse_config(payload)
    first = render_csv(*execute(config))
    for _ in range(9):
        assert render_csv(*execute(config)) == first


# The canonical panel plus closed-form cases, and the selector values each
# fits; "multiterm" fits every problem.
PARITY_PANEL = dict(canonical_problems()) | {
    "single-power": KineticProblem(1.0, (0.5,), (1.0,), PowerLaw(2.0)),
    "single-ml": KineticProblem(1.0, (0.5,), (0.5,),
                                MLForcing(nu=0.5, gamma_=2.0, delta=1.5,
                                          c=0.25)),
    "binomial-power": binomial_problem(1.0, 2, 0.5, 0.5, PowerLaw(2.0)),
}
SINGLES = {"single-classical", "single-half", "single-power", "single-ml"}
FITS = {
    "single": SINGLES,
    "binomial": SINGLES | {"binomial", "binomial-power"},
    "geometric": {"geometric"},
    "arithmetic": SINGLES | {"two-term-arithmetic", "binomial", "geometric",
                             "binomial-power"},
    "multiterm": set(PARITY_PANEL),
    "ml-closed": {"single-ml"},
    "power-closed": {"single-power", "binomial-power"},
}


@pytest.mark.parametrize("selector", sorted(ROUTES))
def test_selector_parity(selector):
    # a route forced onto a problem it fits gives the automatic route's
    # values; onto one it does not fit, it refuses
    ts = np.array([0.125, 0.25, 0.5, 1.0, 2.0, 3.5, 5.0])
    assert FITS[selector] <= set(PARITY_PANEL)
    for name, problem in PARITY_PANEL.items():
        if name in FITS[selector]:
            auto = select_solver(problem)[1](problem, ts)
            got = ROUTES[selector](problem, ts)
            assert float(np.max(np.abs(got - auto) / np.abs(auto))) < 1e-12, name
        else:
            with pytest.raises(DomainError):
                ROUTES[selector](problem, ts)
