"""Batch front end: problem configurations in, solution tables out.

A run reads one JSON configuration, evaluates the requested quantity on
its grid, and writes a CSV table.  Numeric output uses the shortest
round-tripping decimal form, so a fixed configuration produces a
byte-identical file and tables can serve as golden files.  Failures exit
nonzero with a one-line JSON error record on stderr; configuration
problems exit with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionProblem, StableParams, fundamental_solution, levy_density
from .errors import ConfigError, DomainError, FkinError, SolverError
from .kinetics import (ROUTES, KineticProblem, MLForcing, PowerLaw, Unit,
                       select_solver)
from .specfun import MLParams, _ml_values, ml_prabhakar
from .verification import run_all, verify_problem

SCHEMA_VERSION = 1

_MODES = ("kinetic", "diffusion", "levy", "specfun-eval", "verify")


@dataclass(frozen=True)
class RunConfig:
    """Validated form of one run configuration."""

    mode: str
    problem: object
    time_grid: np.ndarray | None
    space_grid: np.ndarray | None
    time: float | None
    output_path: str | None
    solver_selector: str
    expected_sha256: str | None


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _take(mapping, key, kind, where, required=True, default=None):
    if key not in mapping:
        _require(not required, f"{where}: missing required field '{key}'")
        return default
    value = mapping[key]
    if kind is float:
        _require(isinstance(value, (int, float))
                 and not isinstance(value, bool),
                 f"{where}: field '{key}' must be a number")
        # JSON readers accept NaN and Infinity; an integer may be too
        # large for a double
        _require(abs(value) <= sys.float_info.max,
                 f"{where}: field '{key}' must be finite")
        return float(value)
    if kind is int:
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{where}: field '{key}' must be an integer")
        return value
    _require(isinstance(value, kind),
             f"{where}: field '{key}' must be a {kind.__name__}")
    return value


def _no_extras(mapping, allowed, where):
    extras = sorted(set(mapping) - set(allowed))
    _require(not extras, f"{where}: unknown field(s) {', '.join(extras)}")


def _parse_grid(mapping, key, minimum=None):
    """Range spec to array; ``minimum`` is 'positive', 'nonnegative' or
    None (unrestricted, e.g. a function argument axis)."""
    spec = _take(mapping, key, dict, "config")
    _no_extras(spec, ("start", "stop", "count"), key)
    start = _take(spec, "start", float, key)
    stop = _take(spec, "stop", float, key)
    count = _take(spec, "count", int, key)
    _require(count >= 1, f"{key}: count must be >= 1")
    _require(count == 1 or stop > start,
             f"{key}: stop must exceed start for a strictly increasing grid")
    if minimum == "positive":
        _require(start > 0.0, f"{key}: start must be positive")
    elif minimum == "nonnegative":
        _require(start >= 0.0, f"{key}: start must be nonnegative")
    return np.linspace(start, stop, count)


def _parse_forcing(spec):
    _require(isinstance(spec, dict), "forcing must be an object")
    kind = _take(spec, "type", str, "forcing")
    try:
        if kind == "unit":
            _no_extras(spec, ("type",), "forcing")
            return Unit()
        if kind == "power":
            _no_extras(spec, ("type", "rho"), "forcing")
            return PowerLaw(rho=_take(spec, "rho", float, "forcing"))
        if kind == "ml":
            _no_extras(spec, ("type", "nu", "gamma", "delta", "c"), "forcing")
            return MLForcing(nu=_take(spec, "nu", float, "forcing"),
                             gamma_=_take(spec, "gamma", float, "forcing"),
                             delta=_take(spec, "delta", float, "forcing"),
                             c=_take(spec, "c", float, "forcing"))
    except DomainError as exc:
        raise ConfigError(f"forcing: {exc}") from exc
    raise ConfigError(f"forcing: unknown type '{kind}' "
                      "(expected unit, power or ml)")


def _parse_kinetic_problem(spec):
    _no_extras(spec, ("n0", "nus", "rates", "forcing"), "problem")
    nus = _take(spec, "nus", list, "problem")
    rates = _take(spec, "rates", list, "problem")
    _require(all(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and abs(v) <= sys.float_info.max for v in nus + rates),
             "problem: nus and rates must be arrays of finite numbers")
    forcing = _parse_forcing(_take(spec, "forcing", dict, "problem"))
    try:
        return KineticProblem(n0=_take(spec, "n0", float, "problem"),
                              nus=tuple(float(v) for v in nus),
                              rates=tuple(float(v) for v in rates),
                              forcing=forcing)
    except DomainError as exc:
        raise ConfigError(f"problem: {exc}") from exc


def parse_config(data):
    """Validate a decoded configuration object into a :class:`RunConfig`."""
    _require(isinstance(data, dict), "configuration must be a JSON object")
    version = _take(data, "schema_version", int, "config")
    _require(version == SCHEMA_VERSION,
             f"config: unsupported schema_version {version} "
             f"(this build reads {SCHEMA_VERSION})")
    mode = _take(data, "mode", str, "config")
    _require(mode in _MODES,
             f"config: unknown mode '{mode}' (expected one of "
             f"{', '.join(_MODES)})")

    allowed = ["schema_version", "mode", "problem", "output_path",
               "expected_sha256"]
    time_grid = space_grid = time = None
    selector = "auto"
    spec = _take(data, "problem", dict, "config")

    if mode in ("kinetic", "verify"):
        allowed += ["time_grid"]
        if mode == "kinetic":
            allowed += ["solver_selector"]
        _no_extras(data, allowed, "config")
        problem = _parse_kinetic_problem(spec)
        # the verify table needs strictly positive times for the oracles
        time_grid = _parse_grid(
            data, "time_grid",
            minimum="positive" if mode == "verify" else "nonnegative")
        if mode == "kinetic":
            selector = _take(data, "solver_selector", str, "config",
                             required=False, default="auto")
            _require(selector == "auto" or selector in ROUTES,
                     f"config: unknown solver_selector '{selector}' "
                     f"(expected auto or one of {', '.join(sorted(ROUTES))})")
    elif mode == "diffusion":
        allowed += ["space_grid", "time"]
        _no_extras(data, allowed, "config")
        _no_extras(spec, ("alpha", "diff_coeff", "dim"), "problem")
        try:
            problem = DiffusionProblem(
                alpha=_take(spec, "alpha", float, "problem"),
                diff_coeff=_take(spec, "diff_coeff", float, "problem"),
                dim=_take(spec, "dim", int, "problem"))
        except DomainError as exc:
            raise ConfigError(f"problem: {exc}") from exc
        space_grid = _parse_grid(data, "space_grid",
                                 minimum="nonnegative")
        time = _take(data, "time", float, "config")
        _require(time > 0.0, "config: time must be positive")
    elif mode == "levy":
        allowed += ["time_grid"]
        _no_extras(data, allowed, "config")
        _no_extras(spec, ("rho",), "problem")
        try:
            problem = StableParams(rho=_take(spec, "rho", float, "problem"))
        except DomainError as exc:
            raise ConfigError(f"problem: {exc}") from exc
        time_grid = _parse_grid(data, "time_grid", minimum="positive")
    else:  # specfun-eval: the grid is the function argument axis
        allowed += ["space_grid"]
        _no_extras(data, allowed, "config")
        _no_extras(spec, ("beta", "gamma", "delta"), "problem")
        beta = _take(spec, "beta", float, "problem")
        gamma_ = _take(spec, "gamma", float, "problem")
        delta = _take(spec, "delta", float, "problem")
        try:
            MLParams(beta=beta, gamma_=gamma_, delta=delta, z=0.0)
        except DomainError as exc:
            raise ConfigError(f"problem: {exc}") from exc
        problem = (beta, gamma_, delta)
        space_grid = _parse_grid(data, "space_grid")

    return RunConfig(
        mode=mode,
        problem=problem,
        time_grid=time_grid,
        space_grid=space_grid,
        time=time,
        output_path=_take(data, "output_path", str, "config",
                          required=False),
        solver_selector=selector,
        expected_sha256=_take(data, "expected_sha256", str, "config",
                              required=False),
    )


def load_config(path):
    """Read and validate the configuration file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def execute(config):
    """Evaluate a configuration; returns ``(header, rows)`` of the table."""
    try:
        if config.mode == "kinetic":
            if config.solver_selector == "auto":
                _, solver = select_solver(config.problem)
            else:
                solver = ROUTES[config.solver_selector]
            values = np.asarray(solver(config.problem, config.time_grid))
            return ("t", "value"), list(zip(config.time_grid, values))
        if config.mode == "diffusion":
            values = fundamental_solution(config.problem, config.space_grid,
                                          config.time)
            return ("x", "value"), list(zip(config.space_grid, values))
        if config.mode == "levy":
            values = levy_density(config.problem, config.time_grid)
            return ("t", "value"), list(zip(config.time_grid, values))
        if config.mode == "specfun-eval":
            beta, gamma_, delta = config.problem
            values = _ml_values(beta, gamma_, delta, config.space_grid)
            return ("z", "value"), list(zip(config.space_grid, values))
        report = verify_problem(config.problem, config.time_grid)
        return report.rows()
    except ConfigError:
        raise
    except FkinError as exc:
        raise SolverError(
            f"{config.mode} evaluation failed: {exc}") from exc


def render_csv(header, rows):
    """CSV text with shortest round-trip decimals and LF line ends."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _error_record(exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def _cmd_run(args):
    config = load_config(args.config)
    out_path = args.out if args.out is not None else config.output_path
    _require(out_path is not None,
             "no output path: set output_path in the config or pass --out")
    header, rows = execute(config)
    payload = render_csv(header, rows).encode("utf-8")
    with open(out_path, "wb") as fh:
        fh.write(payload)
    digest = hashlib.sha256(payload).hexdigest()
    if (config.expected_sha256 is not None
            and digest != config.expected_sha256.lower()):
        _error_record(SolverError(
            f"output checksum {digest} does not match expected "
            f"{config.expected_sha256.lower()}"))
        return 1
    print(f"wrote {out_path}: {len(rows)} rows, sha256 {digest}")
    return 0


def _cmd_verify(args):
    results = run_all(filter=args.filter)
    if not results:
        raise ConfigError(
            f"no verification criterion matches '{args.filter}'")
    for result in results:
        print(result)
    return 0 if all(r.passed for r in results) else 1


def _cmd_eval_ml(args):
    try:
        params = MLParams(beta=args.beta, gamma_=args.gamma,
                          delta=args.delta, z=args.z)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    print(repr(float(ml_prabhakar(params))))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fkin",
        description="Closed-form fractional kinetics with built-in "
                    "numerical cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="evaluate one JSON configuration into a CSV table")
    p_run.add_argument("config", help="path to the JSON configuration")
    p_run.add_argument("--out", default=None,
                       help="output CSV path (overrides output_path)")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser(
        "verify", help="run the built-in verification criteria")
    p_verify.add_argument("--filter", default=None,
                          help="run only criteria whose name contains this")
    p_verify.set_defaults(fn=_cmd_verify)

    p_eval = sub.add_parser(
        "eval-ml", help="evaluate the three-parameter Mittag-Leffler "
                        "function at one point")
    for flag in ("--beta", "--gamma", "--delta", "--z"):
        p_eval.add_argument(flag, type=float, required=True)
    p_eval.set_defaults(fn=_cmd_eval_ml)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        _error_record(exc)
        return 2
    except FkinError as exc:
        _error_record(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
