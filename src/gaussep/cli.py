"""Command-line experiment runner.

Subcommands:
    analyze  <state.json>           exact Simon-criterion analysis
    simulate --config <cfg.json>    run one scheme against ground truth
    sweep    --config <cfg.json> --axis shots|squeeze --values v1,v2,...
    randtest --n K --scheme S --shots N --seed S

Exit codes for analyze: 0 separable (boundary counts as separable),
1 entangled, 2 invalid or unsupported state, 3 malformed input.  Scheme
failures in simulate (ill-conditioned settings, too few shots, a state
method 2 cannot resolve) surface as exit 4.

simulate, sweep and randtest run every scheme through one dispatch,
:func:`_run_scheme`.

Output files land in --output-dir, defaulting to $GAUSSEP_OUTPUT_DIR or
the working directory.  Identical configs and seeds reproduce estimate
payloads byte for byte (only the wall_time_s field varies).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import GaussianState, simon_criterion, validate
from .exceptions import (
    AmbiguousRootError,
    ConditioningError,
    GaussepError,
    InsufficientShotsError,
    InvalidStateError,
    SimonTypeMismatchError,
)
from .io import load_state, parse_field, reference_params_from_dict, state_from_spec
from .locc import FiveGroupPlan, run_scheme, verdict_from_estimate
from .sampling import derive_rng
from .states import random_state
from .stokes import StokesConfig, full_pipeline
from .twocopy import OpaParams, run_two_copy

SCHEMES = (
    "locc_i",
    "locc_ii",
    "stokes",
    "twocopy_m1",
    "twocopy_m2",
    "twocopy_m3",
    "analytic",
)

_CONFIG_KEYS = {"state", "scheme", "shots", "seed", "scheme_params", "output_dir"}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise InvalidStateError("config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise InvalidStateError(f"unknown config keys {sorted(unknown)}")
    for key in ("state", "scheme", "shots", "seed"):
        if key not in config:
            raise InvalidStateError(f"config is missing required key {key!r}")
    if config["scheme"] not in SCHEMES:
        raise InvalidStateError(
            f"unknown scheme {config['scheme']!r}; expected one of {SCHEMES}"
        )
    shots, seed = config["shots"], config["seed"]
    if isinstance(shots, bool) or not isinstance(shots, int) or shots < 1:
        raise InvalidStateError("shots must be a positive integer")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidStateError("seed must be an integer")
    params = config.get("scheme_params", {}) or {}
    if not isinstance(params, dict):
        raise InvalidStateError("scheme_params must be an object")
    scheme = config["scheme"]
    allowed = set()
    if scheme == "stokes":
        allowed = {"ref_single", "ref_c", "ref_d", "phi1", "phi2_values"}
    elif scheme == "twocopy_m3":
        allowed = {"opa"}
    unknown = set(params) - allowed
    if unknown:
        raise InvalidStateError(
            f"unknown scheme_params {sorted(unknown)} for scheme {scheme!r}"
        )
    return config


def _stokes_config(params: dict) -> StokesConfig:
    kwargs = {}
    for key in ("ref_single", "ref_c", "ref_d"):
        if key in params:
            kwargs[key] = reference_params_from_dict(params[key], key)
    if "phi1" in params:
        kwargs["phi1"] = parse_field("phi1", float, params["phi1"])
    if "phi2_values" in params:
        kwargs["phi2_values"] = parse_field(
            "phi2_values", lambda v: tuple(float(x) for x in v), params["phi2_values"]
        )
    return StokesConfig(**kwargs)


def _opa_params(params: dict) -> OpaParams:
    if "opa" not in params:
        return OpaParams()
    spec = params["opa"]
    if not isinstance(spec, dict):
        raise InvalidStateError("opa must be an object")
    unknown = set(spec) - {"g1", "phi1", "g2", "phi2"}
    if unknown:
        raise InvalidStateError(f"unknown opa parameters {sorted(unknown)}")
    return OpaParams(**{key: parse_field(f"opa.{key}", float, v) for key, v in spec.items()})


def _run_scheme(state: GaussianState, scheme: str, shots: int, seed: int,
                params: dict) -> tuple[dict, np.ndarray | None]:
    """Run one scheme on a two-mode state: its estimate payload and, for
    schemes that reconstruct one, the estimated covariance matrix."""
    if scheme in ("locc_i", "locc_ii"):
        plan = FiveGroupPlan(
            shots_per_group=shots,
            variant="scheme_i" if scheme == "locc_i" else "scheme_ii",
        )
        est = run_scheme(state, plan, seed)
        return {**est.to_dict(), **verdict_from_estimate(est).to_dict()}, est.gamma_hat
    if scheme == "stokes":
        result = full_pipeline(state, _stokes_config(params), n_shots=shots, seed=seed)
        return result.to_dict(), result.gamma_hat
    if scheme.startswith("twocopy"):
        opa = _opa_params(params) if scheme == "twocopy_m3" else None
        method = scheme.replace("twocopy_m", "method")
        return run_two_copy(state, method, shots, seed, opa_params=opa).to_dict(), None
    estimate = simon_criterion(state).to_dict()
    estimate["margin_std_error"] = 0.0
    return estimate, state.cov


def run_experiment(config: dict) -> dict:
    """Execute one scheme and compare against the exact criterion."""
    config = validate_config(config)
    state = state_from_spec(config["state"])
    if state.n_modes != 2:
        raise InvalidStateError(
            f"schemes need a two-mode state, got {state.n_modes} modes"
        )
    truth = simon_criterion(state)
    started = time.perf_counter()
    estimate, gamma_hat = _run_scheme(
        state, config["scheme"], config["shots"], config["seed"],
        config.get("scheme_params", {}) or {},
    )
    wall = time.perf_counter() - started
    record = {
        "tool_version": __version__,
        "config": config,
        "ground_truth": truth.to_dict(),
        "estimate": estimate,
        "wall_time_s": wall,
    }
    if gamma_hat is not None:
        err = np.asarray(gamma_hat) - state.cov
        record["gamma_error_rms"] = float(np.sqrt(np.mean(err**2)))
        record["gamma_error_max"] = float(np.max(np.abs(err)))
    record["verdict_agrees"] = (
        _counts_as_separable(truth.verdict.value) == _counts_as_separable(estimate["verdict"])
    )
    return record


def _counts_as_separable(verdict: str) -> bool:
    """The boundary counts as separable, for the truth and for estimates."""
    return verdict in ("separable", "boundary")


def _output_dir(args) -> Path:
    if getattr(args, "output_dir", None):
        base = Path(args.output_dir)
    else:
        base = Path(os.environ.get("GAUSSEP_OUTPUT_DIR", "."))
    base.mkdir(parents=True, exist_ok=True)
    return base


def _dump_json(payload: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_analyze(args) -> int:
    try:
        state = load_state(args.state_file)
    except (OSError, json.JSONDecodeError, InvalidStateError) as exc:
        return _fail(f"cannot read state file: {exc}", 3)
    if state.n_modes != 2:
        return _fail(f"analysis needs a two-mode state, got {state.n_modes}", 2)
    if not validate(state):
        print(json.dumps({"valid": False}, sort_keys=True))
        return 2
    report = simon_criterion(state)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0 if _counts_as_separable(report.verdict.value) else 1


def _load_config(args) -> dict:
    with open(args.config) as fh:
        config = json.load(fh)
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def cmd_simulate(args) -> int:
    try:
        config = _load_config(args)
        record = run_experiment(config)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config: {exc}", 3)
    except (ConditioningError, InsufficientShotsError, SimonTypeMismatchError,
            AmbiguousRootError) as exc:
        return _fail(f"scheme failed: {exc}", 4)
    except GaussepError as exc:
        return _fail(str(exc), 3)
    out = _output_dir(args)
    _dump_json(record, out / "record.json")
    summary = out / "summary.csv"
    fields = [
        "scheme", "state_kind", "shots", "seed", "verdict_true", "verdict_est",
        "margin_true", "margin_est", "margin_std_error", "gamma_error_rms",
        "verdict_agrees",
    ]
    new_file = not summary.exists()
    with open(summary, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(fields)
        writer.writerow([
            record["config"]["scheme"],
            record["config"]["state"]["kind"],
            record["config"]["shots"],
            record["config"]["seed"],
            record["ground_truth"]["verdict"],
            record["estimate"]["verdict"],
            repr(record["ground_truth"]["margin"]),
            repr(record["estimate"]["margin"]),
            repr(record["estimate"].get("margin_std_error", 0.0)),
            repr(record.get("gamma_error_rms", "")),
            record["verdict_agrees"],
        ])
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    try:
        config = _load_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config: {exc}", 3)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        return _fail(f"bad sweep values: {exc}", 3)
    out = _output_dir(args)
    path = out / f"sweep_{args.axis}.csv"
    fields = [
        "axis", "value", "verdict_true", "verdict_est", "margin_est",
        "margin_std_error", "gamma_error_rms", "verdict_agrees", "error",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for value in values:
            point = json.loads(json.dumps(config))
            if args.axis == "shots":
                point["shots"] = int(value)
            else:
                if point["state"].get("kind") != "tmsv":
                    return _fail("squeeze sweep requires a tmsv state", 3)
                point["state"].setdefault("params", {})["r"] = value
            try:
                record = run_experiment(point)
                writer.writerow([
                    args.axis, repr(value),
                    record["ground_truth"]["verdict"],
                    record["estimate"]["verdict"],
                    repr(record["estimate"]["margin"]),
                    repr(record["estimate"].get("margin_std_error", 0.0)),
                    repr(record.get("gamma_error_rms", "")),
                    record["verdict_agrees"], "",
                ])
            except GaussepError as exc:
                writer.writerow([args.axis, repr(value), "", "", "", "", "", "", str(exc)])
    print(path)
    return 0


def cmd_randtest(args) -> int:
    counts = {
        "sep_sep": 0,
        "sep_ent": 0,
        "ent_sep": 0,
        "ent_ent": 0,
    }
    disagreements = []
    for index in range(args.n):
        state = random_state(derive_rng(args.seed, index))
        truth = simon_criterion(state)
        try:
            estimate, _ = _run_scheme(state, args.scheme, args.shots, args.seed + index, {})
        except GaussepError as exc:
            disagreements.append({"index": index, "error": str(exc)})
            continue
        true_sep = _counts_as_separable(truth.verdict.value)
        est_sep = _counts_as_separable(estimate["verdict"])
        key = f"{'sep' if true_sep else 'ent'}_{'sep' if est_sep else 'ent'}"
        counts[key] += 1
        if true_sep != est_sep:
            disagreements.append(
                {
                    "index": index,
                    "margin_true": truth.margin,
                    "margin_est": estimate["margin"],
                    "margin_std_error": estimate.get("margin_std_error", 0.0),
                }
            )
    total = sum(counts.values())
    agreement = (counts["sep_sep"] + counts["ent_ent"]) / total if total else None
    payload = {
        "n_states": args.n,
        "scheme": args.scheme,
        "shots": args.shots,
        "seed": args.seed,
        "confusion": counts,
        "agreement": agreement,
        "disagreements": disagreements,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaussep",
        description="Two-mode Gaussian separability analysis and scheme simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="exact analysis of a state file")
    p.add_argument("state_file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run one scheme from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="repeat a simulation along an axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=("shots", "squeeze"), required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("randtest", help="random states: scheme verdict vs oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_randtest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
