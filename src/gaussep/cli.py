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

simulate, sweep and randtest run every scheme and compare it with the
exact criterion through one helper, :func:`_compared`.  randtest runs each
scheme with its default scheme_params.

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
from .io import (
    load_state, number_field, number_list, reference_params_from_dict, state_from_spec,
)
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
# the most rows an 8-column float64 draw can have: numpy sizes arrays in intp bytes
_MAX_SHOTS = np.iinfo(np.intp).max // 64


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
    if isinstance(shots, bool) or not isinstance(shots, int) or not 1 <= shots <= _MAX_SHOTS:
        raise InvalidStateError(f"shots must be a positive integer of at most {_MAX_SHOTS}")
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
        kwargs["phi1"] = number_field("phi1", params["phi1"])
    if "phi2_values" in params:
        kwargs["phi2_values"] = tuple(number_list("phi2_values", params["phi2_values"]))
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
    return OpaParams(**{key: number_field(f"opa.{key}", v) for key, v in spec.items()})


def _compared(state: GaussianState, scheme: str, shots: int, seed: int,
              params: dict) -> dict:
    """Run one scheme on a two-mode state and compare it with the exact
    criterion: the truth, the estimate, the errors of the covariance matrix
    of schemes that reconstruct one, whether the verdicts agree, and the
    wall time of the scheme call."""
    truth = simon_criterion(state)
    gamma_hat = None
    started = time.perf_counter()
    if scheme in ("locc_i", "locc_ii"):
        plan = FiveGroupPlan(
            shots_per_group=shots,
            variant="scheme_i" if scheme == "locc_i" else "scheme_ii",
        )
        est = run_scheme(state, plan, seed)
        estimate = {**est.to_dict(), **verdict_from_estimate(est).to_dict()}
        gamma_hat = est.gamma_hat
    elif scheme == "stokes":
        result = full_pipeline(state, _stokes_config(params), n_shots=shots, seed=seed)
        estimate, gamma_hat = result.to_dict(), result.gamma_hat
    elif scheme.startswith("twocopy"):
        opa = _opa_params(params) if scheme == "twocopy_m3" else None
        method = scheme.replace("twocopy_m", "method")
        estimate = run_two_copy(state, method, shots, seed, opa_params=opa).to_dict()
    else:
        estimate = {**simon_criterion(state).to_dict(), "margin_std_error": 0.0}
        gamma_hat = state.cov
    record = {
        "ground_truth": truth.to_dict(),
        "estimate": estimate,
        "wall_time_s": time.perf_counter() - started,
    }
    if gamma_hat is not None:
        err = np.asarray(gamma_hat) - state.cov
        record["gamma_error_rms"] = float(np.sqrt(np.mean(err**2)))
        record["gamma_error_max"] = float(np.max(np.abs(err)))
    record["verdict_agrees"] = (
        _counts_as_separable(truth.verdict.value) == _counts_as_separable(estimate["verdict"])
    )
    return record


def run_experiment(config: dict) -> dict:
    """Execute one scheme and compare against the exact criterion."""
    config = validate_config(config)
    state = state_from_spec(config["state"])
    if state.n_modes != 2:
        raise InvalidStateError(
            f"schemes need a two-mode state, got {state.n_modes} modes"
        )
    return {"tool_version": __version__, "config": config,
            **_compared(state, config["scheme"], config["shots"], config["seed"],
                        config.get("scheme_params", {}) or {})}


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


# the columns that summary.csv and sweep_*.csv take from a record
_ROW_FIELDS = (
    "verdict_true", "verdict_est", "margin_true", "margin_est", "margin_std_error",
    "gamma_error_rms", "verdict_agrees",
)


def _row(record: dict) -> list:
    truth, estimate = record["ground_truth"], record["estimate"]
    return [
        truth["verdict"], estimate["verdict"], repr(truth["margin"]), repr(estimate["margin"]),
        repr(estimate["margin_std_error"]), repr(record.get("gamma_error_rms", "")),
        record["verdict_agrees"],
    ]


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
    if not isinstance(config, dict):
        raise InvalidStateError("config must be a JSON object")
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
    new_file = not summary.exists()
    config = record["config"]
    with open(summary, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["scheme", "state_kind", "shots", "seed", *_ROW_FIELDS])
        writer.writerow([config["scheme"], config["state"]["kind"], config["shots"],
                         config["seed"], *_row(record)])
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _sweep_points(config: dict, axis: str, values: str) -> list[tuple[float, dict]]:
    """(axis value, config) of every sweep point, each config validated;
    malformed input raises InvalidStateError naming --values or the key."""
    points = []
    for text in (v for v in values.split(",") if v.strip() != ""):
        try:
            value = float(text)
        except ValueError:
            value = np.nan
        if not np.isfinite(value) or axis == "shots" and (value < 1 or value != int(value)):
            kind = "a whole shot count >= 1" if axis == "shots" else "a finite number"
            raise InvalidStateError(f"--values entry {text!r} is not {kind}")
        point = json.loads(json.dumps(config))
        if axis == "shots":
            point["shots"] = int(value)
        else:
            state = point.get("state")
            if not isinstance(state, dict) or state.get("kind") != "tmsv":
                raise InvalidStateError("state must be a tmsv state for a squeeze sweep")
            params = state.setdefault("params", {})
            if not isinstance(params, dict):
                raise InvalidStateError("state.params must be an object")
            params["r"] = value
        points.append((value, validate_config(point)))
    return points


def cmd_sweep(args) -> int:
    try:
        points = _sweep_points(_load_config(args), args.axis, args.values)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config: {exc}", 3)
    except GaussepError as exc:
        return _fail(str(exc), 3)
    out = _output_dir(args)
    path = out / f"sweep_{args.axis}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", *_ROW_FIELDS, "error"])
        for value, point in points:
            try:
                row = [*_row(run_experiment(point)), ""]
            except GaussepError as exc:
                row = [""] * len(_ROW_FIELDS) + [str(exc)]
            writer.writerow([args.axis, repr(value), *row])
    print(path)
    return 0


def cmd_randtest(args) -> int:
    if not 1 <= args.shots <= _MAX_SHOTS:
        return _fail(f"--shots must be a positive integer of at most {_MAX_SHOTS}", 3)
    if args.n < 1:
        return _fail("--n must be a positive integer", 3)
    counts = {
        "sep_sep": 0,
        "sep_ent": 0,
        "ent_sep": 0,
        "ent_ent": 0,
    }
    disagreements = []
    for index in range(args.n):
        state = random_state(derive_rng(args.seed, index))
        try:
            record = _compared(state, args.scheme, args.shots, args.seed + index, {})
        except GaussepError as exc:
            disagreements.append({"index": index, "error": str(exc)})
            continue
        truth, estimate = record["ground_truth"], record["estimate"]
        counts["_".join("sep" if _counts_as_separable(r["verdict"]) else "ent"
                        for r in (truth, estimate))] += 1
        if not record["verdict_agrees"]:
            disagreements.append({"index": index, "margin_true": truth["margin"],
                                  "margin_est": estimate["margin"],
                                  "margin_std_error": estimate["margin_std_error"]})
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
