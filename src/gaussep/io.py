"""File formats: state files, state specs and reference parameters.

State files are JSON objects {"n_modes": n, "means": [...], "cov": [[...]]}
with the covariance matrix stored row-major in full (not triangular).

A state spec selects a constructor:
    {"kind": "vacuum" | "thermal" | "dst" | "tmsv" | "simon" | "random",
     "params": {...}}
"""

from __future__ import annotations

import json

import numpy as np

from .core import GaussianState, tensor_product
from .exceptions import InvalidStateError
from .states import (
    ReferenceStateParams,
    displaced_squeezed_thermal,
    random_state,
    simon_form,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
)

STATE_KINDS = ("vacuum", "thermal", "dst", "tmsv", "simon", "random")


def save_state(state: GaussianState, path) -> None:
    payload = {
        "n_modes": state.n_modes,
        "means": state.means.tolist(),
        "cov": state.cov.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_state(path) -> GaussianState:
    with open(path) as fh:
        payload = json.load(fh)
    return state_from_payload(payload)


def state_from_payload(payload: dict) -> GaussianState:
    if not isinstance(payload, dict):
        raise InvalidStateError("state file must contain a JSON object")
    missing = {"n_modes", "means", "cov"} - set(payload)
    if missing:
        raise InvalidStateError(f"state file is missing keys {sorted(missing)}")
    n_modes = payload["n_modes"]
    means = np.asarray(payload["means"], dtype=float)
    cov = np.asarray(payload["cov"], dtype=float)
    if means.shape != (2 * n_modes,) or cov.shape != (2 * n_modes, 2 * n_modes):
        raise InvalidStateError(
            f"inconsistent shapes for n_modes={n_modes}: "
            f"means {means.shape}, cov {cov.shape}"
        )
    return GaussianState(means=means, cov=cov)


def parse_field(key: str, parse, value):
    """``parse(value)``; a value of the wrong type or form raises
    InvalidStateError naming ``key``."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"malformed value {value!r} for {key!r}: {exc}") from None


def reference_params_from_dict(params: dict, key: str) -> ReferenceStateParams:
    """Reference parameters from the object stored under ``key``."""
    if not isinstance(params, dict):
        raise InvalidStateError(f"{key} must be an object")
    unknown = set(params) - {"n_bar", "d", "beta", "theta", "gamma"}
    if unknown:
        raise InvalidStateError(f"unknown {key} parameters {sorted(unknown)}")
    return ReferenceStateParams(
        **{name: parse_field(f"{key}.{name}", float, v) for name, v in params.items()}
    )


def _check_params(kind: str, params: dict, allowed: set) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise InvalidStateError(
            f"unknown parameters {sorted(unknown)} for state kind {kind!r}"
        )


def state_from_spec(spec: dict) -> GaussianState:
    """Build a state from a spec dictionary; unknown keys are rejected."""
    if not isinstance(spec, dict) or set(spec) - {"kind", "params"}:
        raise InvalidStateError(
            "state spec must be {'kind': ..., 'params': {...}}"
        )
    kind = spec.get("kind")
    params = spec.get("params", {}) or {}
    if not isinstance(params, dict):
        raise InvalidStateError("state params must be an object")
    if kind not in STATE_KINDS:
        raise InvalidStateError(f"unknown state kind {kind!r}; expected {STATE_KINDS}")

    def number(key, default=None, parse=float):
        if default is None and key not in params:
            raise InvalidStateError(f"state kind {kind!r} needs parameter {key!r}")
        return parse_field(key, parse, params.get(key, default))

    if kind == "vacuum":
        _check_params(kind, params, {"n_modes"})
        return vacuum(number("n_modes", 2, int))
    if kind == "thermal":
        _check_params(kind, params, {"n_bar", "n_bars"})
        if "n_bars" in params:
            bars = number("n_bars", parse=lambda v: [float(b) for b in v])
            state = thermal(bars[0])
            for nb in bars[1:]:
                state = tensor_product(state, thermal(nb))
            return state
        return thermal(number("n_bar", 0.0))
    if kind == "dst":
        return displaced_squeezed_thermal(reference_params_from_dict(params, "dst"))
    if kind == "tmsv":
        _check_params(kind, params, {"r"})
        return two_mode_squeezed_vacuum(number("r", 0.5))
    if kind == "simon":
        _check_params(kind, params, {"lambda", "mu", "s", "t"})
        return simon_form(*(number(key) for key in ("lambda", "mu", "s", "t")))
    _check_params(kind, params, {"seed", "max_squeeze", "max_thermal"})
    return random_state(
        number("seed", 0, int),
        max_squeeze=number("max_squeeze", 1.0),
        max_thermal=number("max_thermal", 2.0),
    )
