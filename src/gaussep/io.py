"""File formats: state files, state specs and reference parameters.

State files are JSON objects {"n_modes": n, "means": [...], "cov": [[...]]}
with the covariance matrix stored row-major in full (not triangular).

A state spec selects a constructor:
    {"kind": "vacuum" | "thermal" | "dst" | "tmsv" | "simon" | "random",
     "params": {...}}
"""

from __future__ import annotations

import functools
import json
import sys

import numpy as np

from .core import GaussianState, require_valid, tensor_product
from .exceptions import GaussepError, InvalidStateError
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


def number_field(key: str, value, integer: bool = False):
    """A JSON number leaf as a float, or as an int if ``integer``; a bool,
    a string, a non-finite or, for an integer field, a non-integral value
    raises InvalidStateError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif integer:
        ok = isinstance(value, int) or value.is_integer()
    else:
        ok = abs(value) <= sys.float_info.max  # false for nan, inf and huge ints
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise InvalidStateError(f"{key!r} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def number_list(key: str, values) -> list[float]:
    """A JSON list of number leaves, each checked by :func:`number_field`."""
    if not isinstance(values, list):
        raise InvalidStateError(f"{key!r} must be a list of numbers, got {values!r}")
    return [number_field(f"{key}[{i}]", v) for i, v in enumerate(values)]


def reference_params_from_dict(params: dict, key: str) -> ReferenceStateParams:
    """Reference parameters from the object stored under ``key``."""
    if not isinstance(params, dict):
        raise InvalidStateError(f"{key} must be an object")
    unknown = set(params) - {"n_bar", "d", "beta", "theta", "gamma"}
    if unknown:
        raise InvalidStateError(f"unknown {key} parameters {sorted(unknown)}")
    return ReferenceStateParams(
        **{name: number_field(f"{key}.{name}", v) for name, v in params.items()}
    )


def _check_params(kind: str, params: dict, allowed: set) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise InvalidStateError(
            f"unknown parameters {sorted(unknown)} for state kind {kind!r}"
        )


def state_from_spec(spec: dict) -> GaussianState:
    """Build a physical state from a spec dictionary; unknown keys are
    rejected.  A constructor's error, or the built state's violation of the
    uncertainty bound, is re-raised as its own type, prefixed with the kind
    and the params given."""
    if not isinstance(spec, dict) or set(spec) - {"kind", "params"}:
        raise InvalidStateError("state spec must be {'kind': ..., 'params': {...}}")
    kind = spec.get("kind")
    params = spec.get("params", {}) or {}
    if not isinstance(params, dict):
        raise InvalidStateError("state params must be an object")
    if kind not in STATE_KINDS:
        raise InvalidStateError(f"unknown state kind {kind!r}; expected {STATE_KINDS}")

    def number(key, default=None, integer=False):
        if default is None and key not in params:
            raise InvalidStateError(f"state kind {kind!r} needs parameter {key!r}")
        return number_field(key, params.get(key, default), integer)

    if kind == "vacuum":
        _check_params(kind, params, {"n_modes"})
        n_modes = number("n_modes", 2, integer=True)
        if n_modes < 1:
            raise InvalidStateError(f"'n_modes' must be at least 1, got {n_modes}")
        build = functools.partial(vacuum, n_modes)
    elif kind == "thermal":
        _check_params(kind, params, {"n_bar", "n_bars"})
        bars = (number_list("n_bars", params["n_bars"]) if "n_bars" in params
                else [number("n_bar", 0.0)])
        if not bars:
            raise InvalidStateError("'n_bars' must list at least one number")
        build = functools.partial(functools.reduce, tensor_product, map(thermal, bars))
    elif kind == "dst":
        build = functools.partial(displaced_squeezed_thermal,
                                  reference_params_from_dict(params, "dst"))
    elif kind == "tmsv":
        _check_params(kind, params, {"r"})
        build = functools.partial(two_mode_squeezed_vacuum, number("r", 0.5))
    elif kind == "simon":
        _check_params(kind, params, {"lambda", "mu", "s", "t"})
        build = functools.partial(simon_form, *(number(key) for key in ("lambda", "mu", "s", "t")))
    else:
        _check_params(kind, params, {"seed", "max_squeeze", "max_thermal"})
        build = functools.partial(random_state, number("seed", 0, integer=True),
                                  max_squeeze=number("max_squeeze", 1.0),
                                  max_thermal=number("max_thermal", 2.0))
    try:
        state = build()
        require_valid(state)
    except GaussepError as exc:
        raise type(exc)(f"state kind {kind!r} with params {params}: {exc}") from exc
    return state
