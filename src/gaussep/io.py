"""File formats: state files, state specs and the tables that check them.

State files are JSON objects {"n_modes": n, "means": [...], "cov": [[...]]}
with the covariance matrix stored row-major in full (not triangular).  A
state spec {"kind": ..., "params": {...}} selects a constructor by kind.

Each accepted params object is a table: key to ``float``, ``int``, a
one-entry list or a nested table.  ``STATE_PARAMS`` holds one per state
kind; the ``dst`` kind and the Stokes references of
``gaussep.cli.SCHEME_PARAMS`` share ``REFERENCE_PARAMS``.  The one walker,
:func:`checked`, rejects non-objects and unknown keys and passes every
leaf through :func:`number_field`, named below the walked object
(``'r'``, ``'ref_c.d'``, ``'n_bars[1]'``).
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

REFERENCE_PARAMS = {"n_bar": float, "d": float, "beta": float, "theta": float, "gamma": float}
STATE_PARAMS = {
    "vacuum": {"n_modes": int},
    "thermal": {"n_bar": float, "n_bars": [float]},
    "dst": REFERENCE_PARAMS,
    "tmsv": {"r": float},
    "simon": {"lambda": float, "mu": float, "s": float, "t": float},
    "random": {"seed": int, "max_squeeze": float, "max_thermal": float},
}
STATE_KINDS = tuple(STATE_PARAMS)


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


def checked(table, value, name: str, owner: str, key: str):
    """``value`` held to ``table``, its leaves converted by
    :func:`number_field`.  ``name`` names the walked object and ``owner``
    the state kind or scheme it sets; a nested object or a leaf is named
    by its ``key`` below the walked object, "" for the object itself."""
    if isinstance(table, list):
        if not isinstance(value, list):
            raise InvalidStateError(f"{key!r} must be a list of numbers, got {value!r}")
        return [checked(table[0], v, name, owner, f"{key}[{i}]") for i, v in enumerate(value)]
    if not isinstance(table, dict):
        return number_field(key, value, integer=table is int)
    if not isinstance(value, dict):
        raise InvalidStateError(f"{key or name} must be an object")
    unknown = set(value) - set(table)
    if unknown:
        raise InvalidStateError(f"unknown {key + ' ' if key else ''}parameters "
                                f"{sorted(unknown)} for {owner}")
    return {k: checked(table[k], v, name, owner, f"{key}.{k}" if key else k)
            for k, v in value.items()}


def checked_spec(spec) -> tuple[str, dict]:
    """The kind of a state spec and its params held to the kind's table,
    with the required and range checks no table holds; nothing is built."""
    if not isinstance(spec, dict) or set(spec) - {"kind", "params"}:
        raise InvalidStateError("state spec must be {'kind': ..., 'params': {...}}")
    kind = spec.get("kind")
    if kind not in STATE_KINDS:
        raise InvalidStateError(f"unknown state kind {kind!r}; expected {STATE_KINDS}")
    params = checked(STATE_PARAMS[kind], spec.get("params") or {}, "state.params",
                     f"state kind {kind!r}", "")
    for key in STATE_PARAMS[kind] if kind == "simon" else ():
        if key not in params:
            raise InvalidStateError(f"state kind {kind!r} needs parameter {key!r}")
    if params.get("n_modes", 1) < 1:
        raise InvalidStateError(f"'n_modes' must be at least 1, got {params['n_modes']}")
    if params.get("n_bars") == []:
        raise InvalidStateError("'n_bars' must list at least one number")
    return kind, params


def spec_label(spec: dict) -> str:
    """How messages name a spec: its kind and its params as given."""
    return f"state kind {spec['kind']!r} with params {spec.get('params') or {}}"


def mode_count(kind: str, params: dict) -> int:
    """The number of modes a checked spec builds, read without building it."""
    return {"vacuum": params.get("n_modes", 2), "thermal": len(params.get("n_bars", [None])),
            "dst": 1}.get(kind, 2)


_BUILDERS = {
    "vacuum": lambda p: vacuum(p.get("n_modes", 2)),
    "thermal": lambda p: functools.reduce(
        tensor_product, map(thermal, p.get("n_bars", [p.get("n_bar", 0.0)]))),
    "dst": lambda p: displaced_squeezed_thermal(ReferenceStateParams(**p)),
    "tmsv": lambda p: two_mode_squeezed_vacuum(p.get("r", 0.5)),
    "simon": lambda p: simon_form(p["lambda"], p["mu"], p["s"], p["t"]),
    "random": lambda p: random_state(p.get("seed", 0), max_squeeze=p.get("max_squeeze", 1.0),
                                     max_thermal=p.get("max_thermal", 2.0)),
}


def state_from_spec(spec: dict) -> GaussianState:
    """Build a physical state from a spec held by :func:`checked_spec`.  A
    constructor's error, or the built state's violation of the uncertainty
    bound, is re-raised as its own type, prefixed with the kind and the
    params given."""
    kind, params = checked_spec(spec)
    try:
        state = _BUILDERS[kind](params)
        require_valid(state)
    except GaussepError as exc:
        raise type(exc)(f"{spec_label(spec)}: {exc}") from exc
    return state
