"""Every golden ``run_experiment`` record is reproduced.

Verdicts, shot counts, error types and every other non-float field must
match exactly; floats to 1e-12 relative.  The method-2 margin error is a
finite difference through a root selection and gets 1e-6.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

with open(golden.PATH) as _fh:
    RECORDS = json.load(_fh)

FLOAT_RTOL = 1e-12
LOOSE = {("twocopy_m2", "margin_std_error"): 1e-6}


def _assert_matches(expected, actual, scheme, path):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_matches(expected[key], actual[key], scheme, path + (key,))
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_matches(e, a, scheme, path + (i,))
    elif isinstance(expected, float):
        rtol = LOOSE.get((scheme, path[-1]), FLOAT_RTOL)
        assert isinstance(actual, float) and math.isclose(actual, expected, rel_tol=rtol), (
            path, expected, actual)
    else:
        assert type(actual) is type(expected) and actual == expected, (path, expected, actual)


def test_golden_covers_every_config():
    assert [r["config"] for r in RECORDS] == golden.configs()


@pytest.mark.parametrize(
    "expected", RECORDS,
    ids=["-".join([r["config"]["state"]["kind"],
                   *(f"{k}{v}" for k, v in r["config"]["state"]["params"].items()),
                   r["config"]["scheme"], str(r["config"]["shots"])]) for r in RECORDS],
)
def test_golden_record(expected):
    config = expected["config"]
    _assert_matches(expected, golden.record(config), config["scheme"], ())
