"""Regenerate the golden ``run_experiment`` records in ``records.json``.

    PYTHONPATH=src python tests/golden/regenerate.py

``tests/test_golden.py`` recomputes every record and compares it with this
file, so any change of a random stream or an estimator shows up as an edit
of ``records.json``.  Regenerate only for such a change, and declare it.
"""

from __future__ import annotations

import json
from pathlib import Path

from gaussep.cli import SCHEMES, run_experiment
from gaussep.exceptions import GaussepError

PATH = Path(__file__).resolve().parent / "records.json"
STATES = (
    {"kind": "tmsv", "params": {"r": 0.5}},
    {"kind": "random", "params": {"seed": 11}},
    {"kind": "random", "params": {"seed": 12}},
)
SHOTS = (2000, 20000)
SEED = 41


def configs() -> list[dict]:
    return [
        {"state": state, "scheme": scheme, "shots": shots, "seed": SEED}
        for state in STATES for scheme in SCHEMES for shots in SHOTS
    ]


def record(config: dict) -> dict:
    """The JSON form of one run, without its wall time; a scheme failure is
    kept as the name of the error it raised."""
    try:
        result = run_experiment(json.loads(json.dumps(config)))
    except GaussepError as exc:
        return {"config": config, "error": type(exc).__name__}
    result.pop("wall_time_s")
    return json.loads(json.dumps(result))


def main() -> None:
    with open(PATH, "w") as fh:
        json.dump([record(c) for c in configs()], fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(PATH)


if __name__ == "__main__":
    main()
