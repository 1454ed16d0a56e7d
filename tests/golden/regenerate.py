"""Regenerate the golden ``run_experiment`` records in ``records.json``.

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --diff

``tests/test_golden.py`` recomputes every record and compares it with this
file, so any change of a random stream or an estimator shows up as an edit
of ``records.json``.  Regenerate only for such a change, and declare it.
With ``--diff`` the records are recomputed and nothing is written: for each
scheme it prints how many records differ in bytes from ``records.json`` and
the largest relative change of a float.
"""

from __future__ import annotations

import argparse
import json
import math
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


def relative_change(old, new) -> float:
    """Largest relative change of a float between two records; inf when
    anything else differs."""
    if isinstance(old, dict) and isinstance(new, dict) and sorted(old) == sorted(new):
        return max((relative_change(old[k], new[k]) for k in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return max(map(relative_change, old, new), default=0.0)
    if isinstance(old, float) and isinstance(new, float):
        return 0.0 if old == new else abs(new - old) / abs(old) if old else math.inf
    return 0.0 if type(old) is type(new) and old == new else math.inf


def report_drift() -> None:
    with open(PATH) as fh:
        stored = json.load(fh)
    drift = {}
    for old in stored:
        new = record(old["config"])
        count, differ, worst = drift.get(old["config"]["scheme"], (0, 0, 0.0))
        differ += json.dumps(new, sort_keys=True) != json.dumps(old, sort_keys=True)
        drift[old["config"]["scheme"]] = (count + 1, differ, max(worst, relative_change(old, new)))
    for scheme, (count, differ, worst) in drift.items():
        print(f"{scheme}: {differ} of {count} records differ in bytes; "
              f"largest relative float change {worst:.3g}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="regenerate the golden records")
    parser.add_argument("--diff", action="store_true",
                        help="report drift from records.json and write nothing")
    if parser.parse_args(argv).diff:
        report_drift()
        return
    with open(PATH, "w") as fh:
        json.dump([record(c) for c in configs()], fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(PATH)


if __name__ == "__main__":
    main()
