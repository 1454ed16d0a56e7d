import csv
import json

import numpy as np
import pytest

from gaussep import (
    GaussianState,
    ReferenceStateParams,
    displaced_squeezed_thermal,
    random_state,
    run_two_copy,
    simon_criterion,
    simon_form,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
)
from gaussep.cli import SCHEME_PARAMS, main, run_experiment, validate_config
from gaussep.exceptions import GaussepError, InvalidStateError
from gaussep.io import STATE_PARAMS, load_state, save_state, state_from_spec
from gaussep.sampling import derive_rng


@pytest.fixture
def vacuum_file(tmp_path):
    path = tmp_path / "vacuum.json"
    save_state(vacuum(2), path)
    return path


@pytest.fixture
def tmsv_file(tmp_path):
    path = tmp_path / "tmsv.json"
    save_state(two_mode_squeezed_vacuum(0.5), path)
    return path


@pytest.fixture
def invalid_file(tmp_path):
    path = tmp_path / "invalid.json"
    save_state(GaussianState(means=np.zeros(4), cov=0.1 * np.eye(4)), path)
    return path


class TestStateIO:
    def test_roundtrip(self, tmp_path):
        state = two_mode_squeezed_vacuum(0.7)
        path = tmp_path / "state.json"
        save_state(state, path)
        back = load_state(path)
        assert np.allclose(back.cov, state.cov, atol=1e-15)
        assert back.n_modes == 2

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_modes": 2, "means": [0, 0, 0, 0]}')
        with pytest.raises(InvalidStateError):
            load_state(path)

    def test_spec_kinds(self):
        assert state_from_spec({"kind": "vacuum", "params": {"n_modes": 2}}).n_modes == 2
        tmsv = state_from_spec({"kind": "tmsv", "params": {"r": 0.5}})
        assert tmsv.cov[0, 2] == pytest.approx(0.5876005968219007)
        pair = state_from_spec({"kind": "thermal", "params": {"n_bars": [1.0, 1.0]}})
        assert pair.n_modes == 2
        rand = state_from_spec({"kind": "random", "params": {"seed": 3}})
        assert rand.n_modes == 2

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ({"kind": "thermal", "params": {"n_bar": 0.5}}, thermal(0.5)),
            ({"kind": "dst", "params": {"n_bar": 0.2, "d": 1.5, "theta": 0.3}},
             displaced_squeezed_thermal(ReferenceStateParams(n_bar=0.2, d=1.5, theta=0.3))),
            ({"kind": "simon", "params": {"lambda": 1.2, "mu": 0.9, "s": 0.5, "t": -0.3}},
             simon_form(1.2, 0.9, 0.5, -0.3)),
        ],
        ids=["thermal", "dst", "simon"],
    )
    def test_spec_through_simulate(self, tmp_path, capsys, spec, expected):
        state = state_from_spec(spec)
        assert np.array_equal(state.means, expected.means)
        assert np.array_equal(state.cov, expected.cov)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"state": spec, "scheme": "analytic", "shots": 1000, "seed": 0}))
        code = main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)])
        if expected.n_modes == 1:
            assert code == 3
            assert "schemes need a two-mode state, got 1 modes" in capsys.readouterr().err
            return
        assert code == 0
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["ground_truth"] == simon_criterion(expected).to_dict()

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(InvalidStateError):
            state_from_spec({"kind": "catstate", "params": {}})
        with pytest.raises(InvalidStateError):
            state_from_spec({"kind": "tmsv", "params": {"r": 0.5, "bogus": 1}})


class TestAnalyze:
    def test_vacuum_exit_zero(self, vacuum_file, capsys):
        assert main(["analyze", str(vacuum_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "boundary"
        assert payload["margin"] == pytest.approx(0.0, abs=1e-12)

    def test_tmsv_exit_one(self, tmsv_file, capsys):
        assert main(["analyze", str(tmsv_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "entangled"

    def test_invalid_exit_two(self, invalid_file, capsys):
        assert main(["analyze", str(invalid_file)]) == 2
        assert json.loads(capsys.readouterr().out) == {"valid": False}

    def test_malformed_exit_three(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 3


class TestConfigValidation:
    def base(self):
        return {
            "state": {"kind": "tmsv", "params": {"r": 0.5}},
            "scheme": "locc_i",
            "shots": 1000,
            "seed": 1,
        }

    def test_valid_passes(self):
        validate_config(self.base())

    def test_unknown_key_rejected(self):
        config = self.base()
        config["bogus"] = 1
        with pytest.raises(InvalidStateError, match="bogus"):
            validate_config(config)

    def test_unknown_scheme_rejected(self):
        config = self.base()
        config["scheme"] = "teleport"
        with pytest.raises(InvalidStateError):
            validate_config(config)

    def test_unknown_scheme_params_rejected(self):
        config = self.base()
        config["scheme_params"] = {"opa": {}}
        with pytest.raises(InvalidStateError):
            validate_config(config)


class TestSimulate:
    def config(self, tmp_path, scheme="locc_i", shots=2000, seed=5):
        cfg = {
            "state": {"kind": "tmsv", "params": {"r": 0.5}},
            "scheme": scheme,
            "shots": shots,
            "seed": seed,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_record_written(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        code = main(
            ["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        )
        assert code == 0
        record = json.loads((tmp_path / "out" / "record.json").read_text())
        assert record["ground_truth"]["verdict"] == "entangled"
        assert record["estimate"]["verdict"] == "entangled"
        assert record["verdict_agrees"] is True
        assert "gamma_error_rms" in record
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("scheme,state_kind")
        assert len(summary) == 2

    def test_seed_override(self, tmp_path):
        cfg = self.config(tmp_path, seed=5)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--output-dir", str(out1), "--seed", "99"])
        record = json.loads((out1 / "record.json").read_text())
        assert record["config"]["seed"] == 99

    @pytest.mark.parametrize(
        "scheme", ["locc_ii", "stokes", "twocopy_m1", "twocopy_m2", "twocopy_m3", "analytic"]
    )
    def test_all_schemes_run(self, tmp_path, scheme):
        cfg = self.config(tmp_path, scheme=scheme, shots=5000)
        out = tmp_path / scheme
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["estimate"]["verdict"] in ("entangled", "separable", "boundary")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.config(tmp_path, scheme="stokes", shots=2000)
        payloads = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["simulate", "--config", str(cfg), "--output-dir", str(out)])
            record = json.loads((out / "record.json").read_text())
            record.pop("wall_time_s")
            payloads.append(json.dumps(record, sort_keys=True).encode())
        assert payloads[0] == payloads[1]

    def test_malformed_config_exit_three(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["simulate", "--config", str(path)]) == 3

    @pytest.mark.parametrize("phases", [[0, 0.3, 0.7], [0.5], []])
    def test_bad_phase_count_exit_three(self, tmp_path, capsys, phases):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "state": {"kind": "tmsv", "params": {"r": 0.5}},
                    "scheme": "stokes",
                    "shots": 2000,
                    "seed": 0,
                    "scheme_params": {"phi2_values": phases},
                }
            )
        )
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 3
        assert "phi2_values" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["stokes", "twocopy_m3"])
    def test_single_shot_exit_four(self, tmp_path, capsys, scheme):
        # one shot has no standard error
        cfg = self.config(tmp_path, scheme=scheme, shots=1, seed=1)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == 4
        assert "at least 2 shots" in capsys.readouterr().err
        assert not (out / "record.json").exists()

    def test_random_pairs_too_few_exit_four(self, tmp_path, capsys):
        cfg = self.config(tmp_path, scheme="locc_ii", shots=100, seed=0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert "scheme failed: the random quadrature pair" in err
        assert "of 400 shots, fewer than 100; increase shots" in err
        assert not (out / "record.json").exists()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"shots": True}, "shots"),
            ({"shots": 10**300}, "shots"),
            ({"shots": np.iinfo(np.intp).max // 64 + 1}, "shots"),
            ({"seed": False}, "seed"),
            ({"state": {"kind": "tmsv", "params": {"r": "x"}}}, "'r'"),
            ({"scheme": "stokes", "scheme_params": {"phi1": "x"}}, "'phi1'"),
            ({"scheme": "stokes", "scheme_params": {"phi2_values": 0.3}}, "'phi2_values'"),
            ({"scheme": "stokes", "scheme_params": {"ref_c": {"d": "x"}}}, "'ref_c.d'"),
            ({"scheme": "twocopy_m3", "scheme_params": {"opa": {"g1": "x"}}}, "'opa.g1'"),
            ({"scheme": "twocopy_m3", "scheme_params": {"opa": [1]}}, "opa must be an object"),
            # a state constructor's own error names the params given
            ({"state": {"kind": "tmsv", "params": {"r": 30}}}, "'r'"),
            ({"state": {"kind": "thermal", "params": {"n_bar": -1}}}, "'n_bar'"),
            ({"state": {"kind": "simon", "params": {"lambda": 0.5, "mu": 0.5, "s": 1, "t": 1}}},
             "'s'"),
            # a built state that violates the uncertainty bound, checked where it enters
            ({"state": {"kind": "random", "params": {"max_squeeze": 40}}},
             "state kind 'random' with params {'max_squeeze': 40}: covariance matrix violates"),
        ],
        ids=["shots", "shots-huge", "shots-too-many-rows", "seed", "r", "phi1", "phi2_values",
             "ref_c.d", "opa.g1", "opa-list", "r-not-symplectic", "n_bar-negative",
             "simon-unphysical", "random-unphysical"],
    )
    def test_malformed_value_exit_three(self, tmp_path, capsys, overrides, named):
        cfg = {"state": {"kind": "tmsv", "params": {"r": 0.5}}, "scheme": "locc_i",
               "shots": 2000, "seed": 0, **overrides}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--output-dir", str(tmp_path)]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"state": {"kind": "tmsv", "params": {"r": "0.5"}}}, "'r'"),
            ({"state": {"kind": "tmsv", "params": {"r": True}}}, "'r'"),
            ({"state": {"kind": "tmsv", "params": {"r": float("nan")}}}, "'r'"),
            ({"state": {"kind": "random", "params": {"seed": 1.7}}}, "'seed'"),
            ({"state": {"kind": "vacuum", "params": {"n_modes": 2.9}}}, "'n_modes'"),
            ({"state": {"kind": "vacuum", "params": {"n_modes": -1}}}, "'n_modes'"),
            ({"state": {"kind": "thermal", "params": {"n_bars": [1.0, "2"]}}}, "'n_bars[1]'"),
            ({"state": {"kind": "thermal", "params": {"n_bars": []}}}, "'n_bars'"),
            ({"scheme": "stokes", "scheme_params": {"ref_c": {"d": True}}}, "'ref_c.d'"),
            ({"scheme": "stokes", "scheme_params": {"phi1": float("inf")}}, "'phi1'"),
            ({"scheme": "stokes", "scheme_params": {"phi2_values": [0.3, False]}},
             "'phi2_values[1]'"),
            ({"scheme": "twocopy_m3", "scheme_params": {"opa": {"g1": float("nan")}}},
             "'opa.g1'"),
        ],
        ids=["r-string", "r-bool", "r-nan", "seed-fraction", "n_modes-fraction",
             "n_modes-negative", "n_bars-entry", "n_bars-empty", "ref_c.d-bool", "phi1-inf", "phi2_values-entry",
             "opa.g1-nan"],
    )
    def test_number_leaf_exit_three(self, tmp_path, capsys, overrides, named):
        cfg = {"state": {"kind": "tmsv", "params": {"r": 0.5}}, "scheme": "analytic",
               "shots": 2000, "seed": 0, **overrides}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--output-dir", str(tmp_path)]) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "record.json").exists()

    def test_integral_float_for_integer_leaf(self):
        as_float = state_from_spec({"kind": "random", "params": {"seed": 2.0}})
        assert np.array_equal(as_float.cov, state_from_spec(
            {"kind": "random", "params": {"seed": 2}}).cov)

    def test_simon_type_mismatch_exit_four(self, tmp_path, capsys):
        # this random state is far from Simon normal form for its swap-test
        # errors, so method 2 finds no valid root: a scheme failure, not
        # malformed input
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "state": {"kind": "random", "params": {"seed": 102}},
                    "scheme": "twocopy_m2",
                    "shots": 30000,
                    "seed": 0,
                }
            )
        )
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 4
        assert "scheme failed" in capsys.readouterr().err


_SWEEP_BASE = {"state": {"kind": "tmsv", "params": {"r": 0.5}}, "scheme": "analytic",
               "shots": 1000, "seed": 0}


class TestSweep:
    def test_shots_axis(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "state": {"kind": "tmsv", "params": {"r": 0.5}},
                    "scheme": "locc_i",
                    "shots": 1000,
                    "seed": 2,
                }
            )
        )
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--axis",
                "shots",
                "--values",
                "1000,10000",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "sweep_shots.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["verdict_est"] == "entangled"

    def test_squeeze_axis_margin_crosses_quarter(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "state": {"kind": "tmsv", "params": {"r": 0.5}},
                    "scheme": "analytic",
                    "shots": 1000,
                    "seed": 2,
                }
            )
        )
        main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--axis",
                "squeeze",
                "--values",
                "0,0.25,0.5",
                "--output-dir",
                str(tmp_path),
            ]
        )
        with open(tmp_path / "sweep_squeeze.csv") as fh:
            rows = list(csv.DictReader(fh))
        margins = [float(r["margin_est"]) for r in rows]
        # r = 0 sits on the boundary, positive squeezing strictly above
        assert margins[0] == pytest.approx(0.0, abs=1e-12)
        assert margins[1] > 0 and margins[2] > margins[1]

    def test_empty_values_header_only(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "state": {"kind": "tmsv", "params": {"r": 0.5}},
                    "scheme": "analytic",
                    "shots": 10,
                    "seed": 0,
                }
            )
        )
        main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--axis",
                "shots",
                "--values",
                "",
                "--output-dir",
                str(tmp_path),
            ]
        )
        lines = (tmp_path / "sweep_shots.csv").read_text().strip().splitlines()
        assert len(lines) == 1


    @pytest.mark.parametrize(
        "axis, values, config, named",
        [
            ("shots", "nan", _SWEEP_BASE, "--values"),
            ("shots", "inf", _SWEEP_BASE, "--values"),
            ("shots", "2.5", _SWEEP_BASE, "--values"),
            ("shots", "1000,x", _SWEEP_BASE, "--values"),
            ("shots", "1e300", _SWEEP_BASE, "shots"),
            ("squeeze", "nan", _SWEEP_BASE, "--values"),
            ("squeeze", "0.5", {**_SWEEP_BASE, "state": 5}, "state"),
            ("squeeze", "0.5", {k: v for k, v in _SWEEP_BASE.items() if k != "state"}, "state"),
            ("squeeze", "0.5", [_SWEEP_BASE], "config must be a JSON object"),
            ("squeeze", "0.5", {**_SWEEP_BASE, "state": {"kind": "tmsv", "params": 3}},
             "state.params"),
            ("squeeze", "0.5", {**_SWEEP_BASE, "shots": 2.5}, "shots"),
        ],
        ids=["nan", "inf", "fraction", "word", "huge", "squeeze-nan", "state-number", "no-state",
             "config-list", "params-number", "shots-fraction"],
    )
    def test_malformed_input_exit_three(self, tmp_path, capsys, axis, values, config, named):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv = ["sweep", "--config", str(cfg), "--axis", axis, "--values", values,
                "--output-dir", str(tmp_path)]
        assert main(argv) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / f"sweep_{axis}.csv").exists()

    def test_exponent_shot_count(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"state": {"kind": "tmsv", "params": {"r": 0.5}},
                                   "scheme": "stokes", "shots": 10, "seed": 0}))
        argv = ["sweep", "--config", str(cfg), "--axis", "shots", "--values", "1e3",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        with open(tmp_path / "sweep_shots.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["value"] == "1000.0" and row["error"] == ""
        expected = run_experiment({"state": {"kind": "tmsv", "params": {"r": 0.5}},
                                   "scheme": "stokes", "shots": 1000, "seed": 0})
        assert row["margin_est"] == repr(expected["estimate"]["margin"])
        assert row["margin_true"] == repr(expected["ground_truth"]["margin"])


class TestRandtest:
    def test_analytic_full_agreement(self, capsys):
        assert main(["randtest", "--n", "20", "--scheme", "analytic", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreement"] == 1.0
        assert sum(payload["confusion"].values()) == 20

    @pytest.mark.parametrize(
        "scheme, flag, value",
        [
            ("analytic", "--n", "0"),
            ("analytic", "--n", "-3"),
            ("locc_i", "--shots", "0"),
            ("locc_i", "--shots", "-5"),
            ("analytic", "--shots", "1" + "0" * 300),
            ("analytic", "--shots", str(np.iinfo(np.intp).max // 64 + 1)),
        ],
        ids=["n-zero", "n-negative", "shots-zero", "shots-negative", "shots-huge",
             "shots-too-many-rows"],
    )
    def test_malformed_input_exit_three(self, capsys, monkeypatch, scheme, flag, value):
        def drawn(*_):
            raise AssertionError("a state was drawn")

        monkeypatch.setattr("gaussep.cli.random_state", drawn)
        args = {"--n": "1", "--shots": "1000", flag: value}
        argv = ["randtest", "--scheme", scheme, *(x for kv in args.items() for x in kv)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_sampled_scheme_agreement(self, capsys):
        code = main(
            [
                "randtest",
                "--n",
                "10",
                "--scheme",
                "locc_i",
                "--shots",
                "20000",
                "--seed",
                "4",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreement"] >= 0.8

    def test_sampled_disagreements_and_errors(self, capsys):
        # at 50 shots per branch twocopy_m3 fails on some states and flips
        # the verdict on others
        n, seed = 20, 3
        argv = ["randtest", "--n", str(n), "--scheme", "twocopy_m3", "--shots", "50",
                "--seed", str(seed)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = payload["disagreements"]
        errors = [entry for entry in entries if "error" in entry]
        assert errors and len(errors) < len(entries)
        assert sum(payload["confusion"].values()) + len(errors) == n
        for entry in entries:
            index = entry["index"]
            state = random_state(derive_rng(seed, index))
            if "error" in entry:
                with pytest.raises(GaussepError) as raised:
                    run_two_copy(state, "method3", 50, seed + index)
                assert entry == {"index": index, "error": str(raised.value)}
                continue
            result = run_two_copy(state, "method3", 50, seed + index)
            assert entry == {"index": index, "margin_true": simon_criterion(state).margin,
                             "margin_est": result.margin,
                             "margin_std_error": result.margin_std_error}


class TestSchemeParams:
    def test_stokes_reference_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "state": {"kind": "tmsv", "params": {"r": 0.4}},
                    "scheme": "stokes",
                    "shots": 2000,
                    "seed": 6,
                    "scheme_params": {
                        "ref_c": {"d": 1.2, "theta": 0.3},
                        "ref_d": {"d": 0.8, "beta": 1.5707963267948966, "theta": 0.15},
                        "phi2_values": [0.0, 0.7853981633974483],
                    },
                }
            )
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["estimate"]["verdict"] == "entangled"

    def test_opa_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "state": {"kind": "tmsv", "params": {"r": 0.5}},
                    "scheme": "twocopy_m3",
                    "shots": 5000,
                    "seed": 7,
                    "scheme_params": {
                        "opa": {"g1": 0.4, "phi1": 0.0, "g2": 0.1, "phi2": 1.0}
                    },
                }
            )
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == 0

    def test_degenerate_opa_exit_four(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "state": {"kind": "tmsv", "params": {"r": 0.5}},
                    "scheme": "twocopy_m3",
                    "shots": 2000,
                    "seed": 7,
                    "scheme_params": {
                        "opa": {"g1": 0.3, "phi1": 0.0, "g2": 0.3, "phi2": 0.0}
                    },
                }
            )
        )
        assert main(["simulate", "--config", str(cfg)]) == 4


def _entries(table, path=()):
    """(path, entry) of every entry of an input table, nested entries and
    the item of a list entry included."""
    for key, entry in table.items():
        yield (*path, key), entry
        if isinstance(entry, dict):
            yield from _entries(entry, (*path, key))
        elif isinstance(entry, list):
            yield (*path, key, 0), entry[0]


def _params_at(path, value):
    """``value`` at ``path`` of an otherwise empty params object."""
    key, *rest = path
    if not rest:
        return {key: value}
    return {key: [value] if rest == [0] else _params_at(rest, value)}


def _path_name(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


# (object, state kind or scheme, path, entry) of every entry of both tables
_TABLE_CASES = [
    (where, owner, path, entry)
    for where, tables in (("state", STATE_PARAMS), ("scheme_params", SCHEME_PARAMS))
    for owner, table in tables.items() for path, entry in _entries(table)
]
_SIMON = {"lambda": 1.2, "mu": 0.9, "s": 0.5, "t": -0.3}


class TestInputTables:
    def _exit_three(self, tmp_path, capsys, config, named):
        """simulate and ``sweep --axis shots`` both exit 3 naming ``named``,
        and sweep writes no CSV."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = ["--output-dir", str(tmp_path)]
        assert main(["simulate", "--config", str(path), *out]) == 3, config
        assert named in capsys.readouterr().err, config
        sweep = ["sweep", "--config", str(path), "--axis", "shots", "--values", "1000", *out]
        assert main(sweep) == 3, config
        assert named in capsys.readouterr().err, config
        assert not (tmp_path / "sweep_shots.csv").exists()
        assert not (tmp_path / "record.json").exists()

    @pytest.mark.parametrize(
        "where, owner, path, entry", _TABLE_CASES,
        ids=[f"{owner}:{_path_name(path)}" for _, owner, path, _ in _TABLE_CASES],
    )
    def test_every_leaf_checked_before_anything_runs(self, tmp_path, capsys, where, owner, path,
                                                     entry):
        name = _path_name(path)
        bad = ["x", True, None, float("nan")]
        if isinstance(entry, dict):
            # {} is a valid object: every key of a table is optional
            bad, named = [*bad, [1]], f"{name} must be an object"
        else:
            bad, named = [*bad, {}, *([1.0] if isinstance(entry, list) else [])], repr(name)
        for value in bad:
            # a config that is valid but for this one entry
            config = {"state": {"kind": "tmsv", "params": {"r": 0.5}}, "scheme": "analytic",
                      "shots": 1000, "seed": 0}
            params = _params_at(path, value)
            if where == "state":
                base = _SIMON if owner == "simon" else {}
                config["state"] = {"kind": owner, "params": {**base, **params}}
            else:
                config.update(scheme=owner, scheme_params=params)
            self._exit_three(tmp_path, capsys, config, named)

    def test_unread_thermal_leaf_checked(self, tmp_path, capsys):
        # n_bar is not built when n_bars is given, but it is still checked
        spec = {"kind": "thermal", "params": {"n_bars": [0.5, 1.0], "n_bar": "x"}}
        config = {"state": spec, "scheme": "analytic", "shots": 1000, "seed": 0}
        self._exit_three(tmp_path, capsys, config, "'n_bar'")

    @pytest.mark.parametrize(
        "spec, modes",
        [
            ({"kind": "vacuum", "params": {"n_modes": 100000}}, 100000),
            ({"kind": "thermal", "params": {"n_bars": [0.5, 1.0, 2.0]}}, 3),
            ({"kind": "dst", "params": {"d": 1.0}}, 1),
        ],
        ids=["vacuum", "thermal", "dst"],
    )
    def test_mode_count_checked_before_building(self, tmp_path, capsys, monkeypatch, spec,
                                                modes):
        def built(*_):
            raise AssertionError("a state was built")

        for name in ("vacuum", "thermal", "displaced_squeezed_thermal"):
            monkeypatch.setattr(f"gaussep.io.{name}", built)
        config = {"state": spec, "scheme": "analytic", "shots": 1000, "seed": 0}
        self._exit_three(tmp_path, capsys, config,
                         f"schemes need a two-mode state, got {modes} modes")
