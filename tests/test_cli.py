import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import priorsid.priors
import priorsid.realize
from priorsid import (
    FirstOrderDecay,
    GainRatio,
    IdentDataset,
    InfeasibleConstraintsError,
    ZeroChannel,
    MarkovIndexing,
    StateSpaceModel,
    build_fir_regression,
    compile_priors,
    identify_pipeline,
    ls_unconstrained,
    markov_sequence,
    pulse_response,
    simulate,
    zoh_first_order,
)
from priorsid.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    MC_MODES,
    RunConfig,
    apply_delays,
    generate_input,
    main,
    mc_compare,
    run_identify,
)
from priorsid.fileio import load_dataset, priors_from_file, read_model_file, write_dataset


def make_dataset_file(tmp_path, seed=0, n=80, snr=None, tau=10.0, gain=2.0):
    rng = np.random.default_rng(seed)
    model = zoh_first_order(gain, tau, 1.0)
    U = rng.standard_normal((n, 1))
    Y = simulate(model, U)
    if snr is not None:
        power = float(np.mean(Y**2))
        Y = Y + rng.standard_normal(Y.shape) * np.sqrt(power / 10 ** (snr / 10))
    path = tmp_path / "data.csv"
    write_dataset(path, IdentDataset(U=U, Y=Y, Ts=1.0))
    return path


def write_priors_file(tmp_path, entries):
    path = tmp_path / "priors.json"
    path.write_text(json.dumps({"priors": entries}))
    return path


class TestExitCodes:
    def test_mapping(self):
        from priorsid import InfeasibleConstraintsError
        from priorsid.cli import EXIT_NUMERICAL, _exit_code

        assert _exit_code(InfeasibleConstraintsError("x")) == EXIT_INFEASIBLE
        assert _exit_code(np.linalg.LinAlgError("x")) == EXIT_NUMERICAL
        assert _exit_code(ValueError("x")) == EXIT_INPUT
        assert _exit_code(FileNotFoundError("x")) == EXIT_INPUT

    @pytest.mark.parametrize(
        "flags",
        [["identify", "--ts", "1", "--ell", "3", "--output-dir", "{tmp}/out", "--dataset"],
         ["simulate", "--n", "10", "--output", "{tmp}/x.csv", "--model-file"]],
        ids=["dataset", "model-file"],
    )
    def test_file_not_utf8_exits_2_naming_it(self, tmp_path, capsys, flags):
        # the dataset and model-file readers let the decoding error through unnamed
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"t,u1,y1\n0,1,\xff\n")
        code = main([flag.format(tmp=tmp_path) for flag in flags] + [str(bad)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "out").exists() and not (tmp_path / "x.csv").exists()


class TestGenerateInput:
    def test_kinds_and_shapes(self):
        rng = np.random.default_rng(1)
        imp = generate_input("impulse", 5, 2, rng)
        np.testing.assert_array_equal(imp[0], [1.0, 1.0])
        np.testing.assert_array_equal(imp[1:], np.zeros((4, 2)))
        np.testing.assert_array_equal(generate_input("step", 3, 1, rng), np.ones((3, 1)))
        prbs = generate_input("prbs", 100, 1, rng)
        assert set(np.unique(prbs)) <= {-1.0, 1.0}
        assert generate_input("white", 10, 3, rng).shape == (10, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown input kind"):
            generate_input("sine", 5, 1, np.random.default_rng(0))


class TestApplyDelays:
    def test_shift_with_zero_fill(self):
        U = np.arange(10.0).reshape(-1, 2)
        out = apply_delays(U, [0, 2])
        np.testing.assert_array_equal(out[:, 0], U[:, 0])
        np.testing.assert_array_equal(out[:2, 1], [0.0, 0.0])
        np.testing.assert_array_equal(out[2:, 1], U[:-2, 1])

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="delays"):
            apply_delays(np.zeros((4, 2)), [1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            apply_delays(np.zeros((4, 1)), [-1])

    def test_delay_equivalence(self):
        # estimating with a declared delay equals estimating the pre-shifted data
        rng = np.random.default_rng(157)
        model = zoh_first_order(2.0, 2.0, 1.0)
        U = rng.standard_normal((120, 1))
        U_shifted = apply_delays(U, [3])
        Y = simulate(model, U_shifted)  # the plant sees the delayed input
        ell = 25
        reg_delayed = build_fir_regression(
            IdentDataset(U=apply_delays(U, [3]), Y=Y, Ts=1.0), ell
        )
        reg_direct = build_fir_regression(IdentDataset(U=U_shifted, Y=Y, Ts=1.0), ell)
        m1 = ls_unconstrained(reg_delayed).markov.blocks
        m2 = ls_unconstrained(reg_direct).markov.blocks
        np.testing.assert_allclose(m1, m2, atol=1e-12)
        truth = markov_sequence(model, ell).blocks
        np.testing.assert_allclose(m1, truth, atol=1e-6)


class TestSimulateCommand:
    def test_impulse_no_noise_equals_pulse_response(self, tmp_path):
        out = tmp_path / "imp.csv"
        code = main(
            [
                "simulate", "--proto", "first_order", "--gain", "2", "--tau", "10",
                "--input", "impulse", "--n", "8", "--ts", "1", "--seed", "0",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        data = load_dataset(out, Ts=1.0)
        expected = pulse_response(zoh_first_order(2.0, 10.0, 1.0), 1, 7)
        np.testing.assert_allclose(data.Y, expected, atol=1e-15)

    def test_same_seed_byte_identical(self, tmp_path):
        args = [
            "simulate", "--proto", "first_order", "--gain", "2", "--tau", "10",
            "--input", "white", "--n", "50", "--ts", "1", "--snr-db", "10",
            "--seed", "42",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == EXIT_OK
        assert main(args + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_empirical_snr(self, tmp_path):
        out = tmp_path / "snr.csv"
        code = main(
            [
                "simulate", "--proto", "first_order", "--gain", "2", "--tau", "5",
                "--input", "white", "--n", "2000", "--ts", "1", "--snr-db", "10",
                "--seed", "3", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        noisy = load_dataset(out, Ts=1.0)
        clean = simulate(zoh_first_order(2.0, 5.0, 1.0), noisy.U)
        p_signal = np.mean(clean**2)
        p_noise = np.mean((noisy.Y - clean) ** 2)
        snr_db = 10 * np.log10(p_signal / p_noise)
        assert abs(snr_db - 10.0) <= 1.0

    def test_zero_output_snr_rejected(self, tmp_path):
        code = main(
            [
                "simulate", "--proto", "integrator", "--gain", "0",
                "--input", "white", "--n", "20", "--ts", "1", "--snr-db", "10",
                "--seed", "0", "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_INPUT

    def test_model_file_generator(self, tmp_path):
        from priorsid.fileio import write_model_file

        model_path = tmp_path / "m.txt"
        write_model_file(model_path, zoh_first_order(2.0, 10.0, 1.0))
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate", "--model-file", str(model_path), "--input", "step",
                "--n", "10", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        assert load_dataset(out, Ts=1.0).n_samples == 10

    @pytest.mark.parametrize("command", ["simulate", "mc-compare"])
    @pytest.mark.parametrize("ts, code", [("1", EXIT_OK), ("1.0", EXIT_OK), ("5", EXIT_INPUT)])
    def test_ts_next_to_model_file_must_match_it(self, tmp_path, capsys, command, ts, code):
        # the model file sets Ts; a ts that differs from it was once ignored
        from priorsid.fileio import write_model_file

        model_path = tmp_path / "m.txt"
        write_model_file(model_path, zoh_first_order(2.0, 10.0, 1.0))
        out = tmp_path / "out"
        argv = [command, "--model-file", str(model_path), "--ts", ts, "--n", "30"]
        if command == "simulate":
            argv += ["--output", str(out)]
        else:
            priors = write_priors_file(
                tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
            )
            argv += ["--priors", str(priors), "--ell", "10", "--mc-runs", "2",
                     "--output-dir", str(out)]
        assert main(argv) == code
        if code == EXIT_INPUT:
            assert "differs from the Ts 1 of model file" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "--proto or --model-file"),
            (["--proto", "first_order", "--gain", "2", "--tau", "10"], "--ts"),
        ],
    )
    def test_missing_generator_input(self, tmp_path, capsys, flags, message):
        code = main(["simulate", "--n", "10", "--output", str(tmp_path / "x.csv")] + flags)
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, by_config", [("simulate", False), ("mc-compare", False), ("mc-compare", True)]
    )
    def test_generator_given_twice_exits_2(self, tmp_path, capsys, command, by_config):
        from priorsid.fileio import write_model_file

        model_path = tmp_path / "m.txt"
        write_model_file(model_path, zoh_first_order(2.0, 10.0, 1.0))
        out = tmp_path / "out"
        argv = [command, "--ts", "1", "--n", "30"]
        if by_config:
            config_path = tmp_path / "cfg.json"
            config_path.write_text(json.dumps({
                "generator": {"proto": "first_order", "gain": 2.0, "tau": 10.0},
                "model_file": str(model_path),
            }))
            argv += ["--config", str(config_path)]
        else:
            argv += ["--proto", "first_order", "--gain", "2", "--tau", "10",
                     "--model-file", str(model_path)]
        if command == "simulate":
            argv += ["--output", str(out)]
        else:
            priors = write_priors_file(
                tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
            )
            argv += ["--priors", str(priors), "--ell", "10", "--mc-runs", "2",
                     "--output-dir", str(out)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--proto" in err and "--model-file" in err
        assert not out.exists()


class TestIdentifyCommand:
    def test_happy_path(self, tmp_path):
        data = make_dataset_file(tmp_path, snr=10.0)
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
        )
        out_dir = tmp_path / "out"
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "30",
                "--mode", "exact", "--priors", str(priors),
                "--output-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        report = (out_dir / "report.txt").read_text()
        assert "mode: exact" in report
        assert "constraint_rows: 30" in report
        model = read_model_file(out_dir / "model.txt")
        assert model.n >= 1

    @pytest.mark.parametrize(
        "mode, order, saturated", [("exact", 1, "false"), ("unconstrained", 15, "true")]
    )
    def test_report_flags_saturated_order(self, tmp_path, mode, order, saturated):
        data = make_dataset_file(tmp_path, snr=10.0)
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
        )
        out_dir = tmp_path / "out"
        argv = [
            "identify", "--dataset", str(data), "--ts", "1", "--ell", "30", "--mode", mode,
            "--output-dir", str(out_dir),
        ]
        if mode == "exact":
            argv += ["--priors", str(priors)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == EXIT_OK
        lines = (out_dir / "report.txt").read_text().splitlines()
        at = lines.index(f"order: {order}")
        assert lines[at + 1] == f"order_saturated: {saturated}"

    def test_noise_free_constraint_residual_in_report(self, tmp_path):
        data = make_dataset_file(tmp_path, snr=None, tau=2.0)
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 2.0}]
        )
        out_dir = tmp_path / "out"
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "30",
                "--mode", "exact", "--priors", str(priors),
                "--output-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        report = (out_dir / "report.txt").read_text()
        line = next(
            l for l in report.splitlines() if l.startswith("constraint_residual:")
        )
        assert float(line.split(":")[1]) <= 1e-8

    def test_reruns_byte_identical(self, tmp_path):
        data = make_dataset_file(tmp_path, snr=10.0)
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
        )
        outputs = []
        for name in ("o1", "o2"):
            out_dir = tmp_path / name
            assert (
                main(
                    [
                        "identify", "--dataset", str(data), "--ts", "1",
                        "--ell", "30", "--mode", "exact", "--priors", str(priors),
                        "--output-dir", str(out_dir),
                    ]
                )
                == EXIT_OK
            )
            outputs.append(
                tuple((out_dir / f).read_bytes() for f in ("model.txt", "markov.csv", "report.txt"))
            )
        assert outputs[0] == outputs[1]

    def test_empty_priors_coerced(self, tmp_path, capsys):
        data = make_dataset_file(tmp_path, snr=10.0)
        out_dir = tmp_path / "out"
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "20",
                "--mode", "exact", "--output-dir", str(out_dir), "--order", "1",
            ]
        )
        assert code == EXIT_OK
        assert "coerced to unconstrained" in capsys.readouterr().err
        assert "mode: unconstrained" in (out_dir / "report.txt").read_text()

    def test_infeasible_priors_exit_code(self, tmp_path, capsys):
        data = make_dataset_file(tmp_path, snr=10.0)
        priors = write_priors_file(
            tmp_path,
            [
                {"type": "dc_gain", "i": 1, "j": 1, "value": 2.0},
                {"type": "dc_gain", "i": 1, "j": 1, "value": 3.0},
            ],
        )
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "10",
                "--mode", "exact", "--priors", str(priors),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: the compiled constraint set is infeasible")
        assert "rank 1 of 2 rows" in err
        config = RunConfig(
            dataset=str(data), Ts=1.0, ell=10, priors=priors_from_file(priors),
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(InfeasibleConstraintsError, match="rank 1 of 2 rows"):
            run_identify(config)

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--dataset", "an input dataset path is required"),
            ("--ts", "the sampling period Ts is required"),
            ("--ell", "the Markov horizon ell is required"),
        ],
    )
    def test_required_setting_missing_exits_2(self, tmp_path, capsys, flag, message):
        settings = {"--dataset": str(tmp_path / "data.csv"), "--ts": "1", "--ell": "10"}
        del settings[flag]
        argv = ["identify", "--output-dir", str(tmp_path / "out")]
        for key, value in settings.items():
            argv += [key, value]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_delays_shift_the_input_back(self, tmp_path):
        # the input acts 2 samples late; shifted back, the data fit the undelayed plant
        rng = np.random.default_rng(0)
        model = zoh_first_order(2.0, 5.0, 1.0)
        U = rng.standard_normal((80, 1))
        late = np.vstack([np.zeros((2, 1)), U[:-2]])
        data = tmp_path / "data.csv"
        write_dataset(data, IdentDataset(U=U, Y=simulate(model, late), Ts=1.0))
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 5.0}]
        )
        out_dir = tmp_path / "out"
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "20",
                "--mode", "exact", "--priors", str(priors), "--delays", "2",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        report = (out_dir / "report.txt").read_text().splitlines()
        assert "delays: 2" in report and "order: 1" in report
        rows = np.loadtxt(out_dir / "markov.csv", delimiter=",", skiprows=1)
        truth = markov_sequence(model, 20).blocks.ravel()
        assert np.max(np.abs(rows[:, 3] - truth)) <= 1e-3

    def test_library_warning_is_one_stderr_line(self, tmp_path):
        data = make_dataset_file(tmp_path, snr=10.0)
        argv = [
            "identify", "--dataset", str(data), "--ts", "1", "--ell", "30",
            "--mode", "unconstrained", "--output-dir", str(tmp_path / "out"),
        ]
        # a caller that records warnings still receives them
        formatwarning = warnings.formatwarning
        with pytest.warns(UserWarning, match="kept all 15 states"):
            assert main(argv) == EXIT_OK
        assert warnings.formatwarning is formatwarning
        # pytest records warnings, so the console line is read from a child process
        src = str(Path(priorsid.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-m", "priorsid.cli", *argv], env=env, capture_output=True, text=True
        )
        assert child.returncode == EXIT_OK
        assert child.stderr.splitlines() == [
            "warning: automatic order selection kept all 15 states of the 15x15 block Hankel: "
            "no singular value falls below tol=1e-08 of the largest"
        ]

    def test_missing_dataset_exit_code(self, tmp_path):
        code = main(
            [
                "identify", "--dataset", str(tmp_path / "nope.csv"), "--ts", "1",
                "--ell", "10", "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT

    def test_config_file_with_flag_override(self, tmp_path):
        data = make_dataset_file(tmp_path, snr=10.0)
        config = {
            "dataset": str(data),
            "ts": 1.0,
            "ell": 30,
            "mode": "exact",
            "priors": [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}],
            "output_dir": str(tmp_path / "from_config"),
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        override_dir = tmp_path / "from_flag"
        code = main(
            ["identify", "--config", str(config_path), "--output-dir", str(override_dir)]
        )
        assert code == EXIT_OK
        assert (override_dir / "report.txt").exists()
        assert not (tmp_path / "from_config").exists()

    @pytest.mark.parametrize(
        "entry",
        [
            '{"type": "dc_gain", "i": 1, "j": 1, "value": NaN}',
            '{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0, "gain": Infinity}',
            '{"type": "gain_ratio", "i": 1, "j": 1, "p": 1, "q": 1, "ratio": -Infinity}',
        ],
    )
    def test_non_finite_prior_value_exit_code(self, tmp_path, capsys, entry):
        data = make_dataset_file(tmp_path, snr=10.0)
        priors = tmp_path / "priors.json"
        priors.write_text('{"priors": [' + entry + "]}")
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "10",
                "--mode", "exact", "--priors", str(priors),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err

    def test_fractional_channel_in_priors_file_exit_code(self, tmp_path, capsys):
        data = make_dataset_file(tmp_path, snr=10.0)
        priors = write_priors_file(tmp_path, [{"type": "dc_gain", "i": 1.7, "j": 1, "value": 2.0}])
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "10",
                "--priors", str(priors), "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT
        assert "field 'i'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"prior": [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]}',
             "must hold only the key 'priors'"),
            ('{"proto": {}}', "must hold only the key 'priors'"),
            ('[{"type": ["first_order_decay"], "i": 1, "j": 1, "tau": 10.0}]',
             "entry 0: prior key 'type' must be a string"),
            ('[{"type": "first_order_decay",', "Expecting property name"),
            ('[{"type": "zero_channel", "i": 1, "j": 1}, {"type": "dc_gain", "i": 1, "j": 1}]',
             "entry 1: prior 'dc_gain' is missing key 'value'"),
            ("[3]", "entry 0: prior entry must be a dict with a 'type' key, got 3"),
        ],
        ids=["misspelled-key", "proto-key", "kind-not-a-string", "truncated", "entry-error",
             "entry-not-a-dict"],
    )
    def test_malformed_priors_file_exit_code(self, tmp_path, capsys, text, message):
        data = make_dataset_file(tmp_path, snr=10.0)
        priors = tmp_path / "typo.json"
        priors.write_text(text)
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "30",
                "--mode", "exact", "--priors", str(priors),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {priors}: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("g", [1.0, 1e6, 1e12, 1e15])
    @pytest.mark.parametrize(
        "n_u, entries",
        [
            (2, [{"type": "zero_channel", "i": 1, "j": 1},
                 {"type": "dc_gain", "i": 1, "j": 1, "value": 1.0},
                 {"type": "dc_gain", "i": 1, "j": 2, "value": "g"}]),
            (1, [{"type": "zero_channel", "i": 1, "j": 1},
                 {"type": "dc_gain", "i": 1, "j": 1, "value": "g"}]),
        ],
    )
    def test_contradiction_refused_at_any_scale(self, tmp_path, g, n_u, entries):
        rng = np.random.default_rng(3)
        data = tmp_path / "data.csv"
        U, Y = rng.standard_normal((80, n_u)), rng.standard_normal((80, 1))
        write_dataset(data, IdentDataset(U=U, Y=Y, Ts=1.0))
        entries = [{k: g if v == "g" else v for k, v in e.items()} for e in entries]
        code = main(
            [
                "identify", "--dataset", str(data), "--ts", "1", "--ell", "30",
                "--mode", "exact", "--priors", str(write_priors_file(tmp_path, entries)),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INFEASIBLE

    def test_unknown_config_key(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text('{"bogus": 1}')
        code = main(["identify", "--config", str(config_path)])
        assert code == EXIT_INPUT

    def _identify_with_config(self, tmp_path, name, **values):
        config = {"dataset": str(make_dataset_file(tmp_path, snr=10.0)), "ts": 1.0,
                  "output_dir": str(tmp_path / name), **values}
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config))
        return main(["identify", "--config", str(config_path)])

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("order", 2.7, "config key 'order': 2.7 is not an integer"),
            ("ell", "ten", "config key 'ell'"),
            ("order_tol", "tight", "config key 'order_tol'"),
            ("mode", 5, "config key 'mode': 5 is not a str"),
            ("delays", [0.5], "config key 'delays'"),
            ("priors", 3, "config key 'priors': expected a list of prior entries, got int"),
            ("priors", {"type": "zero_channel", "i": 1, "j": 1},
             "config key 'priors': expected a list of prior entries, got dict"),
            ("priors", [{"type": "dc_gain", "i": 1, "j": 1}],
             "config key 'priors': entry 0: prior 'dc_gain' is missing key 'value'"),
        ],
    )
    def test_config_value_of_wrong_type_exit_code(self, tmp_path, capsys, key, value, message):
        code = self._identify_with_config(tmp_path, "out", **{"ell": 10, key: value})
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [('{"ell": 30,', "Expecting property name"),
         ("[30]", "config file must hold a JSON object")],
        ids=["truncated", "list"],
    )
    def test_config_file_refused(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(text)
        code = main(["identify", "--config", str(config_path), "--dataset",
                     str(make_dataset_file(tmp_path)), "--ts", "1",
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["unconstrained", "exact", "weighted"])
    def test_no_priors_solves_unconstrained_in_every_mode(self, tmp_path, capsys, mode):
        data = make_dataset_file(tmp_path, snr=10.0)
        runs = {}
        for run_mode in ("unconstrained", mode):
            out = tmp_path / run_mode
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the 15 saturated states are expected
                assert main(["identify", "--dataset", str(data), "--ts", "1", "--ell", "30",
                             "--mode", run_mode, "--output-dir", str(out)]) == EXIT_OK
            runs[run_mode] = capsys.readouterr().err
            assert "mode: unconstrained" in (out / "report.txt").read_text().splitlines()
        notice = "notice: no priors declared; mode coerced to unconstrained\n"
        assert runs[mode] == ("" if mode == "unconstrained" else notice)
        for name in ("model.txt", "markov.csv", "report.txt"):
            assert (tmp_path / mode / name).read_bytes() == (
                tmp_path / "unconstrained" / name
            ).read_bytes()

    def test_config_values_read_by_field_type(self, tmp_path):
        # an integral float is an int, and a number may be written as a string
        assert self._identify_with_config(tmp_path, "a", ell=30.0, order_tol="1e-3") == EXIT_OK
        assert self._identify_with_config(tmp_path, "b", ell=30, order_tol=1e-3) == EXIT_OK
        assert (tmp_path / "a" / "report.txt").read_bytes() == (
            tmp_path / "b" / "report.txt"
        ).read_bytes()


def _random_prior_entries():
    """Prior-file entries on 2x2 channels, with out-of-range channels, non-finite
    and degenerate values, and gains large enough to hide a contradiction
    from a scale-dependent test."""
    channel = st.sampled_from([1, 2, 1, 2, 1, 2, 3])
    finite = st.floats(-10.0, 10.0)
    value = st.one_of(finite, finite, finite, st.sampled_from(
        [0.0, 1e12, 1e15, -1e15, 5e-324, float("nan"), float("inf"), -float("inf")]
    ))
    pole = st.floats(-0.95, 0.95)

    def entry(kind, **fields):
        return st.fixed_dictionaries({"type": st.just(kind), **fields})

    return st.lists(
        st.one_of(
            entry("dc_gain", i=channel, j=channel, value=value),
            entry("gain_ratio", i=channel, j=channel, p=channel, q=channel, ratio=value),
            entry("first_order_decay", i=channel, j=channel,
                  tau=st.floats(0.5, 20.0) | value, gain=st.none() | value),
            entry("integrator", i=channel, j=channel, gain=st.none() | value),
            entry("second_order_recurrence", i=channel, j=channel, alpha1=pole | value,
                  alpha0=pole, seed=st.none() | st.tuples(value, value)),
            entry("zero_channel", i=channel, j=channel),
        ),
        min_size=1,
        max_size=6,
    )


def _residual_and_bound_scale(out_dir, priors_path):
    """The report's constraint residual and max(1, ||b_eq||, ||A_eq||_2 ||m||)."""
    report = (out_dir / "report.txt").read_text()
    residual = float(re.search(r"^constraint_residual: (\S+)$", report, re.M)[1])
    values = np.loadtxt(out_dir / "markov.csv", delimiter=",", skiprows=1, ndmin=2)[:, 3]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        indexing = MarkovIndexing(n_y=2, n_u=2, ell=10)
        cs = compile_priors(priors_from_file(priors_path), indexing, 1.0)
    scale = max(
        1.0, np.linalg.norm(cs.b_eq), np.linalg.norm(cs.A_eq, 2) * np.linalg.norm(values)
    )
    return residual, scale


class TestRandomPriorFiles:
    """Random prior files through ``identify``: a clean exit code and no
    traceback in both modes, and on exit 0 in exact mode a constraint
    residual within 1e-9 max(1, ||b_eq||, ||A_eq|| ||m||).  The last term
    keeps the bound in reach of rounding: the row of
    GainRatio(1, 1, 1, 1, 1e12) is (1 - 1e12) times a gain, so rounding m
    to doubles alone leaves a residual near 1e12 eps ||m||."""

    @settings(deadline=None)
    @given(entries=_random_prior_entries())
    def test_exit_codes_and_residuals(self, entries):
        rng = np.random.default_rng(11)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data = tmp / "data.csv"
            U, Y = rng.standard_normal((60, 2)), rng.standard_normal((60, 2))
            write_dataset(data, IdentDataset(U=U, Y=Y, Ts=1.0))
            priors = tmp / "priors.json"
            priors.write_text(json.dumps({"priors": entries}))
            for mode in ("exact", "weighted"):
                out_dir = tmp / mode
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = main([
                        "identify", "--dataset", str(data), "--ts", "1", "--ell", "10",
                        "--mode", mode, "--priors", str(priors),
                        "--output-dir", str(out_dir),
                    ])
                assert code in (EXIT_OK, EXIT_INPUT, EXIT_INFEASIBLE, EXIT_NUMERICAL)
                assert "Traceback" not in stderr.getvalue()
                if code != EXIT_OK:
                    continue
                report = (out_dir / "report.txt").read_text()
                if "constraint_infeasible: false" in report:
                    residual, scale = _residual_and_bound_scale(out_dir, priors)
                    assert residual <= (1e-9 if mode == "exact" else 1e-8) * scale

    def test_exact_residual_when_one_block_dwarfs_another(self, tmp_path):
        # found by this class's property on 3000 random examples: a rank cut at
        # the largest singular value of the whole set let the 1e15 recurrence
        # rows hide the DcGain(1, 1, 1e12) row, which was missed by 1e12
        rng = np.random.default_rng(11)
        data = tmp_path / "data.csv"
        U, Y = rng.standard_normal((60, 2)), rng.standard_normal((60, 2))
        write_dataset(data, IdentDataset(U=U, Y=Y, Ts=1.0))
        priors = write_priors_file(tmp_path, [
            {"type": "dc_gain", "i": 1, "j": 1, "value": 1e12},
            {"type": "gain_ratio", "i": 1, "j": 2, "p": 1, "q": 1, "ratio": 0.0},
            {"type": "second_order_recurrence", "i": 1, "j": 2, "alpha1": 1e15, "alpha0": 0.0},
        ])
        out_dir = tmp_path / "out"
        code = main([
            "identify", "--dataset", str(data), "--ts", "1", "--ell", "10",
            "--mode", "exact", "--priors", str(priors), "--output-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        residual, scale = _residual_and_bound_scale(out_dir, priors)
        assert residual <= 1e-9 * scale

    def test_weighted_residual_on_ill_conditioned_priors(self, tmp_path):
        # M_k = -3 M_{k-1} from M_2 = 1: cond(A_eq) = 2.9e4 at ell=10, and random
        # data misfit the prior badly; a default weight scaled by sigma_max(A_eq)
        # alone left the residual at 1.2e-8 of the scale
        rng = np.random.default_rng(11)
        data = tmp_path / "data.csv"
        U, Y = rng.standard_normal((60, 2)), rng.standard_normal((60, 2))
        write_dataset(data, IdentDataset(U=U, Y=Y, Ts=1.0))
        priors = write_priors_file(tmp_path, [{
            "type": "second_order_recurrence", "i": 1, "j": 1,
            "alpha1": 3.0, "alpha0": 0.0, "seed": [0.0, 1.0],
        }])
        out_dir = tmp_path / "out"
        code = main([
            "identify", "--dataset", str(data), "--ts", "1", "--ell", "10",
            "--mode", "weighted", "--priors", str(priors), "--output-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        residual, scale = _residual_and_bound_scale(out_dir, priors)
        assert residual <= 1e-8 * scale


class TestCompilePriorsCommand:
    def test_dump(self, tmp_path):
        priors = write_priors_file(
            tmp_path, [{"type": "zero_channel", "i": 1, "j": 1}]
        )
        out = tmp_path / "cons.csv"
        code = main(
            [
                "compile-priors", "--priors", str(priors), "--ny", "1", "--nu", "1",
                "--ell", "2", "--ts", "1", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "tag,c0,c1,c2,rhs"
        assert len(lines) == 4

    def test_one_line_per_row_for_a_dc_gain_matrix(self, tmp_path):
        # numpy writes a 2x2 array's repr over two lines; the tag keeps to one
        priors = write_priors_file(tmp_path, [
            {"type": "dc_gain_matrix", "matrix": [[2.0, 0.5], [1.0, 3.0]]},
            {"type": "zero_channel", "i": 1, "j": 2},
        ])
        out = tmp_path / "cons.csv"
        code = main([
            "compile-priors", "--priors", str(priors), "--ny", "2", "--nu", "2",
            "--ell", "2", "--ts", "1", "--output", str(out),
        ])
        assert code == EXIT_OK
        size, n_rows = 3 * 2 * 2, 4 + 3
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(out.read_text().splitlines()) == n_rows + 1
        assert len(rows) == n_rows + 1
        assert all(len(row) == size + 2 for row in rows)
        assert rows[1][0] == "DcGainMatrix(matrix=array([[2. ; 0.5]; [1. ; 3. ]]))"
        assert rows[-1][0] == "ZeroChannel(i=1; j=2)"


    @pytest.mark.parametrize(
        "ell, ts, code",
        [("3.0", "1", EXIT_OK), ("3", "1e0", EXIT_OK), ("2.7", "1", EXIT_INPUT),
         ("3", "fast", EXIT_INPUT), ("-3", "1", EXIT_INPUT), (None, "1", EXIT_INPUT),
         ("3", None, EXIT_INPUT)],
    )
    def test_ell_and_ts_read_like_config_keys(self, tmp_path, capsys, ell, ts, code):
        # the same rule as identify: "3.0" is a valid ell, "2.7" is not
        priors = write_priors_file(tmp_path, [{"type": "zero_channel", "i": 1, "j": 1}])
        out = tmp_path / "cons.csv"
        argv = ["compile-priors", "--priors", str(priors), "--ny", "1", "--nu", "1",
                "--output", str(out)]
        argv += [] if ell is None else ["--ell", ell]
        argv += [] if ts is None else ["--ts", ts]
        assert main(argv) == code
        assert out.exists() == (code == EXIT_OK)
        if code == EXIT_OK:
            assert len(out.read_text().splitlines()) == 1 + 4
        elif ell is None or ts is None:
            assert "--ts" in capsys.readouterr().err


class TestMcCompare:
    def base_config(self):
        return RunConfig(
            Ts=1.0,
            ell=20,
            mode="exact",
            priors=[],
            seed=5,
            mc_runs=8,
            snr_db=10.0,
            generator={"proto": "first_order", "gain": 2.0, "tau": 10.0},
            input_kind="white",
            n_samples=60,
        )

    def test_noise_free_ties(self):
        from priorsid import FirstOrderDecay

        # short time constant so the FIR truncation tail is far below the
        # tie tolerance; without noise both estimators then agree
        config = self.base_config()
        config.snr_db = None
        config.generator = {"proto": "first_order", "gain": 2.0, "tau": 2.0}
        config.ell = 30
        config.n_samples = 80
        config.priors = [FirstOrderDecay(i=1, j=1, tau=2.0)]
        runs, summary = mc_compare(config)
        assert summary["ties"] == len(runs)
        assert np.isnan(summary["win_rate_constrained"])

    def test_fully_pinned_truth_wins_every_run(self):
        from priorsid import EstimationWarning, FirstOrderDecay

        config = self.base_config()
        config.priors = [FirstOrderDecay(i=1, j=1, tau=10.0, gain=2.0)]
        with pytest.warns(EstimationWarning, match="fully determine"):
            runs, summary = mc_compare(config)
        for record in runs:
            assert record["markov_err_constrained"] <= 1e-10

    def test_requires_priors(self):
        config = self.base_config()
        with pytest.raises(ValueError, match="prior"):
            mc_compare(config)

    @pytest.mark.parametrize(
        "setting, message",
        [("ell", "the Markov horizon ell is required"),
         ("model_file", "the ground-truth Markov sequence is identically zero")],
        ids=["no-horizon", "zero-generator"],
    )
    def test_settings_refused(self, tmp_path, setting, message):
        from priorsid import FirstOrderDecay
        from priorsid.fileio import write_model_file

        config = self.base_config()
        config.priors = [FirstOrderDecay(i=1, j=1, tau=10.0)]
        if setting == "ell":
            config.ell = None
        else:  # B = 0: the input never reaches the output
            config.generator, config.model_file = None, str(tmp_path / "m.txt")
            write_model_file(config.model_file, StateSpaceModel(0.5, 0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match=message):
            mc_compare(config)

    def test_requires_two_runs(self):
        from priorsid import FirstOrderDecay

        config = self.base_config()
        config.priors = [FirstOrderDecay(i=1, j=1, tau=10.0)]
        config.mc_runs = 1
        with pytest.raises(ValueError, match="mc_runs"):
            mc_compare(config)

    def test_command_outputs(self, tmp_path):
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
        )
        config = {
            "generator": {"proto": "first_order", "gain": 2.0, "tau": 10.0},
            "ts": 1.0,
            "ell": 20,
            "input": "white",
            "n_samples": 60,
            "snr_db": 10.0,
            "seed": 1,
            "mc_runs": 6,
            "mode": "exact",
            "output_dir": str(tmp_path / "mc"),
        }
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        code = main(["mc-compare", "--config", str(config_path), "--priors", str(priors)])
        assert code == EXIT_OK
        runs_lines = (tmp_path / "mc" / "runs.csv").read_text().splitlines()
        assert runs_lines[0] == (
            "run,markov_err_unconstrained,markov_err_constrained,"
            "dc_err_unconstrained,dc_err_constrained"
        )
        assert len(runs_lines) == 7
        summary = (tmp_path / "mc" / "summary.txt").read_text()
        assert "monte carlo comparison over 6 runs" in summary

    @settings(deadline=None, max_examples=25)
    @given(
        generator=st.sampled_from([
            ({"proto": "first_order", "gain": 2.0, "tau": 5.0},
             {"type": "first_order_decay", "i": 1, "j": 1, "tau": 5.0}),
            ({"proto": "integrator", "gain": 1.0}, {"type": "integrator", "i": 1, "j": 1}),
        ]),
        mc_runs=st.integers(2, 6), n_samples=st.integers(10, 40),
        seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MC_MODES),
    )
    def test_summary_is_taken_over_the_records(self, generator, mc_runs, n_samples, seed, mode):
        # the integrator has no DC gain, so its runs.csv has no dc_err columns
        proto, prior = generator
        summaries = []

        def capture(config):
            summaries.append(mc_compare(config))
            return summaries[-1]

        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "mc.json"
            config.write_text(json.dumps({
                "generator": proto, "ts": 1.0, "ell": 8, "n_samples": n_samples,
                "snr_db": 10.0, "seed": seed, "mc_runs": mc_runs, "mode": mode,
                "priors": [prior], "output_dir": tmp,
            }))
            with (
                mock.patch("priorsid.cli.mc_compare", capture),
                warnings.catch_warnings(),
                contextlib.redirect_stdout(io.StringIO()),
            ):
                warnings.simplefilter("ignore")
                assert main(["mc-compare", "--config", str(config)]) == EXIT_OK
            header = (Path(tmp) / "runs.csv").read_text().splitlines()[0].split(",")
            columns = np.loadtxt(Path(tmp) / "runs.csv", delimiter=",", skiprows=1, ndmin=2)
            summary_lines = (Path(tmp) / "summary.txt").read_text().splitlines()
        [(runs, summary)] = summaries
        assert ("dc_err_constrained" in header) == (proto["proto"] == "first_order")
        assert [key for key, entry in summary.items() if isinstance(entry, dict)] == header[1:]
        for key, column in zip(header[1:], columns.T[1:]):
            q25, q50, q75 = np.percentile(column, [25.0, 50.0, 75.0])
            assert summary[key] == {"median": q50, "iqr": q75 - q25}
        outcomes = summary["wins_constrained"], summary["wins_unconstrained"], summary["ties"]
        assert sum(outcomes) == mc_runs == len(columns)
        assert [line.split(":")[0] for line in summary_lines[1:-2]] == header[1:]

    def test_schedule_independent_seeding(self):
        from priorsid import FirstOrderDecay

        config = self.base_config()
        config.priors = [FirstOrderDecay(i=1, j=1, tau=10.0)]
        runs_a, _ = mc_compare(config)
        config.mc_runs = 4  # prefix of the same run sequence
        runs_b, _ = mc_compare(config)
        for a, b in zip(runs_a[:4], runs_b):
            assert a == b


class TestComputedOnce:
    @pytest.fixture
    def consistency_calls(self, monkeypatch):
        calls = []
        original = priorsid.priors.check_consistency

        def counting(cs):
            calls.append(cs)
            return original(cs)

        monkeypatch.setattr(priorsid.priors, "check_consistency", counting)
        return calls

    @pytest.mark.parametrize("mode", ["exact", "weighted"])
    def test_one_consistency_check_per_identify(self, tmp_path, consistency_calls, mode):
        config = RunConfig(
            dataset=str(make_dataset_file(tmp_path, snr=10.0)),
            Ts=1.0,
            ell=20,
            mode=mode,
            priors=[FirstOrderDecay(i=1, j=1, tau=10.0)],
            output_dir=str(tmp_path / "out"),
        )
        run_identify(config)
        assert len(consistency_calls) == 1

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes = []
        original = np.linalg.svd

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return shapes

    def test_weighted_pipeline_factors_each_block_once(self, svd_shapes):
        rng = np.random.default_rng(3)
        data = IdentDataset(
            U=rng.standard_normal((60, 2)), Y=rng.standard_normal((60, 2)), Ts=1.0
        )
        priors = [FirstOrderDecay(i=1, j=1, tau=5.0), ZeroChannel(i=2, j=2),
                  GainRatio(i=1, j=1, p=2, q=1, ratio=0.5)]
        result = identify_pipeline(data, priors, ell=8, mode="weighted")
        cs = result.constraints
        blocks = [(len(block.rows), len(block.cols)) for block in cs.consistency.blocks]
        # (8 decay rows + 1 ratio row) x 2 channels, then 9 zero rows x 1 channel
        assert blocks == [(9, 18), (9, 9)]
        # the blocks (shared by the consistency check and the solver), the
        # solver's K (data rows x constraint rank), then the Hankel matrix
        kernel = ((60 - 8) * 2, cs.consistency.rank)
        assert svd_shapes == blocks + [kernel, (result.q * 2, result.p * 2)]

    def test_weighted_pipeline_on_short_data_factors_no_wide_matrix(self, svd_shapes, monkeypatch):
        eigh_shapes = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            eigh_shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rng = np.random.default_rng(3)
        data = IdentDataset(
            U=rng.standard_normal((14, 2)), Y=rng.standard_normal((14, 2)), Ts=1.0
        )
        priors = [FirstOrderDecay(i=1, j=1, tau=5.0), ZeroChannel(i=2, j=2),
                  GainRatio(i=1, j=1, p=2, q=1, ratio=0.5)]
        result = identify_pipeline(data, priors, ell=8, mode="weighted")
        cs = result.constraints
        blocks = [(len(block.rows), len(block.cols)) for block in cs.consistency.blocks]
        rows = (14 - 8) * 2
        assert rows < cs.consistency.rank  # K is wide: 12 data rows, rank 18
        # the solver takes one eigh of the square K K^T and no SVD of the wide K
        assert svd_shapes == blocks + [(result.q * 2, result.p * 2)]
        assert eigh_shapes == [(rows, rows)]

    def test_exact_pipeline_factors_only_blocks_and_hankel(self, svd_shapes):
        rng = np.random.default_rng(3)
        data = IdentDataset(
            U=rng.standard_normal((60, 2)), Y=rng.standard_normal((60, 2)), Ts=1.0
        )
        priors = [FirstOrderDecay(i=1, j=1, tau=5.0), ZeroChannel(i=2, j=2),
                  GainRatio(i=1, j=1, p=2, q=1, ratio=0.5)]
        result = identify_pipeline(data, priors, ell=8, mode="exact")
        cs = result.constraints
        blocks = [(len(block.rows), len(block.cols)) for block in cs.consistency.blocks]
        assert svd_shapes == blocks + [(result.q * 2, result.p * 2)]

    def test_exact_mc_compare_factors_once_per_call(self, svd_shapes):
        config = TestMcCompare().base_config()  # exact mode
        config.priors = [FirstOrderDecay(i=1, j=1, tau=10.0)]
        config.mc_runs = 5
        mc_compare(config)
        assert svd_shapes == [(20, 21)]

    def test_weighted_mc_compare_factors_once_per_call(self, svd_shapes):
        config = TestMcCompare().base_config()
        config.mode = "weighted"
        config.priors = [FirstOrderDecay(i=1, j=1, tau=10.0)]
        config.mc_runs = 5
        mc_compare(config)
        # one 20 x 21 block (M_0 and 19 decay rows at ell=20), then K of each run
        assert svd_shapes == [(20, 21)] + [(40, 20)] * 5

    def test_one_consistency_check_per_mc_compare(self, consistency_calls):
        config = TestMcCompare().base_config()
        config.priors = [FirstOrderDecay(i=1, j=1, tau=10.0)]
        config.mc_runs = 5
        mc_compare(config)
        assert len(consistency_calls) == 1


def _config_or_exit_code(argv):
    """The repr of the RunConfig that argv reads to, or 2 if a value is refused."""
    from priorsid.cli import _config_from_args, build_parser

    try:
        return repr(_config_from_args(build_parser().parse_args(argv)))
    except SystemExit as exc:  # argparse refuses a value outside the choices
        return exc.code
    except ValueError:
        return EXIT_INPUT


class TestFlagsReadLikeConfigKeys:
    """Each flag text is read as the same JSON key holding that string."""

    CASES = {
        "dataset": ["data.csv"],
        "ts": ["1", "0.25", "1e-3", "fast"],
        "ell": ["30", "-3", "30.0", "2.7", "ten"],
        "q": ["4", "x"],
        "p": ["4", "1.5"],
        "mode": ["unconstrained", "exact", "weighted"],
        "weight": ["1e6", "nan", "heavy"],
        "delays": ["0", "0,2", "3,", "1,x", "0.5"],
        "order": ["2", "2.7"],
        "order_tol": ["1e-3", "nan", "tight"],
        "output_dir": ["out"],
        "model_file": ["m.txt"],
        "input": ["impulse", "step", "prbs", "white"],
        "n_samples": ["80", "80.5"],
        "snr_db": ["10", "-inf", "inf", "loud"],
        "seed": ["7", "-1", "seven"],
        "mc_runs": ["6", "six"],
    }

    @pytest.mark.parametrize("text", ["30", "30.0", "3e1"])
    def test_integral_text_reads_like_the_number(self, text):
        assert _config_or_exit_code(["identify", f"--ell={text}"]) == repr(RunConfig(ell=30))

    def test_cases_cover_every_flag(self):
        from priorsid.cli import _FLAGS

        assert set(self.CASES) == set(_FLAGS)

    @pytest.mark.parametrize(
        "key, text", [(key, text) for key, texts in CASES.items() for text in texts]
    )
    def test_flag_and_config_key_agree(self, tmp_path, key, text):
        from priorsid.cli import _COMMANDS, _FLAGS

        flag = _FLAGS[key][0]
        command = "identify" if key in _COMMANDS["identify"] else "mc-compare"
        config_path = tmp_path / "cfg.json"
        # --delays is split on commas first, so its JSON twin is a list of strings
        value = [part for part in text.split(",") if part] if key == "delays" else text
        config_path.write_text(json.dumps({key: value}))
        from_flag = _config_or_exit_code([command, f"{flag}={text}"])
        from_config = _config_or_exit_code([command, "--config", str(config_path)])
        assert from_flag == from_config

    @pytest.mark.parametrize(
        "key, text", [("mode", "bogus"), ("mode", "unconstrained"), ("input", "sine")]
    )
    def test_value_outside_choices_exits_2_either_way(self, tmp_path, key, text):
        from priorsid.cli import _FLAGS

        base = {"generator": {"proto": "first_order", "gain": 2.0, "tau": 10.0}, "ts": 1.0,
                "ell": 10, "mc_runs": 2, "output_dir": str(tmp_path / "mc"),
                "priors": [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(base))
        with pytest.raises(SystemExit) as exc:
            main(["mc-compare", "--config", str(config_path), _FLAGS[key][0], text])
        assert exc.value.code == EXIT_INPUT
        config_path.write_text(json.dumps({**base, key: text}))
        assert main(["mc-compare", "--config", str(config_path)]) == EXIT_INPUT

    def test_flag_overrides_config_key(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"ell": 30, "delays": [1], "q": 3}))
        config = _config_or_exit_code(
            ["identify", "--config", str(config_path), "--ell", "12", "--delays", "0,2"]
        )
        assert config == repr(RunConfig(ell=12, delays=[0, 2], q=3))

    def test_bad_delays_names_the_flag(self, tmp_path, capsys):
        data = make_dataset_file(tmp_path)
        code = main([
            "identify", "--dataset", str(data), "--ts", "1", "--ell", "10",
            "--delays", "1,x", "--output-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_INPUT
        assert "--delays" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "mc-compare"])
    def test_every_prototype_field_has_a_flag(self, capsys, command):
        import dataclasses

        from priorsid.fileio import _PROTO_TYPES

        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        for name, cls in _PROTO_TYPES.items():
            keys = ["gain" if f.name == "K" else f.name for f in dataclasses.fields(cls)]
            argv = [command, "--proto", name]
            if command == "simulate":
                argv += ["--output", "x.csv"]
            for number, key in enumerate(keys, start=1):
                assert f"--{key} " in usage
                argv += [f"--{key}", str(number)]
            generator = {"proto": name, **{key: str(n) for n, key in enumerate(keys, 1)}}
            assert _config_or_exit_code(argv) == repr(RunConfig(generator=generator))

    def test_simulate_defaults_come_from_run_config(self, tmp_path):
        base = ["simulate", "--proto", "first_order", "--gain", "2", "--tau", "10",
                "--ts", "1", "--snr-db", "10"]
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        assert main(base + ["--output", str(implicit)]) == EXIT_OK
        assert main(base + ["--input", "white", "--n", "200", "--seed", "0",
                            "--output", str(explicit)]) == EXIT_OK
        assert implicit.read_bytes() == explicit.read_bytes()
        assert RunConfig().input_kind == "white"
        assert load_dataset(implicit, Ts=1.0).n_samples == RunConfig().n_samples


class TestSettingsOutOfRange:
    @pytest.mark.parametrize("tol", ["nan", "inf", "2", "1", "-1"])
    def test_order_tol_outside_unit_interval_exits_2(self, tmp_path, capsys, tol):
        data = make_dataset_file(tmp_path, snr=10.0)
        code = main([
            "identify", "--dataset", str(data), "--ts", "1", "--ell", "20",
            f"--order-tol={tol}", "--output-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_INPUT
        assert "tol must be in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, message",
        [("--q=1", "q must be at least 2"), ("--order-tol=2", "tol must be in [0, 1)"),
         ("--p=0", "q and p must be >= 1, got (q=10, p=0)")],
    )
    def test_realization_setting_refused_before_the_regressor(
        self, tmp_path, capsys, monkeypatch, flag, message
    ):
        spy = mock.Mock(wraps=priorsid.realize.build_fir_regression)
        monkeypatch.setattr(priorsid.realize, "build_fir_regression", spy)
        data = make_dataset_file(tmp_path, snr=10.0)
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
        )
        code = main([
            "identify", "--dataset", str(data), "--ts", "1", "--ell", "20",
            "--priors", str(priors), flag, "--output-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        spy.assert_not_called()
        assert not (tmp_path / "out").exists()

    def _simulate(self, tmp_path, name, *flags):
        out = tmp_path / name
        code = main(["simulate", "--proto", "first_order", "--gain", "2", "--tau", "10",
                     "--ts", "1", "--n", "30", "--output", str(out), *flags])
        return code, out

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_simulate_snr_db_not_a_level_exits_2(self, tmp_path, capsys, snr):
        code, _ = self._simulate(tmp_path, "x.csv", f"--snr-db={snr}")
        assert code == EXIT_INPUT
        assert "snr_db" in capsys.readouterr().err

    def test_simulate_infinite_snr_adds_no_noise(self, tmp_path):
        assert self._simulate(tmp_path, "clean.csv")[0] == EXIT_OK
        assert self._simulate(tmp_path, "inf.csv", "--snr-db", "inf")[0] == EXIT_OK
        assert (tmp_path / "clean.csv").read_bytes() == (tmp_path / "inf.csv").read_bytes()

    def test_simulate_negative_seed_exits_2(self, tmp_path, capsys):
        code, out = self._simulate(tmp_path, "x.csv", "--seed=-1")
        assert code == EXIT_INPUT
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--seed=-1"], "seed must be >= 0"), (["--snr-db=nan"], "snr_db"),
         (["--snr-db=-inf"], "snr_db"), (["--n=0"], "n_samples must be >= 1, got 0")],
    )
    def test_mc_compare_setting_out_of_range_exits_2(self, tmp_path, capsys, flags, message):
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
        )
        code = main([
            "mc-compare", "--proto", "first_order", "--gain", "2", "--tau", "10",
            "--ts", "1", "--ell", "10", "--n", "30", "--mc-runs", "2",
            "--priors", str(priors), "--output-dir", str(tmp_path / "mc"), *flags,
        ])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

    MC_BASE = ["mc-compare", "--proto", "first_order", "--gain", "2", "--tau", "10",
               "--ts", "1", "--ell", "10", "--n", "30", "--mc-runs", "2"]
    IDENTIFY_ONLY = {"dataset": "nothere.csv", "q": 50, "p": 4, "order": 99,
                     "order_tol": 0.5, "delays": [1]}

    @pytest.mark.parametrize("key", list(IDENTIFY_ONLY))
    def test_mc_compare_refuses_identify_only_flag(self, tmp_path, capsys, key):
        from priorsid.cli import _FLAGS

        flag = _FLAGS[key][0]
        value = self.IDENTIFY_ONLY[key]
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        with pytest.raises(SystemExit) as exc:
            main(self.MC_BASE + ["--output-dir", str(tmp_path / "mc"), flag, text])
        assert exc.value.code == EXIT_INPUT
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("key", list(IDENTIFY_ONLY))
    def test_mc_compare_refuses_identify_only_config_key(self, tmp_path, capsys, key):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({key: self.IDENTIFY_ONLY[key]}))
        priors = write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
        )
        code = main(self.MC_BASE + [
            "--config", str(config_path), "--priors", str(priors),
            "--output-dir", str(tmp_path / "mc"),
        ])
        assert code == EXIT_INPUT
        assert f"config key {key!r} is not read by mc-compare" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()


class TestCommandTable:
    """Each command reads the config keys of its entry in ``cli._COMMANDS``:
    it has their flags, lists the values it accepts as their choices, and
    refuses every other config key."""

    NOT_READ = {
        "identify": {
            "generator": {"proto": "first_order", "gain": 2.0, "tau": 10.0},
            "model_file": "m.txt", "input": "step", "n_samples": 7, "snr_db": 3.0, "seed": 5,
            "mc_runs": 3,
        },
        "mc-compare": {"dataset": "nothere.csv", "delays": [1], "q": 50, "p": 4, "order": 99,
                       "order_tol": 0.5},
    }

    def _base_config(self, tmp_path, command):
        """A config that ``command`` runs to the end."""
        config = {"ts": 1.0, "ell": 10, "output_dir": str(tmp_path / "out"),
                  "priors": [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]}
        if command == "identify":
            return config | {"dataset": str(make_dataset_file(tmp_path, snr=10.0))}
        return config | {"generator": {"proto": "first_order", "gain": 2.0, "tau": 10.0},
                         "n_samples": 30, "mc_runs": 2}

    def test_not_read_is_every_other_config_key(self):
        from priorsid.cli import _COMMANDS, _CONFIG_KEYS

        for command, keys in self.NOT_READ.items():
            assert set(keys) == set(_CONFIG_KEYS) - set(_COMMANDS[command])

    @pytest.mark.parametrize("command", list(NOT_READ))
    def test_base_config_runs(self, tmp_path, capsys, command):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(self._base_config(tmp_path, command)))
        assert main([command, "--config", str(config_path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "command, key", [(command, key) for command, keys in NOT_READ.items() for key in keys]
    )
    def test_config_key_not_read_exits_2(self, tmp_path, capsys, command, key):
        config = self._base_config(tmp_path, command) | {key: self.NOT_READ[command][key]}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert main([command, "--config", str(config_path)]) == EXIT_INPUT
        assert f"config key {key!r} is not read by {command}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    PROTO_VALUES = {"gain": "2", "tau": "10", "tau1": "5", "tau2": "20", "omega0": "0.5",
                    "xi": "0.7"}
    CHOICE_FLAGS = {"simulate": {"--input", "--proto"}, "identify": {"--mode"},
                    "mc-compare": {"--mode", "--input", "--proto"}}

    def _run(self, tmp_path, command, flag, value):
        """The exit code of a run of ``command`` that completes, with ``flag value``."""
        from priorsid.fileio import _PROTO_TYPES, _proto_params

        out = str(tmp_path / f"{command}-{flag}-{value}")
        proto = value if flag == "--proto" else "first_order"
        params = _proto_params(_PROTO_TYPES[proto]) if proto in _PROTO_TYPES else {}
        generator = ["--proto", proto] + [
            arg for key in params for arg in (f"--{key}", self.PROTO_VALUES[key])
        ]
        priors = str(write_priors_file(
            tmp_path, [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]
        ))
        argv = {
            "simulate": ["--ts", "1", "--n", "30", "--output", out, *generator],
            "identify": ["--dataset", str(make_dataset_file(tmp_path, snr=10.0)), "--ts", "1",
                         "--ell", "10", "--priors", priors, "--output-dir", out],
            "mc-compare": ["--ts", "1", "--ell", "10", "--n", "30", "--mc-runs", "2",
                           "--priors", priors, "--output-dir", out, *generator],
        }[command]
        if flag != "--proto":
            argv += [flag, value]
        try:
            return main([command, *argv])
        except SystemExit as exc:  # argparse refuses a value outside the choices
            return exc.code

    @pytest.mark.parametrize("command", list(CHOICE_FLAGS))
    def test_help_choices_are_the_values_accepted(self, tmp_path, capsys, command):
        from priorsid.cli import INPUT_KINDS
        from priorsid.fileio import _PROTO_TYPES
        from priorsid.estimate import MODES

        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        listed = {
            flag: set(values.split(","))
            for flag, values in re.findall(r"^ +(--[\w-]+) \{([\w,]+)\}", usage, re.M)
        }
        assert set(listed) == self.CHOICE_FLAGS[command]
        candidates = {"--mode": [*MODES, "bogus"], "--input": [*INPUT_KINDS, "sine"],
                      "--proto": [*_PROTO_TYPES, "bogus"]}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            accepted = {
                flag: {value for value in candidates[flag]
                       if self._run(tmp_path, command, flag, value) == EXIT_OK}
                for flag in listed
            }
        assert accepted == listed
