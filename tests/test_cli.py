import json

import numpy as np
import pytest

import priorsid.priors
from priorsid import (
    FirstOrderDecay,
    IdentDataset,
    build_fir_regression,
    ls_unconstrained,
    markov_sequence,
    pulse_response,
    simulate,
    zoh_first_order,
)
from priorsid.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    RunConfig,
    apply_delays,
    generate_input,
    main,
    mc_compare,
    run_identify,
)
from priorsid.fileio import load_dataset, read_model_file, write_dataset


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
        assert "infeasible" in err
        assert "rank 1 of 2 rows" in err

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

    def test_unknown_config_key(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text('{"bogus": 1}')
        code = main(["identify", "--config", str(config_path)])
        assert code == EXIT_INPUT


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
        assert runs_lines[0].startswith("run,markov_err_unconstrained")
        assert len(runs_lines) == 7
        summary = (tmp_path / "mc" / "summary.txt").read_text()
        assert "monte carlo comparison over 6 runs" in summary

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

    def test_one_consistency_check_per_mc_compare(self, consistency_calls):
        config = TestMcCompare().base_config()
        config.priors = [FirstOrderDecay(i=1, j=1, tau=10.0)]
        config.mc_runs = 5
        mc_compare(config)
        assert len(consistency_calls) == 1
