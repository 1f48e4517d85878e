"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from priorsid import (
    DcGain,
    EqualityConstraintSet,
    FirstOrder,
    FirstOrderDecay,
    IdentDataset,
    Integrator,
    IntegratorChannel,
    MarkovIndexing,
    MarkovSequence,
    SecondOrderRecurrence,
    StateSpaceModel,
    ZeroChannel,
    apply_similarity,
    build_fir_regression,
    compile_priors,
    constraint_residual,
    dc_gain,
    kung_realize,
    ls_equality_exact,
    ls_equality_weighted,
    ls_unconstrained,
    markov_sequence,
    prototype_markov,
    prototype_statespace,
    pulse_response,
    simulate,
    zoh_first_order,
    zoh_second_order,
)
from priorsid.cli import RunConfig, main, mc_compare
from priorsid.estimate import FirRegression
from priorsid.fileio import load_dataset, write_dataset
from helpers import (
    eig_multiset_distance,
    random_minimal_model,
    random_prototype,
    random_regression,
    random_stable_model,
    well_conditioned_transform,
)


def _report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" | {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_markov_pulse_duality():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        model = random_stable_model(rng)
        ell = int(rng.integers(0, 15))
        seq = markov_sequence(model, ell)
        for j in range(1, model.n_u + 1):
            resp = pulse_response(model, j, ell)
            worst = max(worst, float(np.max(np.abs(resp - seq.blocks[:, :, j - 1]))))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: Markov/pulse duality",
        worst <= 1e-12 and elapsed < 5.0,
        f"max deviation {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_2_similarity_invariance():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        model = random_stable_model(rng)
        T = well_conditioned_transform(rng, model.n)
        before = markov_sequence(model, 12)
        after = markov_sequence(apply_similarity(model, T), 12)
        worst = max(worst, float(np.max(np.abs(after.blocks - before.blocks))))
    _report(
        "criterion 2: similarity invariance",
        worst <= 1e-9,
        f"max deviation {worst:.3g}",
    )


def test_criterion_3_discretization_soundness():
    rng = np.random.default_rng(1003)
    worst_route = 0.0
    worst_gain = 0.0
    worst_sym = 0.0
    for trial in range(100):
        proto = random_prototype(rng, kind=trial % 5)
        Ts = float(rng.uniform(0.2, 2.0))
        ell = int(rng.integers(5, 30))
        by_recurrence = prototype_markov(proto, Ts, ell)
        model = prototype_statespace(proto, Ts)
        by_model = markov_sequence(model, ell)
        worst_route = max(
            worst_route, float(np.max(np.abs(by_recurrence.blocks - by_model.blocks)))
        )
        if isinstance(proto, FirstOrder) or trial % 5 in (3, 4):
            worst_gain = max(
                worst_gain, abs(float(dc_gain(model)[0, 0]) - proto.K)
            )
        if trial % 5 == 3:  # two-time-constant model: swap symmetry
            from priorsid import TwoTimeConstants

            swapped = TwoTimeConstants(K=proto.K, tau1=proto.tau2, tau2=proto.tau1)
            c1 = zoh_second_order(proto, Ts)
            c2 = zoh_second_order(swapped, Ts)
            worst_sym = max(
                worst_sym,
                max(
                    abs(c1.beta1 - c2.beta1),
                    abs(c1.beta0 - c2.beta0),
                    abs(c1.alpha1 - c2.alpha1),
                    abs(c1.alpha0 - c2.alpha0),
                ),
            )
    ok = worst_route <= 1e-12 and worst_gain <= 1e-9 and worst_sym <= 1e-12
    _report(
        "criterion 3: discretization soundness",
        ok,
        f"route {worst_route:.3g}, gain {worst_gain:.3g}, symmetry {worst_sym:.3g}",
    )


def test_criterion_4_constraint_soundness():
    rng = np.random.default_rng(1004)
    worst = 0.0

    for _ in range(30):
        Ts = float(rng.uniform(0.2, 2.0))
        ell = int(rng.integers(4, 41))
        idx = MarkovIndexing(n_y=1, n_u=1, ell=ell)

        # geometric decay (first-order lag), with and without the gain seed
        tau = float(rng.uniform(0.5, 20.0))
        K = float(rng.uniform(0.5, 3.0))
        seq = prototype_markov(FirstOrder(K=K, tau=tau), Ts, ell)
        for gain in (None, K):
            cs = compile_priors([FirstOrderDecay(i=1, j=1, tau=tau, gain=gain)], idx, Ts)
            worst = max(worst, constraint_residual(cs, seq))

        # constant tail (integrator channel)
        seq = prototype_markov(Integrator(K=K), Ts, ell)
        for gain in (None, K):
            cs = compile_priors([IntegratorChannel(i=1, j=1, gain=gain)], idx, Ts)
            worst = max(worst, constraint_residual(cs, seq))

        # two-term recurrence for the three second-order prototypes
        proto = random_prototype(rng, kind=int(rng.integers(2, 5)))
        coeffs = zoh_second_order(proto, Ts)
        seq = prototype_markov(proto, Ts, ell)
        for seed in (None, (coeffs.beta1, coeffs.beta0)):
            cs = compile_priors(
                [
                    SecondOrderRecurrence(
                        i=1, j=1, alpha1=coeffs.alpha1, alpha0=coeffs.alpha0, seed=seed
                    )
                ],
                idx,
                Ts,
            )
            worst = max(worst, constraint_residual(cs, seq))

    # known DC gain, in the regime where the truncated sum carries no tail
    for _ in range(10):
        K = float(rng.uniform(0.5, 3.0))
        tau = float(rng.uniform(0.5, 1.5))
        ell = 40
        idx = MarkovIndexing(n_y=1, n_u=1, ell=ell)
        seq = prototype_markov(FirstOrder(K=K, tau=tau), 1.0, ell)
        cs = compile_priors([DcGain(i=1, j=1, value=K)], idx, 1.0)
        worst = max(worst, constraint_residual(cs, seq))

    # dead input-output channel
    for _ in range(10):
        ell = int(rng.integers(1, 41))
        idx = MarkovIndexing(n_y=1, n_u=2, ell=ell)
        live = prototype_markov(random_prototype(rng), 1.0, ell)
        blocks = np.concatenate([live.blocks, np.zeros((ell + 1, 1, 1))], axis=2)
        seq = MarkovSequence(blocks=blocks, Ts=1.0)
        cs = compile_priors([ZeroChannel(i=1, j=2)], idx, 1.0)
        worst = max(worst, constraint_residual(cs, seq))

    _report(
        "criterion 4: constraint soundness",
        worst <= 1e-10,
        f"max residual {worst:.3g}",
    )


def test_criterion_5_constrained_ls_correctness():
    idx = MarkovIndexing(n_y=1, n_u=1, ell=1)
    reg = FirRegression(Psi=np.eye(2), Y=np.array([[1.0], [1.0]]), indexing=idx, Ts=1.0)
    cs = EqualityConstraintSet(
        A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([3.0]), indexing=idx,
        provenance=("hand",),
    )
    exact = ls_equality_exact(reg, cs).markov.blocks.ravel()
    hand_exact = float(np.max(np.abs(exact - 1.5)))
    weighted = ls_equality_weighted(reg, cs, 1e6).markov.blocks.ravel()
    hand_weighted = float(np.max(np.abs(weighted - 1.5)))

    rng = np.random.default_rng(1005)
    worst_gap = 0.0
    for _ in range(50):
        n_y, n_u = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        ell = int(rng.integers(1, 11))
        inst = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
        reg_i = random_regression(rng, inst, (ell + 1) * n_u + int(rng.integers(1, 12)))
        r = int(rng.integers(1, max(2, inst.size // 2)))
        A = rng.standard_normal((r, inst.size))
        b = A @ rng.standard_normal(inst.size)
        cs_i = EqualityConstraintSet(
            A_eq=A, b_eq=b, indexing=inst, provenance=tuple("r" for _ in range(r))
        )
        m_exact = inst.vec(ls_equality_exact(reg_i, cs_i).markov)
        m_weighted = inst.vec(ls_equality_weighted(reg_i, cs_i, 1e8).markov)
        worst_gap = max(worst_gap, float(np.linalg.norm(m_weighted - m_exact)))

    ok = hand_exact <= 1e-14 and hand_weighted <= 1e-5 and worst_gap <= 1e-5
    _report(
        "criterion 5: constrained LS correctness",
        ok,
        f"hand exact {hand_exact:.3g}, hand weighted {hand_weighted:.3g}, "
        f"w=1e8 gap {worst_gap:.3g}",
    )


def test_criterion_6_kung_round_trip():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    order_hits = 0
    worst_markov = 0.0
    worst_eig = 0.0
    for _ in range(100):
        model = random_minimal_model(rng)
        q = p = model.n + 2
        seq = markov_sequence(model, q + p)
        result = kung_realize(seq, q, p)
        order_hits += int(result.order == model.n)
        realized = markov_sequence(result.model, q + p - 1)
        worst_markov = max(
            worst_markov,
            float(np.linalg.norm(realized.blocks[1:] - seq.blocks[1 : q + p])),
        )
        worst_eig = max(worst_eig, eig_multiset_distance(result.model.A, model.A))
    elapsed = time.perf_counter() - start
    ok = (
        order_hits == 100
        and worst_markov <= 1e-8
        and worst_eig <= 1e-7
        and elapsed < 10.0
    )
    _report(
        "criterion 6: Kung round-trip",
        ok,
        f"order {order_hits}/100, markov {worst_markov:.3g}, eig {worst_eig:.3g}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_7_prior_benefit_benchmark():
    # scenario: first-order plant K=2, tau=10 s, Ts=1 s, ell=30, N=80,
    # white input, 10 dB output SNR, 200 seeded runs, decay prior, exact mode.
    start = time.perf_counter()
    config = RunConfig(
        Ts=1.0,
        ell=30,
        mode="exact",
        priors=[FirstOrderDecay(i=1, j=1, tau=10.0)],
        seed=20260808,
        mc_runs=200,
        snr_db=10.0,
        generator={"proto": "first_order", "gain": 2.0, "tau": 10.0},
        input_kind="white",
        n_samples=80,
    )
    _, summary = mc_compare(config)
    elapsed = time.perf_counter() - start
    mu = summary["markov_err_unconstrained"]["median"]
    mc = summary["markov_err_constrained"]["median"]
    du = summary["dc_err_unconstrained"]["median"]
    dc = summary["dc_err_constrained"]["median"]
    # regression bounds frozen from the first benchmark run:
    #   markov medians 0.3159 vs 0.0294 (margin 0.286), dc 0.1266 vs 0.1021
    ok = (
        mc < mu
        and dc < du
        and mc <= 0.05
        and (mu - mc) >= 0.15
        and dc <= 0.13
        and (du - dc) >= 0.005
        and elapsed < 60.0
    )
    _report(
        "criterion 7: prior benefit benchmark",
        ok,
        f"markov {mc:.4f} < {mu:.4f}, dc {dc:.4f} < {du:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_zero_channel_enforcement():
    rng = np.random.default_rng(1008)
    active = zoh_first_order(1.5, 3.0, 1.0)
    model = StateSpaceModel(
        A=active.A,
        B=np.hstack([active.B, np.zeros((1, 1))]),
        C=active.C,
        D=np.zeros((1, 2)),
        Ts=1.0,
    )
    U = rng.standard_normal((120, 2))
    Y = simulate(model, U)
    power = float(np.mean(Y**2))
    Y = Y + rng.standard_normal(Y.shape) * np.sqrt(power / 10.0)  # 10 dB
    data = IdentDataset(U=U, Y=Y, Ts=1.0)
    reg = build_fir_regression(data, 20)
    cs = compile_priors([ZeroChannel(i=1, j=2)], reg.indexing, 1.0)
    free = ls_unconstrained(reg)
    pinned = ls_equality_exact(reg, cs)
    norm_free = float(np.linalg.norm(free.markov.blocks[:, :, 1]))
    norm_pinned = float(np.linalg.norm(pinned.markov.blocks[:, :, 1]))
    ok = norm_free > 1e-3 and norm_pinned <= 1e-8
    _report(
        "criterion 8: zero-channel enforcement",
        ok,
        f"unconstrained channel norm {norm_free:.3g}, constrained {norm_pinned:.3g}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    sim_args = [
        "simulate", "--proto", "first_order", "--gain", "2", "--tau", "10",
        "--input", "white", "--n", "80", "--ts", "1", "--snr-db", "10",
        "--seed", "99",
    ]
    data1, data2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    assert main(sim_args + ["--output", str(data1)]) == 0
    assert main(sim_args + ["--output", str(data2)]) == 0
    datasets_identical = data1.read_bytes() == data2.read_bytes()

    priors = tmp_path / "p.json"
    priors.write_text('[{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]')
    outputs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        args = [
            "identify", "--dataset", str(data1), "--ts", "1", "--ell", "30",
            "--mode", "exact", "--priors", str(priors), "--output-dir", str(out_dir),
        ]
        assert main(args) == 0
        outputs.append(
            tuple(
                (out_dir / f).read_bytes()
                for f in ("model.txt", "markov.csv", "report.txt")
            )
        )
    identify_identical = outputs[0] == outputs[1]

    rng = np.random.default_rng(1009)
    data = IdentDataset(
        U=rng.standard_normal((30, 2)), Y=rng.standard_normal((30, 1)), Ts=0.125
    )
    path = tmp_path / "lossless.csv"
    write_dataset(path, data)
    back = load_dataset(path, Ts=0.125)
    lossless = bool(
        np.array_equal(back.U, data.U) and np.array_equal(back.Y, data.Y)
    )

    ok = datasets_identical and identify_identical and lossless
    _report(
        "criterion 9: CLI determinism and round-trip",
        ok,
        f"datasets identical {datasets_identical}, identify identical "
        f"{identify_identical}, lossless {lossless}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
