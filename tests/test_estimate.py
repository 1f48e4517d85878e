import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from priorsid import (
    DcGain,
    EqualityConstraintSet,
    EstimationWarning,
    FirRegression,
    FirstOrderDecay,
    GainRatio,
    IdentDataset,
    InfeasibleConstraintsError,
    IntegratorChannel,
    MarkovIndexing,
    SecondOrderRecurrence,
    ZeroChannel,
    build_fir_regression,
    compile_priors,
    default_weight,
    ls_equality_exact,
    ls_equality_weighted,
    ls_unconstrained,
    markov_sequence,
    simulate,
)
from helpers import (
    block_bases,
    compile_quietly,
    dense_fir_regression,
    kkt_solve,
    mp_weighted_solution,
    prior_sets,
    random_regression,
    random_stable_model,
    stacked_weighted_lstsq,
)


def toy_regression():
    """Psi = Phi = I2, Y = [1, 1] over a SISO ell=1 indexing."""
    return FirRegression(
        Psi=np.eye(2),
        Y=np.array([[1.0], [1.0]]),
        indexing=MarkovIndexing(n_y=1, n_u=1, ell=1),
        Ts=1.0,
    )


def toy_constraint(rhs=3.0):
    """Single constraint m_0 + m_1 = rhs on the toy indexing."""
    return EqualityConstraintSet(
        A_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([rhs]),
        indexing=MarkovIndexing(n_y=1, n_u=1, ell=1),
        provenance=("toy",),
    )


def simulated_dataset(rng, model, n_samples):
    U = rng.standard_normal((n_samples, model.n_u))
    return IdentDataset(U=U, Y=simulate(model, U), Ts=model.Ts)


def assert_matches_stacked_oracle(reg, cs, weight):
    """The weighted estimate against one lstsq of the stacked system.

    The estimates may differ by the forward error bound of a least-squares
    solve (Golub & Van Loan, Thm 5.3.1), eps (2 cond / cos(theta) +
    cond^2 tan(theta)) with sin(theta) = ||residual|| / ||rhs||, times 10,
    and by at least 1e-12.  With a small residual that is 10 cond eps; a
    large one (contradictory rows under a large weight) or a fit far
    below the right-hand side (homogeneous rows that pin m near 0) lets
    the stacked solve itself drift.  The objective must not exceed the
    oracle's by more than 1e-12 relative.
    """
    result = ls_equality_weighted(reg, cs, weight)
    m = cs.indexing.vec(result.markov)
    m_ref, bound, objective = stacked_forward_error(reg, cs, result.diagnostics["weight"])
    assert np.linalg.norm(m - m_ref) <= bound * np.linalg.norm(m_ref)
    assert objective(m) <= objective(m_ref) * (1 + 1e-12)


def stacked_forward_error(reg, cs, weight):
    """One lstsq of the stacked system at ``weight``: its solution, the
    relative forward-error gate of :func:`assert_matches_stacked_oracle`
    and the stacked objective."""
    m_ref, stacked, rhs, _, s = stacked_weighted_lstsq(
        reg.Phi, reg.Yvec, cs.A_eq, cs.b_eq, weight
    )
    fit, residual = np.linalg.norm(stacked @ m_ref), np.linalg.norm(stacked @ m_ref - rhs)
    cond = s[0] / s[-1]
    with np.errstate(divide="ignore"):
        cos, tan = fit / np.linalg.norm(rhs), residual / fit
    bound = 10 * np.finfo(float).eps * (2 * cond / cos + cond**2 * tan)

    def objective(v):
        return np.linalg.norm(stacked @ v - rhs) ** 2

    return m_ref, max(1e-12, bound), objective


def assert_matches_50_digit_solution(cs, rows, rng, weight):
    """On ``rows`` random data rows, the weighted estimate within 1e-12
    relative of the 50-digit minimizer.

    With fewer data rows than the constraint rank, one double lstsq of the
    stacked system (``assert_matches_stacked_oracle``) can be off by 1e-8,
    so the judge is the stacked problem solved in mpmath.
    """
    reg = random_regression(rng, cs.indexing, rows // cs.indexing.n_y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EstimationWarning)
        result = ls_equality_weighted(reg, cs, weight)
    m = cs.indexing.vec(result.markov)
    m_ref = mp_weighted_solution(
        reg.Phi, reg.Yvec, cs.A_eq, cs.b_eq, result.diagnostics["weight"]
    )
    assert np.linalg.norm(m - m_ref) <= 1e-12 * np.linalg.norm(m_ref)


@st.composite
def short_data_prior_sets(draw):
    """A prior on each channel of a 2x2 system, each leaving at most two
    lags free, and a GainRatio that joins two distinct channels."""
    gain = st.none() | st.floats(-10.0, 10.0)
    pole = st.floats(-0.95, 0.95)
    priors = []
    for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        kind = draw(st.sampled_from(["decay", "integrator", "recurrence", "zero"]))
        if kind == "decay":
            priors.append(FirstOrderDecay(i, j, tau=draw(st.floats(0.5, 20.0)), gain=draw(gain)))
        elif kind == "integrator":
            priors.append(IntegratorChannel(i, j, gain=draw(gain)))
        elif kind == "recurrence":
            p1, p2 = draw(pole), draw(pole)
            priors.append(SecondOrderRecurrence(i, j, alpha1=-(p1 + p2), alpha0=p1 * p2))
        else:
            priors.append(ZeroChannel(i, j))
    (i, j), (p, q) = draw(st.permutations([(1, 1), (1, 2), (2, 1), (2, 2)]))[:2]
    ratio = draw(st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))
    return priors + [GainRatio(i, j, p, q, ratio=ratio)]


class TestBuildFirRegression:
    def test_impulse_regressor(self):
        ell = 4
        U = np.zeros((ell + 1, 1))
        U[0, 0] = 1.0
        data = IdentDataset(U=U, Y=np.zeros((ell + 1, 1)), Ts=1.0)
        reg = build_fir_regression(data, ell)
        assert reg.Phi.shape == (1, ell + 1)
        np.testing.assert_array_equal(reg.Phi[0], [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_noise_free_consistency(self):
        rng = np.random.default_rng(67)
        model = random_stable_model(rng, n=3, n_u=2, n_y=2, rho=0.4)
        ell = 40  # 0.4^40 ~ 1e-16, truncation negligible
        data = simulated_dataset(rng, model, 200)
        reg = build_fir_regression(data, ell)
        m_true = reg.indexing.vec(markov_sequence(model, ell))
        gap = np.linalg.norm(reg.Phi @ m_true - reg.Yvec)
        assert gap <= 1e-8 * np.linalg.norm(reg.Yvec)

    def test_zero_input_zero_regressors(self):
        data = IdentDataset(U=np.zeros((10, 1)), Y=np.zeros((10, 1)), Ts=1.0)
        reg = build_fir_regression(data, 3)
        np.testing.assert_array_equal(reg.Phi, np.zeros_like(reg.Phi))

    def test_too_few_samples(self):
        data = IdentDataset(U=np.zeros((4, 1)), Y=np.zeros((4, 1)), Ts=1.0)
        with pytest.raises(ValueError, match="N=4 <= ell=4"):
            build_fir_regression(data, 4)

    def test_mimo_row_content(self):
        # Phi row blocks must reproduce the convolution for arbitrary M blocks
        rng = np.random.default_rng(71)
        n_u, n_y, ell, N = 2, 2, 3, 12
        U = rng.standard_normal((N, n_u))
        data = IdentDataset(U=U, Y=np.zeros((N, n_y)), Ts=1.0)
        reg = build_fir_regression(data, ell)
        blocks = rng.standard_normal((ell + 1, n_y, n_u))
        m = reg.indexing.vec(
            __import__("priorsid").MarkovSequence(blocks=blocks, Ts=1.0)
        )
        predicted = (reg.Phi @ m).reshape(N - ell, n_y)
        for row, t in enumerate(range(ell, N)):
            direct = sum(blocks[k] @ U[t - k] for k in range(ell + 1))
            np.testing.assert_allclose(predicted[row], direct, atol=1e-12)

    @pytest.mark.parametrize(
        "n_u, n_y, ell, N",
        [
            (1, 1, 0, 6),
            (2, 3, 0, 5),
            (1, 1, 5, 6),
            (2, 2, 4, 5),
            (1, 4, 3, 25),
            (3, 2, 6, 30),
            (3, 3, 100, 300),
        ],
    )
    def test_matches_dense_oracle(self, n_u, n_y, ell, N):
        rng = np.random.default_rng(1000 * n_u + 100 * n_y + ell + N)
        data = IdentDataset(
            U=rng.standard_normal((N, n_u)), Y=rng.standard_normal((N, n_y)), Ts=0.5
        )
        reg = build_fir_regression(data, ell)
        oracle = dense_fir_regression(data, ell)
        # values, not bytes: the Kronecker products write -0.0 where u < 0
        assert np.array_equal(reg.Phi, oracle.Phi)
        assert np.array_equal(reg.Yvec, oracle.Yvec)
        assert reg.indexing == oracle.indexing and reg.Ts == oracle.Ts

    def test_holds_psi_not_phi(self):
        # Psi (N - ell) x (ell + 1) n_u is n_y^2 times smaller than Phi; Y is a view
        import tracemalloc

        rng = np.random.default_rng(5)
        data = IdentDataset(
            U=rng.standard_normal((900, 3)), Y=rng.standard_normal((900, 3)), Ts=1.0
        )
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            reg = build_fir_regression(data, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reg.Psi.shape == (840, 61 * 3) and reg.Psi.flags.c_contiguous
        assert peak - live <= 1.1 * (reg.Psi.nbytes + reg.Y.nbytes)

    def test_rejects_mismatched_shapes(self):
        idx = MarkovIndexing(n_y=2, n_u=3, ell=1)
        with pytest.raises(ValueError, match="do not fit"):
            FirRegression(Psi=np.zeros((4, 5)), Y=np.zeros((4, 2)), indexing=idx, Ts=1.0)
        with pytest.raises(ValueError, match="do not fit"):
            FirRegression(Psi=np.zeros((4, 6)), Y=np.zeros(8), indexing=idx, Ts=1.0)


class TestUnconstrained:
    def test_identity_system(self):
        reg = FirRegression(
            Psi=np.eye(2),
            Y=np.array([[1.0], [2.0]]),
            indexing=MarkovIndexing(n_y=1, n_u=1, ell=1),
            Ts=1.0,
        )
        result = ls_unconstrained(reg)
        np.testing.assert_allclose(result.markov.blocks.ravel(), [1.0, 2.0])
        assert result.method == "unconstrained"

    def test_noise_free_recovery(self):
        rng = np.random.default_rng(73)
        model = random_stable_model(rng, n=2, n_u=1, n_y=1, rho=0.4)
        ell = 40
        data = simulated_dataset(rng, model, 300)
        reg = build_fir_regression(data, ell)
        m_true = reg.indexing.vec(markov_sequence(model, ell))
        m_hat = reg.indexing.vec(ls_unconstrained(reg).markov)
        assert np.linalg.norm(m_hat - m_true) <= 1e-7 * np.linalg.norm(m_true)

    def test_noise_free_recovery_constrained_modes(self):
        from priorsid import FirstOrderDecay, zoh_first_order

        rng = np.random.default_rng(75)
        model = zoh_first_order(2.0, 2.0, 1.0)
        ell = 40  # tail e^(-20)
        data = simulated_dataset(rng, model, 300)
        reg = build_fir_regression(data, ell)
        cs = compile_priors([FirstOrderDecay(i=1, j=1, tau=2.0)], reg.indexing, 1.0)
        m_true = reg.indexing.vec(markov_sequence(model, ell))
        for result in (ls_equality_exact(reg, cs), ls_equality_weighted(reg, cs)):
            m_hat = reg.indexing.vec(result.markov)
            assert np.linalg.norm(m_hat - m_true) <= 1e-6 * np.linalg.norm(m_true)

    def test_rank_deficiency_flagged(self):
        model = random_stable_model(np.random.default_rng(79), n=2, n_u=1, n_y=1)
        U = np.ones((30, 1))  # constant input excites almost nothing
        data = IdentDataset(U=U, Y=simulate(model, U), Ts=1.0)
        reg = build_fir_regression(data, 10)
        result = ls_unconstrained(reg)
        assert result.diagnostics["rank_deficient"]
        assert result.diagnostics["rank"] < reg.indexing.size

    def test_empty_regression(self):
        reg = FirRegression(
            Psi=np.zeros((0, 2)),
            Y=np.zeros((0, 1)),
            indexing=MarkovIndexing(n_y=1, n_u=1, ell=1),
            Ts=1.0,
        )
        with pytest.raises(ValueError, match="empty"):
            ls_unconstrained(reg)


class TestEqualityExact:
    def test_hand_projection(self):
        result = ls_equality_exact(toy_regression(), toy_constraint())
        # exact up to machine rounding: the null-space path goes through sqrt(2)
        np.testing.assert_allclose(result.markov.blocks.ravel(), [1.5, 1.5], atol=1e-14)
        assert result.constraint_residual <= 1e-10 * (1 + 3.0)
        assert result.method == "exact"

    def test_fully_pinned_ignores_data(self):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=1)
        truth = np.array([0.25, -1.75])
        cs = EqualityConstraintSet(
            A_eq=np.eye(2), b_eq=truth, indexing=idx, provenance=("pin", "pin")
        )
        rng = np.random.default_rng(83)
        reg = random_regression(rng, idx, 6)
        with pytest.warns(EstimationWarning, match="fully determine"):
            result = ls_equality_exact(reg, cs)
        np.testing.assert_allclose(result.markov.blocks.ravel(), truth, atol=1e-12)

    @pytest.mark.parametrize("solve", [ls_equality_exact, ls_equality_weighted])
    def test_set_compiled_for_another_horizon_refused(self, solve):
        reg = random_regression(np.random.default_rng(97), MarkovIndexing(n_y=1, n_u=1, ell=6), 20)
        cs = compile_priors([DcGain(i=1, j=1, value=1.0)], MarkovIndexing(n_y=1, n_u=1, ell=5), 1.0)
        with pytest.raises(ValueError, match="does not match regression indexing"):
            solve(reg, cs)

    def test_empty_constraints_reduce_to_unconstrained(self):
        rng = np.random.default_rng(89)
        model = random_stable_model(rng, n=2, n_u=1, n_y=1)
        data = simulated_dataset(rng, model, 60)
        reg = build_fir_regression(data, 8)
        cs = compile_priors([], reg.indexing, Ts=1.0)
        np.testing.assert_array_equal(
            ls_equality_exact(reg, cs).markov.blocks,
            ls_unconstrained(reg).markov.blocks,
        )

    @settings(deadline=None)
    @given(case=prior_sets(), seed=st.integers(0, 2**32 - 1))
    def test_null_dim_is_size_minus_rank(self, case, seed):
        priors, idx = case
        rng = np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            declared = compile_priors(priors, idx, Ts=1.0)
            cs = EqualityConstraintSet(
                A_eq=declared.A_eq, b_eq=declared.A_eq @ rng.standard_normal(idx.size),
                indexing=idx, provenance=declared.provenance,
            )
            reg = random_regression(rng, idx, (idx.ell + 1) * idx.n_u + 5)
            result = ls_equality_exact(reg, cs)
        assert result.diagnostics["null_dim"] == idx.size - cs.consistency.rank
        assert result.constraint_residual <= 1e-10 * max(1.0, np.linalg.norm(cs.b_eq))

    @settings(deadline=None)
    @given(
        case=prior_sets(coupled=True), seed=st.integers(0, 2**32 - 1),
        pick=st.integers(0, 100), k=st.integers(0, 12),
    )
    def test_null_dim_holds_when_one_block_is_rescaled(self, case, seed, pick, k):
        # a rank cut at the largest singular value of the whole set made the
        # rescaled block hide directions of the others
        priors, idx = case
        rng = np.random.default_rng(seed)
        declared = compile_quietly(priors, idx)
        blocks = [block.rows for block in declared.consistency.blocks]
        A = declared.A_eq.copy()
        A[blocks[pick % len(blocks)]] *= 10.0**k
        cs = EqualityConstraintSet(
            A_eq=A, b_eq=A @ rng.standard_normal(idx.size), indexing=idx,
            provenance=declared.provenance,
        )
        reg = random_regression(rng, idx, (idx.ell + 1) * idx.n_u + 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = ls_equality_exact(reg, cs)
        assert result.diagnostics["null_dim"] == idx.size - cs.consistency.rank
        m = idx.vec(result.markov)
        for block in blocks:
            A_b, b_b = cs.A_eq[block], cs.b_eq[block]
            scale = max(1.0, np.linalg.norm(b_b), np.linalg.norm(A_b, 2) * np.linalg.norm(m))
            assert np.linalg.norm(A_b @ m - b_b) <= 1e-10 * scale

    def test_null_space_rank_does_not_depend_on_other_blocks(self):
        # a rank cut at the largest singular value of the whole set dropped two
        # true directions of the recurrence block and missed its rows by 1e-3
        idx = MarkovIndexing(n_y=2, n_u=2, ell=100)
        ratio = GainRatio(i=1, j=1, p=1, q=2, ratio=1e10)
        priors = [ratio, SecondOrderRecurrence(i=2, j=1, alpha1=-2.0, alpha0=1.0)]
        cs = compile_priors(priors, idx, Ts=1.0)
        rng = np.random.default_rng(0)
        reg = random_regression(rng, idx, 300)  # Phi has 600 rows
        result = ls_equality_exact(reg, cs)
        assert result.diagnostics["null_dim"] == idx.size - cs.consistency.rank
        m = idx.vec(result.markov)
        is_ratio = np.array([tag == repr(ratio) for tag in cs.provenance])
        assert np.linalg.norm(cs.A_eq[~is_ratio] @ m - cs.b_eq[~is_ratio]) <= 1e-12
        # the ratio row alone is off by rounding: 1e10 eps ||m|| per entry
        A_row = cs.A_eq[is_ratio]
        assert np.linalg.norm(A_row @ m) <= 1e-9 * np.linalg.norm(A_row) * np.linalg.norm(m)

    def test_infeasible_rejected(self):
        cs = EqualityConstraintSet(
            A_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b_eq=np.array([1.0, 2.0]),
            indexing=MarkovIndexing(n_y=1, n_u=1, ell=1),
            provenance=("a", "b"),
        )
        with pytest.raises(InfeasibleConstraintsError):
            ls_equality_exact(toy_regression(), cs)

    def test_optimality_over_feasible_samples(self):
        rng = np.random.default_rng(97)
        idx = MarkovIndexing(n_y=1, n_u=1, ell=5)
        reg = random_regression(rng, idx, 20)
        A = rng.standard_normal((2, idx.size))
        m0 = rng.standard_normal(idx.size)
        cs = EqualityConstraintSet(
            A_eq=A, b_eq=A @ m0, indexing=idx, provenance=("r0", "r1")
        )
        best = ls_equality_exact(reg, cs)
        m_best = idx.vec(best.markov)
        Z = scipy.linalg.null_space(A)
        for _ in range(1000):
            candidate = m0 + Z @ rng.standard_normal(Z.shape[1])
            assert (
                np.linalg.norm(reg.Phi @ candidate - reg.Yvec)
                >= np.linalg.norm(reg.Phi @ m_best - reg.Yvec) - 1e-9
            )

    def test_fully_determined_with_redundant_rows_warns(self):
        rng = np.random.default_rng(103)
        idx = MarkovIndexing(n_y=2, n_u=2, ell=2)
        A = rng.standard_normal((idx.size + 3, idx.size))
        truth = rng.standard_normal(idx.size)
        cs = EqualityConstraintSet(
            A_eq=A, b_eq=A @ truth, indexing=idx, provenance=("pin",) * A.shape[0]
        )
        data = IdentDataset(
            U=rng.standard_normal((30, 2)), Y=rng.standard_normal((30, 2)), Ts=1.0
        )
        with pytest.warns(EstimationWarning, match="data were not used"):
            result = ls_equality_exact(build_fir_regression(data, 2), cs)
        assert result.diagnostics["null_dim"] == 0
        np.testing.assert_allclose(idx.vec(result.markov), truth, atol=1e-12)

    def test_matches_kkt_on_mimo_shapes(self):
        def assert_matches_kkt(reg, cs):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EstimationWarning)  # fully determined
                m_hat = cs.indexing.vec(ls_equality_exact(reg, cs).markov)
            # the KKT system is singular on redundant rows: keep independent ones
            rank = np.linalg.matrix_rank(cs.A_eq)
            keep = np.sort(scipy.linalg.qr(cs.A_eq.T, pivoting=True)[2][:rank])
            m_ref = kkt_solve(reg.Phi, reg.Yvec, cs.A_eq[keep], cs.b_eq[keep])
            assert np.linalg.norm(m_hat - m_ref) <= 1e-12 * np.linalg.norm(m_ref)

        rng = np.random.default_rng(107)
        for _ in range(20):
            n_y, n_u = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            ell = int(rng.integers(0, 9))
            idx = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
            N = ell + 1 + 3 * (ell + 1) * n_u
            data = IdentDataset(
                U=rng.standard_normal((N, n_u)), Y=rng.standard_normal((N, n_y)), Ts=1.0
            )
            reg = build_fir_regression(data, ell)
            r = int(rng.integers(1, idx.size))
            A = rng.standard_normal((r, idx.size))
            cs = EqualityConstraintSet(
                A_eq=A,
                b_eq=A @ rng.standard_normal(idx.size),
                indexing=idx,
                provenance=("r",) * r,
            )
            assert_matches_kkt(reg, cs)
        gain11, gain12 = 2.0 * (1 - np.exp(-5 / 3.0)), -(1 - np.exp(-1.0))
        compiled = [
            # several blocks, a coupling GainRatio and untouched channels
            ((3, 2, 6), [FirstOrderDecay(i=1, j=1, tau=4.0), DcGain(i=2, j=2, value=1.5),
                         GainRatio(i=1, j=1, p=3, q=1, ratio=0.5), ZeroChannel(i=3, j=2),
                         IntegratorChannel(i=2, j=1, gain=0.3)]),
            ((2, 2, 0), [DcGain(i=1, j=1, value=1.0), GainRatio(i=2, j=1, p=2, q=2, ratio=2.0),
                         FirstOrderDecay(i=1, j=2, tau=3.0)]),
            # fully determined at ell=5, with a redundant DcGain and GainRatio
            ((1, 2, 5), [FirstOrderDecay(i=1, j=1, tau=3.0, gain=2.0),
                         FirstOrderDecay(i=1, j=2, tau=5.0, gain=-1.0),
                         DcGain(i=1, j=1, value=gain11),
                         GainRatio(i=1, j=1, p=1, q=2, ratio=gain11 / gain12)]),
        ]
        for (n_y, n_u, ell), priors in compiled:
            N = ell + 1 + 3 * (ell + 1) * n_u
            data = IdentDataset(
                U=rng.standard_normal((N, n_u)), Y=rng.standard_normal((N, n_y)), Ts=1.0
            )
            reg = build_fir_regression(data, ell)
            assert_matches_kkt(reg, compile_quietly(priors, reg.indexing))

    def test_peak_memory_stays_near_regressor_size(self):
        # G2 = Phi V2 and lstsq's copy of it fill about one dense regressor's
        # worth each; Phi itself is never formed
        import tracemalloc

        rng = np.random.default_rng(113)
        data = IdentDataset(
            U=rng.standard_normal((600, 3)), Y=rng.standard_normal((600, 3)), Ts=1.0
        )
        reg = build_fir_regression(data, 40)
        priors = [FirstOrderDecay(i=1, j=1, tau=8.0), FirstOrderDecay(i=2, j=2, tau=12.0),
                  ZeroChannel(i=1, j=3), DcGain(i=2, j=2, value=1.5)]
        cs = compile_priors(priors, reg.indexing, Ts=1.0)
        cs.consistency  # the set's cached factorizations are not the solve's
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            ls_equality_exact(reg, cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        phi_bytes = reg.Y.size * reg.indexing.size * reg.Psi.itemsize  # Phi is not formed
        assert peak - live <= 1.5 * phi_bytes


class TestEqualityWeighted:
    def test_large_weight_matches_projection(self):
        result = ls_equality_weighted(toy_regression(), toy_constraint(), 1e6)
        np.testing.assert_allclose(result.markov.blocks.ravel(), [1.5, 1.5], atol=1e-5)

    def test_tiny_weight_matches_unconstrained(self):
        reg = toy_regression()
        result = ls_equality_weighted(reg, toy_constraint(), 1e-9)
        np.testing.assert_allclose(
            result.markov.blocks, ls_unconstrained(reg).markov.blocks, atol=1e-6
        )

    def test_contradictory_constraints_blend(self):
        cs = EqualityConstraintSet(
            A_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b_eq=np.array([1.0, 2.0]),
            indexing=MarkovIndexing(n_y=1, n_u=1, ell=1),
            provenance=("a", "b"),
        )
        with pytest.warns(EstimationWarning, match="contradictory"):
            result = ls_equality_weighted(toy_regression(), cs, 10.0)
        assert np.all(np.isfinite(result.markov.blocks))
        assert result.constraint_residual > 0.1

    @pytest.mark.parametrize("weight", [10.0, 1e4, 1e8])
    def test_contradictory_rows_match_closed_form(self, weight):
        # ||m - 1||^2 + w^2 ((s - 1)^2 + (s - 2)^2) with s = m_0 + m_1 is least
        # at m_0 = m_1 = s / 2, s = (2 + 6 w^2) / (1 + 4 w^2); one lstsq of the
        # stacked system misses it by 7e-9 relative at w = 1e8
        cs = EqualityConstraintSet(
            A_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b_eq=np.array([1.0, 2.0]),
            indexing=MarkovIndexing(n_y=1, n_u=1, ell=1),
            provenance=("a", "b"),
        )
        with pytest.warns(EstimationWarning, match="contradictory"):
            result = ls_equality_weighted(toy_regression(), cs, weight)
        s = (2 + 6 * weight**2) / (1 + 4 * weight**2)
        np.testing.assert_allclose(result.markov.blocks.ravel(), [s / 2, s / 2], rtol=1e-14)

    def test_contradictory_rows_match_closed_form_at_default_weight(self):
        # the rows above plus 0.1 (m_0 - m_1) = 1: the block keeps singular values
        # 2 and sqrt(2) / 10, so the default weight is 1e6 / (sqrt(2) / 10).  With
        # s = m_0 + m_1 and t = m_0 - m_1 the objective splits; s is as above and
        # t^2 / 2 + w^2 (t / 10 - 1)^2 is least at t = 20 w^2 / (100 + 2 w^2)
        cs = EqualityConstraintSet(
            A_eq=np.array([[1.0, 1.0], [1.0, 1.0], [0.1, -0.1]]),
            b_eq=np.array([1.0, 2.0, 1.0]),
            indexing=MarkovIndexing(n_y=1, n_u=1, ell=1),
            provenance=("a", "b", "c"),
        )
        with pytest.warns(EstimationWarning, match="contradictory"):
            result = ls_equality_weighted(toy_regression(), cs)
        (block,) = cs.consistency.blocks
        assert block.rank == 2 and block.s[1] == pytest.approx(math.sqrt(2) / 10, rel=1e-14)
        w = result.diagnostics["weight"]
        assert w == 1e6 / block.s[1]
        s = (2 + 6 * w**2) / (1 + 4 * w**2)
        t = 20 * w**2 / (100 + 2 * w**2)
        np.testing.assert_allclose(
            result.markov.blocks.ravel(), [(s + t) / 2, (s - t) / 2], rtol=1e-14
        )

    def test_default_weight_positive_and_used(self):
        reg = toy_regression()
        cs = toy_constraint()
        w = default_weight(reg, cs)
        assert w > 0
        result = ls_equality_weighted(reg, cs)
        assert f"w={w:g}" in result.method

    def test_default_weight_reads_smallest_kept_block_singular_value(self):
        rng = np.random.default_rng(7)
        idx = MarkovIndexing(n_y=2, n_u=3, ell=4)
        reg = random_regression(rng, idx, 20)  # Phi is 40 x 30
        A = rng.standard_normal((9, idx.size))
        cs = EqualityConstraintSet(
            A_eq=A, b_eq=A @ rng.standard_normal(idx.size), indexing=idx,
            provenance=("r",) * 9,
        )
        w = default_weight(reg, cs)
        # sigma_max(Phi) = sigma_max(Psi), Psi 20 x 15: the 15 x 15 Gram matrix
        # of Psi scaled to max |X| in [0.5, 1)
        e = int(np.frexp(np.abs(reg.Psi).max())[1])
        X = np.ldexp(reg.Psi, -e)
        smax_phi = math.ldexp(math.sqrt(np.linalg.eigvalsh(X.T @ X)[-1]), e)
        # the random rows touch every channel: one block, whose smallest kept
        # singular value is sigma_min(A), the ninth
        (block,) = cs.consistency.blocks
        assert block.rank == 9
        assert w == 1e6 * smax_phi / block.s[8]
        s_min = np.linalg.svd(A, compute_uv=False)[-1]
        assert abs(block.s[8] - s_min) <= 1e-14 * block.s[0]

    # unscaled, the Gram matrix overflows at 1e160 and underflows at 1e-160
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e-160])
    @pytest.mark.parametrize("rows", [12, 60], ids=["wide", "tall"])
    def test_default_weight_reads_sigma_max_of_phi(self, rows, scale):
        rng = np.random.default_rng(rows)
        idx = MarkovIndexing(n_y=2, n_u=2, ell=8)  # 36 columns
        reg = random_regression(rng, idx, rows // 2, scale)  # Phi has ``rows`` rows
        unit_row = np.eye(1, idx.size)  # its one singular value is 1
        cs = EqualityConstraintSet(A_eq=unit_row, b_eq=np.ones(1), indexing=idx, provenance=("e",))
        norm = np.linalg.norm(reg.Phi, 2)
        assert abs(default_weight(reg, cs) / 1e6 - norm) <= 1e-14 * norm

    @pytest.mark.parametrize("weight", [1e-9, 1e3, None, 1e8])
    @pytest.mark.parametrize(
        "dims, priors",
        [
            ((2, 2, 5), [FirstOrderDecay(i=1, j=1, tau=4.0), DcGain(i=2, j=2, value=1.5),
                         GainRatio(i=1, j=1, p=2, q=1, ratio=0.5)]),
            ((3, 2, 4), [DcGain(i=1, j=2, value=1.0), DcGain(i=1, j=2, value=1.0),
                         ZeroChannel(i=3, j=1)]),
            ((2, 3, 4), [DcGain(i=2, j=3, value=1.0), DcGain(i=2, j=3, value=2.0),
                         IntegratorChannel(i=1, j=1)]),
            ((3, 3, 3), [ZeroChannel(i=2, j=2)]),
            ((2, 2, 0), [DcGain(i=1, j=1, value=1.0), GainRatio(i=2, j=2, p=1, q=2, ratio=3.0),
                         ZeroChannel(i=2, j=1)]),
        ],
        ids=["coupled", "duplicate", "contradictory", "free-channels", "ell0"],
    )
    def test_matches_stacked_oracle(self, dims, priors, weight):
        n_y, n_u, ell = dims
        idx = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
        rng = np.random.default_rng(17)
        reg = random_regression(rng, idx, (idx.ell + 1) * idx.n_u + 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            assert_matches_stacked_oracle(reg, compile_priors(priors, idx, Ts=1.0), weight)

    @settings(deadline=None)
    @given(
        case=prior_sets(coupled=True),
        seed=st.integers(0, 2**32 - 1),
        weight=st.sampled_from([1e-9, 1e3, None, 1e8]),
    )
    def test_matches_stacked_oracle_on_random_sets(self, case, seed, weight):
        rng = np.random.default_rng(seed)
        cs = compile_quietly(*case)
        reg = random_regression(rng, cs.indexing, (cs.indexing.ell + 1) * cs.indexing.n_u + 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            assert_matches_stacked_oracle(reg, cs, weight)

    # short data: fewer data rows than the constraint rank, so K is wide
    SHORT_DATA_PRIORS = {
        "coupled": [FirstOrderDecay(i=1, j=1, tau=4.0), IntegratorChannel(i=1, j=2),
                    SecondOrderRecurrence(i=2, j=1, alpha1=-1.2, alpha0=0.36),
                    ZeroChannel(i=2, j=2), GainRatio(i=1, j=1, p=2, q=1, ratio=0.5)],
        "contradictory": [FirstOrderDecay(i=1, j=1, tau=4.0, gain=2.0),
                          FirstOrderDecay(i=2, j=1, tau=6.0, gain=1.0),
                          IntegratorChannel(i=1, j=2), ZeroChannel(i=2, j=2),
                          GainRatio(i=1, j=1, p=2, q=1, ratio=0.5)],
    }

    # small weights leave K K^T with eigenvalues up to 1/w^2 times larger than 1
    SHORT_DATA_WEIGHTS = [1e-12, 1e-6, 1.0, 1e3, None, 1e8]

    @pytest.mark.parametrize("weight", SHORT_DATA_WEIGHTS)
    @pytest.mark.parametrize("rows", [6, 12, 20])
    @pytest.mark.parametrize("name", list(SHORT_DATA_PRIORS))
    def test_short_data_matches_50_digit_solution(self, name, rows, weight):
        idx = MarkovIndexing(n_y=2, n_u=2, ell=8)
        cs = compile_priors(self.SHORT_DATA_PRIORS[name], idx, Ts=1.0)
        assert idx.size - cs.consistency.rank <= rows < cs.consistency.rank
        assert_matches_50_digit_solution(cs, rows, np.random.default_rng(rows), weight)

    @settings(deadline=None, max_examples=40)
    @given(
        priors=short_data_prior_sets(),
        rows=st.sampled_from([6, 12, 20]),
        seed=st.integers(0, 2**32 - 1),
        weight=st.sampled_from(SHORT_DATA_WEIGHTS),
    )
    def test_short_data_matches_50_digit_solution_on_random_sets(self, priors, rows, seed, weight):
        idx = MarkovIndexing(n_y=2, n_u=2, ell=8)
        cs = compile_quietly(priors, idx)
        assume(idx.size - cs.consistency.rank <= rows < cs.consistency.rank)
        assert_matches_50_digit_solution(cs, rows, np.random.default_rng(seed), weight)

    # long data: at least as many data rows as the constraint rank, so K is tall
    @pytest.mark.parametrize("weight", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, None, 1e8])
    @pytest.mark.parametrize("name", list(SHORT_DATA_PRIORS))
    def test_long_data_matches_50_digit_solution(self, name, weight):
        idx = MarkovIndexing(n_y=2, n_u=2, ell=8)
        cs = compile_priors(self.SHORT_DATA_PRIORS[name], idx, Ts=1.0)
        assert cs.consistency.rank <= 40
        assert_matches_50_digit_solution(cs, 40, np.random.default_rng(40), weight)

    def test_short_data_with_duplicated_rows_at_small_weight(self):
        # K K^T is singular: a Cholesky of I + K K^T failed here with
        # LinAlgError at w=1e-9, while its eigendecomposition stays usable
        idx = MarkovIndexing(n_y=2, n_u=2, ell=8)
        cs = compile_priors(self.SHORT_DATA_PRIORS["coupled"], idx, Ts=1.0)
        rng = np.random.default_rng(5)
        half = random_regression(rng, idx, 3)  # Phi has 6 rows
        reg = FirRegression(Psi=np.vstack([half.Psi, half.Psi]), Y=np.vstack([half.Y, half.Y]),
                            indexing=idx, Ts=1.0)
        assert reg.Phi.shape[0] < cs.consistency.rank
        result = ls_equality_weighted(reg, cs, 1e-9)
        m = idx.vec(result.markov)
        m_ref = mp_weighted_solution(reg.Phi, reg.Yvec, cs.A_eq, cs.b_eq, 1e-9)
        assert np.linalg.norm(m - m_ref) <= 1e-9 * np.linalg.norm(m_ref)

    def test_diagnostics_match_stacked_at_default_weight(self):
        rng = np.random.default_rng(19)
        idx = MarkovIndexing(n_y=2, n_u=2, ell=6)
        priors = [FirstOrderDecay(i=1, j=1, tau=4.0), DcGain(i=2, j=1, value=1.0),
                  GainRatio(i=1, j=2, p=2, q=2, ratio=2.0)]
        cs = compile_priors(priors, idx, Ts=1.0)
        reg = random_regression(rng, idx, 20)  # Phi has 40 rows
        result = ls_equality_weighted(reg, cs)
        _, _, _, rank, s = stacked_weighted_lstsq(
            reg.Phi, reg.Yvec, cs.A_eq, cs.b_eq, result.diagnostics["weight"]
        )
        assert result.diagnostics["rank"] == rank
        assert result.diagnostics["cond"] == pytest.approx(s[0] / s[-1], rel=0.01)

    def test_huge_weight_warns_bad_conditioning(self):
        rng = np.random.default_rng(23)
        idx = MarkovIndexing(n_y=1, n_u=2, ell=4)
        reg = random_regression(rng, idx, 20)
        cs = compile_priors([FirstOrderDecay(i=1, j=1, tau=3.0)], idx, Ts=1.0)
        with pytest.warns(EstimationWarning, match="badly conditioned"):
            result = ls_equality_weighted(reg, cs, 1e20)
        assert result.diagnostics["cond"] > 1e14

    def test_invalid_weight(self):
        with pytest.raises(ValueError, match="weight"):
            ls_equality_weighted(toy_regression(), toy_constraint(), 0.0)

    def test_convergence_to_exact(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n_y, n_u = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            ell = int(rng.integers(1, 11))
            idx = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
            reg = random_regression(rng, idx, (idx.ell + 1) * idx.n_u + int(rng.integers(1, 10)))
            r = int(rng.integers(1, max(2, idx.size // 2)))
            A = rng.standard_normal((r, idx.size))
            b = A @ rng.standard_normal(idx.size)
            cs = EqualityConstraintSet(
                A_eq=A, b_eq=b, indexing=idx, provenance=tuple("r" for _ in range(r))
            )
            exact = idx.vec(ls_equality_exact(reg, cs).markov)
            weighted = idx.vec(ls_equality_weighted(reg, cs, 1e8).markov)
            assert np.linalg.norm(weighted - exact) <= 1e-5


def oracle_priors(n_y, n_u, every_output=False):
    """A feasible prior set with a GainRatio joining the first and the last
    channel it touches, when these differ (two outputs when n_y = 3).

    By default the priors touch outputs 1 .. max(n_y - 1, 1) only, so output
    n_y is untouched when n_y > 1: a DcGain on the first channel, which
    keeps the estimate away from 0 at every horizon, one more prior on each
    channel between, and only the ratio on the last.  ``every_output``
    puts a FirstOrderDecay on every channel instead, with a gain on the
    first, so each channel keeps at most one free lag: few data rows then
    suffice for the null space while staying below the constraint rank."""
    outputs = n_y if every_output else max(n_y - 1, 1)
    channels = [(i, j) for i in range(1, outputs + 1) for j in range(1, n_u + 1)]
    if every_output:
        priors = [FirstOrderDecay(*channels[0], tau=4.0, gain=2.0)]
        priors += [FirstOrderDecay(*ch, tau=5.0 + c) for c, ch in enumerate(channels[1:])]
    else:
        middle = [
            lambda i, j: DcGain(i, j, value=1.5),
            lambda i, j: FirstOrderDecay(i, j, tau=5.0, gain=2.0),
            lambda i, j: SecondOrderRecurrence(i, j, alpha1=-1.2, alpha0=0.36, seed=(1.0, 0.5)),
            lambda i, j: ZeroChannel(i, j),
        ]
        priors = [DcGain(*channels[0], value=-0.8)]
        priors += [middle[c % len(middle)](*ch) for c, ch in enumerate(channels[1:-1])]
    if len(channels) > 1:
        priors.append(GainRatio(*channels[0], *channels[-1], ratio=0.5))
    return priors


def random_dataset(rng, n_u, n_y, n_samples):
    return IdentDataset(
        U=rng.standard_normal((n_samples, n_u)), Y=rng.standard_normal((n_samples, n_y)), Ts=1.0
    )


def lstsq_rank_and_cond(matrix):
    """The rank lstsq(matrix, ., rcond=None) decides, and s_max / s_min."""
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(s > np.finfo(float).eps * max(matrix.shape) * s[0])), s[0] / s[-1]


class TestDenseOracles:
    """Every solver, fed Psi, against the same problem solved on the dense
    Phi = Psi (x) I_{n_y}: lstsq for the unconstrained mode and the KKT
    system for the exact mode within 1e-12 relative, the 50-digit solution
    within the stacked forward-error gate for the weighted mode, and the
    rank, column count, null dimension and condition number computed from
    the dense matrices of each mode."""

    SHAPES = [(n_y, n_u, ell) for n_y in (1, 2, 3) for n_u in (1, 2, 3) for ell in (0, 1, 7)]
    # at ell = 0 the short-data recurrences pin every channel to 0
    WEIGHTED = [(*shape, rows) for shape in SHAPES for rows in ("long", "short")
                if rows == "long" or shape[2] > 0]

    @staticmethod
    def assert_diagnostics(diagnostics, rank, columns, cond):
        assert diagnostics["rank"] == rank
        assert diagnostics["columns"] == columns
        assert abs(diagnostics["cond"] - cond) <= 1e-9 * cond

    @pytest.mark.parametrize("n_y, n_u, ell", SHAPES)
    def test_unconstrained_and_exact(self, n_y, n_u, ell):
        rng = np.random.default_rng(100 * n_y + 10 * n_u + ell)
        idx = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
        data = random_dataset(rng, n_u, n_y, ell + 3 * (ell + 1) * n_u + 2)
        reg, dense = build_fir_regression(data, ell), dense_fir_regression(data, ell)
        Phi, y = dense.Phi, dense.Yvec

        result = ls_unconstrained(reg)
        m_ref = np.linalg.lstsq(Phi, y, rcond=None)[0]
        assert np.linalg.norm(idx.vec(result.markov) - m_ref) <= 1e-12 * np.linalg.norm(m_ref)
        rank, cond = lstsq_rank_and_cond(Phi)
        self.assert_diagnostics(result.diagnostics, rank, idx.size, cond)

        cs = compile_quietly(oracle_priors(n_y, n_u), idx)
        assert not cs.consistency.infeasible
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)  # fully determined
            result = ls_equality_exact(reg, cs)
        # the KKT system is singular on redundant rows: keep independent ones
        rank = np.linalg.matrix_rank(cs.A_eq)
        keep = np.sort(scipy.linalg.qr(cs.A_eq.T, pivoting=True)[2][:rank])
        m_ref = kkt_solve(Phi, y, cs.A_eq[keep], cs.b_eq[keep])
        assert np.linalg.norm(idx.vec(result.markov) - m_ref) <= 1e-12 * np.linalg.norm(m_ref)
        _, V2, _, _ = block_bases(cs)
        assert result.diagnostics["null_dim"] == V2.shape[1] == idx.size - rank
        if V2.shape[1]:
            rank_z, cond = lstsq_rank_and_cond(Phi @ V2)
            self.assert_diagnostics(result.diagnostics, rank_z, V2.shape[1], cond)

    @pytest.mark.parametrize("n_y, n_u, ell, data_rows", WEIGHTED)
    def test_weighted(self, n_y, n_u, ell, data_rows):
        rng = np.random.default_rng(100 * n_y + 10 * n_u + ell)
        idx = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
        short = data_rows == "short"
        cs = compile_quietly(oracle_priors(n_y, n_u, every_output=short), idx)
        assert not cs.consistency.infeasible
        samples = n_u if short else 3 * (ell + 1) * n_u + 2
        data = random_dataset(rng, n_u, n_y, ell + samples)
        reg, dense = build_fir_regression(data, ell), dense_fir_regression(data, ell)
        Phi, y = dense.Phi, dense.Yvec
        if short:  # fewer data rows than the constraint rank, enough for the null space
            assert idx.size - cs.consistency.rank <= Phi.shape[0] < cs.consistency.rank

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            result = ls_equality_weighted(reg, cs)
        w = result.diagnostics["weight"]
        V1, V2, s1, _ = block_bases(cs)
        assert abs(w - 1e6 * np.linalg.norm(Phi, 2) / s1.min()) <= 1e-12 * w
        m_ref = mp_weighted_solution(Phi, y, cs.A_eq, cs.b_eq, w)
        _, bound, _ = stacked_forward_error(dense, cs, w)
        assert np.linalg.norm(idx.vec(result.markov) - m_ref) <= bound * np.linalg.norm(m_ref)

        # W G2 with W = (I + K K^T)^-1/2, K = Phi V1 / (w s1), by the dense eigensolve
        K = Phi @ V1 / (w * s1)
        lam, V = np.linalg.eigh(K @ K.T)
        W = (V / np.sqrt(1.0 + np.maximum(lam, 0.0))) @ V.T
        WG2 = W @ Phi @ V2
        sz = np.linalg.svd(WG2, compute_uv=False)
        rank_z = lstsq_rank_and_cond(WG2)[0] if WG2.size else 0
        singular = np.concatenate([w * s1, sz])
        self.assert_diagnostics(
            result.diagnostics, len(s1) + rank_z, idx.size, singular.max() / singular.min()
        )


def _relabel_outputs(prior, new_index):
    """``prior`` with its output indices i (and p) mapped through ``new_index``."""
    changes = {"i": new_index[prior.i - 1] + 1}
    if isinstance(prior, GainRatio):
        changes["p"] = new_index[prior.p - 1] + 1
    return dataclasses.replace(prior, **changes)


class TestOutputPermutation:
    """Permuting the outputs of the data, with the priors' output indices
    remapped, permutes the estimate: within 1e-12 relative in the
    unconstrained and exact modes, and in weighted mode within twice the
    forward-error gate of the stacked oracle, since both estimates lie
    within that gate of the same (permuted) stacked solution."""

    @settings(deadline=None, max_examples=60)
    @given(case=prior_sets(coupled=True), data=st.data())
    def test_permuted_outputs_permute_the_estimate(self, case, data):
        priors, idx = case
        perm = data.draw(st.permutations(range(idx.n_y)))  # new output a is old perm[a]
        new_index = np.argsort(perm)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = idx.ell + (idx.ell + 1) * idx.n_u + 4  # Phi has full column rank
        U, Y = rng.standard_normal((n, idx.n_u)), rng.standard_normal((n, idx.n_y))
        reg = build_fir_regression(IdentDataset(U=U, Y=Y, Ts=1.0), idx.ell)
        reg_p = build_fir_regression(IdentDataset(U=U, Y=Y[:, perm], Ts=1.0), idx.ell)
        cs = compile_quietly(priors, idx)
        cs_p = compile_quietly([_relabel_outputs(prior, new_index) for prior in priors], idx)
        assert cs_p.consistency.infeasible == cs.consistency.infeasible

        def moved(result, result_p):
            """||estimate of the permuted data, unpermuted - estimate|| and ||estimate||."""
            blocks = result.markov.blocks
            return np.linalg.norm(result_p.markov.blocks - blocks[:, perm]), np.linalg.norm(blocks)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            diff, norm = moved(ls_unconstrained(reg), ls_unconstrained(reg_p))
            assert diff <= 1e-12 * norm
            if not cs.consistency.infeasible:
                diff, norm = moved(ls_equality_exact(reg, cs), ls_equality_exact(reg_p, cs_p))
                assert diff <= 1e-12 * norm
            result = ls_equality_weighted(reg, cs)
            weight = result.diagnostics["weight"]
            diff, _ = moved(result, ls_equality_weighted(reg_p, cs_p, weight))
        m_ref, bound, _ = stacked_forward_error(reg, cs, weight)
        assert diff <= 2 * bound * np.linalg.norm(m_ref)


def _relabel_inputs(prior, new_index):
    """``prior`` with its input indices j (and q) mapped through ``new_index``."""
    changes = {"j": new_index[prior.j - 1] + 1}
    if isinstance(prior, GainRatio):
        changes["q"] = new_index[prior.q - 1] + 1
    return dataclasses.replace(prior, **changes)


class TestInputPermutation:
    """Permuting the input columns of the data, with the priors' input
    indices remapped, permutes the columns of every Markov block, by the
    tolerances of :class:`TestOutputPermutation`.  The regressor reads
    input j of an untouched channel from Psi[:, j::n_u], so this pins the
    map from Phi's columns to Psi's."""

    @settings(deadline=None, max_examples=60)
    @given(case=prior_sets(coupled=True), data=st.data())
    def test_permuted_inputs_permute_the_estimate(self, case, data):
        priors, idx = case
        perm = data.draw(st.permutations(range(idx.n_u)))  # new input b is old perm[b]
        new_index = np.argsort(perm)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = idx.ell + (idx.ell + 1) * idx.n_u + 4  # Phi has full column rank
        U, Y = rng.standard_normal((n, idx.n_u)), rng.standard_normal((n, idx.n_y))
        reg = build_fir_regression(IdentDataset(U=U, Y=Y, Ts=1.0), idx.ell)
        reg_p = build_fir_regression(IdentDataset(U=U[:, perm], Y=Y, Ts=1.0), idx.ell)
        cs = compile_quietly(priors, idx)
        cs_p = compile_quietly([_relabel_inputs(prior, new_index) for prior in priors], idx)
        assert cs_p.consistency.infeasible == cs.consistency.infeasible

        def moved(result, result_p):
            """||estimate of the permuted data, unpermuted - estimate|| and ||estimate||."""
            blocks = result.markov.blocks
            return np.linalg.norm(result_p.markov.blocks - blocks[:, :, perm]), np.linalg.norm(blocks)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            diff, norm = moved(ls_unconstrained(reg), ls_unconstrained(reg_p))
            assert diff <= 1e-12 * norm
            if not cs.consistency.infeasible:
                diff, norm = moved(ls_equality_exact(reg, cs), ls_equality_exact(reg_p, cs_p))
                assert diff <= 1e-12 * norm
            result = ls_equality_weighted(reg, cs)
            weight = result.diagnostics["weight"]
            diff, _ = moved(result, ls_equality_weighted(reg_p, cs_p, weight))
        m_ref, bound, _ = stacked_forward_error(reg, cs, weight)
        assert diff <= 2 * bound * np.linalg.norm(m_ref)


def dense_set(cs, scale=1.0):
    """``cs`` rebuilt from its dense rows, with b_eq times ``scale``."""
    return EqualityConstraintSet(cs.A_eq, scale * cs.b_eq, cs.indexing, cs.provenance)


def full_rank_regression(rng, idx, Y_scale=1.0):
    """Random data with enough rows for Phi to have full column rank, and
    the same data with Y times ``Y_scale``."""
    n = idx.ell + (idx.ell + 1) * idx.n_u + 4
    U, Y = rng.standard_normal((n, idx.n_u)), rng.standard_normal((n, idx.n_y))
    return (build_fir_regression(IdentDataset(U=U, Y=Y, Ts=1.0), idx.ell),
            build_fir_regression(IdentDataset(U=U, Y=Y_scale * Y, Ts=1.0), idx.ell))


def assert_close(m, m_ref):
    assert np.linalg.norm(m - m_ref) <= 1e-12 * np.linalg.norm(m_ref)


class TestScaling:
    """Scaling Y and b_eq by c scales the estimate by c, within 1e-12
    relative, in all three modes.  Weighted mode takes the default weight,
    which reads Phi and A_eq only, so both problems get the same weight."""

    @settings(deadline=None, max_examples=60)
    @given(
        case=prior_sets(coupled=True),
        c=st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaled_data_and_priors_scale_the_estimate(self, case, c, seed):
        cs = dense_set(compile_quietly(*case))
        cs_c = dense_set(cs, c)
        reg, reg_c = full_rank_regression(np.random.default_rng(seed), cs.indexing, c)
        assert cs_c.consistency.infeasible == cs.consistency.infeasible

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            assert_close(ls_unconstrained(reg_c).markov.blocks,
                         c * ls_unconstrained(reg).markov.blocks)
            if not cs.consistency.infeasible:
                assert_close(ls_equality_exact(reg_c, cs_c).markov.blocks,
                             c * ls_equality_exact(reg, cs).markov.blocks)
            result, result_c = ls_equality_weighted(reg, cs), ls_equality_weighted(reg_c, cs_c)
        assert result_c.diagnostics["weight"] == result.diagnostics["weight"]
        assert_close(result_c.markov.blocks, c * result.markov.blocks)


class TestDuplicatePrior:
    """Appending a copy of one prior leaves the exact estimate unchanged
    within 1e-12 relative, and adds exactly that prior's rows to the
    report's redundant rows."""

    @settings(deadline=None, max_examples=60)
    @given(case=prior_sets(coupled=True), data=st.data())
    def test_duplicate_prior_is_redundant(self, case, data):
        priors, idx = case
        prior = data.draw(st.sampled_from(priors))
        cs, cs_dup = compile_quietly(priors, idx), compile_quietly([*priors, prior], idx)
        added = cs_dup.n_rows - cs.n_rows
        assert added == compile_quietly([prior], idx).n_rows
        report, report_dup = cs.consistency, cs_dup.consistency
        assert report_dup.rank == report.rank
        assert report_dup.infeasible == report.infeasible
        assert len(report_dup.redundant_rows) == len(report.redundant_rows) + added
        if not report.infeasible:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            reg, _ = full_rank_regression(rng, idx)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EstimationWarning)
                assert_close(ls_equality_exact(reg, cs_dup).markov.blocks,
                             ls_equality_exact(reg, cs).markov.blocks)


class TestIdentDatasetValidation:
    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            IdentDataset(U=np.zeros((3, 1)), Y=np.zeros((4, 1)), Ts=1.0)

    def test_non_finite(self):
        bad = np.zeros((3, 1))
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            IdentDataset(U=bad, Y=np.zeros((3, 1)), Ts=1.0)
