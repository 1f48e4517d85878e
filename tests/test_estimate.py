import numpy as np
import pytest

from priorsid import (
    EqualityConstraintSet,
    EstimationWarning,
    FirRegression,
    IdentDataset,
    InfeasibleConstraintsError,
    MarkovIndexing,
    build_fir_regression,
    compile_priors,
    default_weight,
    ls_equality_exact,
    ls_equality_weighted,
    ls_unconstrained,
    markov_sequence,
    simulate,
)
from helpers import dense_fir_regression, kkt_solve, random_stable_model
from priorsid.estimate import _null_space


def toy_regression():
    """Phi = I2, Yvec = [1, 1] over a SISO ell=1 indexing."""
    return FirRegression(
        Phi=np.eye(2),
        Yvec=np.array([1.0, 1.0]),
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


class TestUnconstrained:
    def test_identity_system(self):
        reg = FirRegression(
            Phi=np.eye(2),
            Yvec=np.array([1.0, 2.0]),
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
            Phi=np.zeros((0, 2)),
            Yvec=np.zeros(0),
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
        reg = FirRegression(
            Phi=rng.standard_normal((6, 2)),
            Yvec=rng.standard_normal(6),
            indexing=idx,
            Ts=1.0,
        )
        with pytest.warns(EstimationWarning, match="fully determine"):
            result = ls_equality_exact(reg, cs)
        np.testing.assert_allclose(result.markov.blocks.ravel(), truth, atol=1e-12)

    def test_empty_constraints_reduce_to_unconstrained(self):
        rng = np.random.default_rng(89)
        model = random_stable_model(rng, n=2, n_u=1, n_y=1)
        data = simulated_dataset(rng, model, 60)
        reg = build_fir_regression(data, 8)
        cs = compile_priors([], reg.indexing, Ts=1.0)
        np.testing.assert_allclose(
            ls_equality_exact(reg, cs).markov.blocks,
            ls_unconstrained(reg).markov.blocks,
            atol=1e-12,
        )

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
        reg = FirRegression(
            Phi=rng.standard_normal((20, idx.size)),
            Yvec=rng.standard_normal(20),
            indexing=idx,
            Ts=1.0,
        )
        A = rng.standard_normal((2, idx.size))
        m0 = rng.standard_normal(idx.size)
        cs = EqualityConstraintSet(
            A_eq=A, b_eq=A @ m0, indexing=idx, provenance=("r0", "r1")
        )
        best = ls_equality_exact(reg, cs)
        m_best = idx.vec(best.markov)
        import scipy.linalg

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
            m_hat = idx.vec(ls_equality_exact(reg, cs).markov)
            m_ref = kkt_solve(reg.Phi, reg.Yvec, cs.A_eq, cs.b_eq)
            assert np.linalg.norm(m_hat - m_ref) <= 1e-12 * np.linalg.norm(m_ref)


class TestNullSpace:
    def test_matches_scipy_on_rank_deficient(self):
        import scipy.linalg

        rng = np.random.default_rng(109)
        for _ in range(50):
            rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            rank = int(rng.integers(0, min(rows, cols)))
            A = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            Z = _null_space(A)
            Z_ref = scipy.linalg.null_space(A)
            assert Z.shape == Z_ref.shape == (cols, cols - rank)
            np.testing.assert_allclose(Z @ Z.T, Z_ref @ Z_ref.T, rtol=0, atol=1e-12)

    def test_full_column_rank_is_empty(self):
        A = np.random.default_rng(113).standard_normal((7, 4))
        assert _null_space(A).shape == (4, 0)


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

    def test_default_weight_positive_and_used(self):
        reg = toy_regression()
        cs = toy_constraint()
        w = default_weight(reg, cs)
        assert w > 0
        result = ls_equality_weighted(reg, cs)
        assert f"w={w:g}" in result.method

    def test_default_weight_reads_constraint_singular_values(self):
        rng = np.random.default_rng(7)
        idx = MarkovIndexing(n_y=2, n_u=3, ell=4)
        reg = FirRegression(
            Phi=rng.standard_normal((40, idx.size)), Yvec=rng.standard_normal(40),
            indexing=idx, Ts=1.0,
        )
        A = rng.standard_normal((9, idx.size))
        cs = EqualityConstraintSet(
            A_eq=A, b_eq=A @ rng.standard_normal(idx.size), indexing=idx,
            provenance=("r",) * 9,
        )
        w = default_weight(reg, cs)
        assert w == 1e6 * np.linalg.norm(reg.Phi, 2) / np.linalg.norm(A, 2)
        assert "singular_values" in vars(cs)

    def test_matches_stacked_lstsq_bitwise(self):
        rng = np.random.default_rng(17)
        idx = MarkovIndexing(n_y=2, n_u=2, ell=5)
        reg = FirRegression(
            Phi=rng.standard_normal((30, idx.size)), Yvec=rng.standard_normal(30),
            indexing=idx, Ts=1.0,
        )
        A = rng.standard_normal((6, idx.size))
        b = rng.standard_normal(6)
        cs = EqualityConstraintSet(A_eq=A, b_eq=b, indexing=idx, provenance=("r",) * 6)
        w = 1e3
        m_ref = np.linalg.lstsq(
            np.vstack([reg.Phi, w * A]), np.concatenate([reg.Yvec, w * b]), rcond=None
        )[0]
        np.testing.assert_array_equal(idx.vec(ls_equality_weighted(reg, cs, w).markov), m_ref)

    def test_invalid_weight(self):
        with pytest.raises(ValueError, match="weight"):
            ls_equality_weighted(toy_regression(), toy_constraint(), 0.0)

    def test_convergence_to_exact(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n_y, n_u = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            ell = int(rng.integers(1, 11))
            idx = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
            rows = idx.size + int(rng.integers(1, 10))
            reg = FirRegression(
                Phi=rng.standard_normal((rows, idx.size)),
                Yvec=rng.standard_normal(rows),
                indexing=idx,
                Ts=1.0,
            )
            r = int(rng.integers(1, max(2, idx.size // 2)))
            A = rng.standard_normal((r, idx.size))
            b = A @ rng.standard_normal(idx.size)
            cs = EqualityConstraintSet(
                A_eq=A, b_eq=b, indexing=idx, provenance=tuple("r" for _ in range(r))
            )
            exact = idx.vec(ls_equality_exact(reg, cs).markov)
            weighted = idx.vec(ls_equality_weighted(reg, cs, 1e8).markov)
            assert np.linalg.norm(weighted - exact) <= 1e-5


class TestIdentDatasetValidation:
    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            IdentDataset(U=np.zeros((3, 1)), Y=np.zeros((4, 1)), Ts=1.0)

    def test_non_finite(self):
        bad = np.zeros((3, 1))
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            IdentDataset(U=bad, Y=np.zeros((3, 1)), Ts=1.0)
