import numpy as np
import pytest

from priorsid import (
    FirstOrder,
    FirstOrderDecay,
    IdentDataset,
    MarkovIndexing,
    MarkovSequence,
    StateSpaceModel,
    apply_similarity,
    compile_priors,
    dc_gain,
    ls_equality_weighted,
    markov_sequence,
    pulse_response,
    simulate,
    spectral_radius,
    zoh_first_order,
)
from helpers import random_regression, random_stable_model, well_conditioned_transform

SCALAR = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], Ts=1.0)


def feedthrough_model(d):
    return StateSpaceModel(
        A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=[[d]], Ts=1.0
    )


class TestSimulate:
    def test_scalar_impulse(self):
        U = np.array([[1.0], [0.0], [0.0], [0.0]])
        Y = simulate(SCALAR, U, x0=np.zeros(1))
        np.testing.assert_allclose(Y.ravel(), [0.0, 1.0, 0.5, 0.25])

    def test_zero_input_zero_state(self):
        rng = np.random.default_rng(11)
        model = random_stable_model(rng, n=3, n_u=2, n_y=2)
        Y = simulate(model, np.zeros((10, 2)))
        np.testing.assert_array_equal(Y, np.zeros((10, 2)))

    def test_pure_feedthrough(self):
        Y = simulate(feedthrough_model(2.0), np.array([[1.0], [3.0]]))
        np.testing.assert_array_equal(Y.ravel(), [2.0, 6.0])

    def test_dimension_mismatch_names_dims(self):
        with pytest.raises(ValueError, match="n_u=1"):
            simulate(SCALAR, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="x0"):
            simulate(SCALAR, np.zeros((4, 1)), x0=np.zeros(2))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = random_stable_model(rng)
            U1 = rng.standard_normal((20, model.n_u))
            U2 = rng.standard_normal((20, model.n_u))
            a, b = rng.standard_normal(2)
            lhs = simulate(model, a * U1 + b * U2)
            rhs = a * simulate(model, U1) + b * simulate(model, U2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestMarkovSequence:
    def test_scalar_example(self):
        seq = markov_sequence(SCALAR, 3)
        np.testing.assert_allclose(seq.blocks.ravel(), [0.0, 1.0, 0.5, 0.25])

    def test_nilpotent_one_step(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2))
        D = rng.standard_normal((2, 2))
        model = StateSpaceModel(A=np.zeros((2, 2)), B=B, C=C, D=D, Ts=1.0)
        seq = markov_sequence(model, 2)
        np.testing.assert_allclose(seq.blocks[0], D)
        np.testing.assert_allclose(seq.blocks[1], C @ B)
        np.testing.assert_array_equal(seq.blocks[2], np.zeros((2, 2)))

    def test_first_order_closed_form(self):
        # M_i = a^(i-1) K (1 - a) with a = exp(-0.1), K = 2
        seq = markov_sequence(zoh_first_order(2.0, 10.0, 1.0), 2)
        a = np.exp(-0.1)
        np.testing.assert_allclose(
            seq.blocks.ravel(), [0.0, 2 * (1 - a), 2 * (1 - a) * a], atol=1e-15
        )
        np.testing.assert_allclose(
            seq.blocks.ravel(), [0.0, 0.190325, 0.172213], atol=5e-7
        )

    def test_negative_ell_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            markov_sequence(SCALAR, -1)

    def test_ragged_blocks_rejected(self):
        with pytest.raises(ValueError):
            MarkovSequence(blocks=[np.zeros((1, 1)), np.zeros((2, 1))], Ts=1.0)

    def test_properties(self):
        seq = MarkovSequence(blocks=np.zeros((4, 2, 3)), Ts=0.5)
        assert (seq.ell, seq.n_y, seq.n_u) == (3, 2, 3)


class TestPulseResponse:
    def test_scalar_example(self):
        resp = pulse_response(SCALAR, 1, 3)
        np.testing.assert_allclose(resp.ravel(), [0.0, 1.0, 0.5, 0.25])

    def test_decoupled_input(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((3, 2))
        B[:, 1] = 0.0
        model = StateSpaceModel(
            A=0.5 * np.eye(3), B=B, C=rng.standard_normal((2, 3)),
            D=rng.standard_normal((2, 2)), Ts=1.0,
        )
        resp = pulse_response(model, 2, 5)
        np.testing.assert_allclose(resp[0], model.D[:, 1])
        np.testing.assert_array_equal(resp[1:], np.zeros((5, 2)))

    def test_out_of_range_channel(self):
        with pytest.raises(ValueError, match="out of range"):
            pulse_response(SCALAR, 2, 3)
        with pytest.raises(ValueError, match="out of range"):
            pulse_response(SCALAR, 0, 3)

    def test_matches_markov_columns(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            model = random_stable_model(rng)
            ell = 12
            seq = markov_sequence(model, ell)
            for j in range(1, model.n_u + 1):
                resp = pulse_response(model, j, ell)
                np.testing.assert_allclose(
                    resp, seq.blocks[:, :, j - 1], atol=1e-12
                )


class TestDcGain:
    def test_scalar_geometric(self):
        np.testing.assert_allclose(dc_gain(SCALAR), [[2.0]])

    def test_feedthrough_only(self):
        model = StateSpaceModel(A=[[0.3]], B=[[0.0]], C=[[1.0]], D=[[5.0]], Ts=1.0)
        np.testing.assert_allclose(dc_gain(model), [[5.0]])

    def test_first_order_gain(self):
        np.testing.assert_allclose(dc_gain(zoh_first_order(2.0, 10.0, 1.0)), [[2.0]])

    def test_marginally_stable_rejected(self):
        model = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], Ts=1.0)
        with pytest.raises(ValueError, match="spectral radius"):
            dc_gain(model)

    def test_partial_sums_converge(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model = random_stable_model(rng)
            rho = spectral_radius(model.A)
            ell = int(np.ceil(np.log(1e-10) / np.log(rho))) + 1
            total = markov_sequence(model, ell).blocks.sum(axis=0)
            np.testing.assert_allclose(total, dc_gain(model), atol=1e-8)


class TestApplySimilarity:
    def test_identity(self):
        model = apply_similarity(SCALAR, np.eye(1))
        np.testing.assert_allclose(model.A, SCALAR.A)
        np.testing.assert_allclose(model.B, SCALAR.B)
        np.testing.assert_allclose(model.C, SCALAR.C)

    def test_scaling_by_two(self):
        model = apply_similarity(SCALAR, 2.0 * np.eye(1))
        np.testing.assert_allclose(model.A, [[0.5]])
        np.testing.assert_allclose(model.B, [[2.0]])
        np.testing.assert_allclose(model.C, [[0.5]])
        np.testing.assert_allclose(model.D, [[0.0]])

    def test_markov_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            model = random_stable_model(rng)
            T = well_conditioned_transform(rng, model.n)
            before = markov_sequence(model, 10)
            after = markov_sequence(apply_similarity(model, T), 10)
            np.testing.assert_allclose(after.blocks, before.blocks, atol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            apply_similarity(SCALAR, np.zeros((1, 1)))


class TestStateSpaceModelValidation:
    def test_non_square_a(self):
        with pytest.raises(ValueError, match="square"):
            StateSpaceModel(A=np.zeros((2, 3)), B=np.zeros((2, 1)),
                            C=np.zeros((1, 2)), D=None, Ts=1.0)

    def test_b_row_mismatch(self):
        with pytest.raises(ValueError, match="B has 3 rows"):
            StateSpaceModel(A=np.eye(2), B=np.zeros((3, 1)),
                            C=np.zeros((1, 2)), D=None, Ts=1.0)

    def test_bad_ts(self):
        with pytest.raises(ValueError, match="Ts"):
            StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=None, Ts=0.0)

    def test_default_d_is_zero(self):
        model = StateSpaceModel(A=np.eye(2) * 0.1, B=np.ones((2, 2)),
                                C=np.ones((1, 2)), D=None, Ts=1.0)
        np.testing.assert_array_equal(model.D, np.zeros((1, 2)))


SISO2 = MarkovIndexing(n_y=1, n_u=1, ell=2)
POSITIVE_REALS = {
    "StateSpaceModel": ("Ts", lambda v: StateSpaceModel(A=0.5, B=1.0, C=1.0, D=None, Ts=v)),
    "MarkovSequence": ("Ts", lambda v: MarkovSequence(blocks=[0.0, 1.0], Ts=v)),
    "IdentDataset": ("Ts", lambda v: IdentDataset(U=np.zeros(3), Y=np.zeros(3), Ts=v)),
    "compile_priors": ("Ts", lambda v: compile_priors([], SISO2, Ts=v)),
    "FirstOrderDecay": ("tau", lambda v: FirstOrderDecay(i=1, j=1, tau=v)),
    "FirstOrder": ("tau", lambda v: FirstOrder(K=1.0, tau=v)),
    "ls_equality_weighted": ("weight", lambda v: ls_equality_weighted(
        random_regression(np.random.default_rng(0), SISO2, 6),
        compile_priors([FirstOrderDecay(i=1, j=1, tau=2.0)], SISO2, Ts=1.0), v)),
}


@pytest.mark.parametrize("value", [0, -1.5, float("nan"), float("inf")])
@pytest.mark.parametrize("site", list(POSITIVE_REALS))
def test_positive_reals_are_refused_in_one_wording(site, value):
    name, build = POSITIVE_REALS[site]
    with pytest.raises(ValueError, match=rf"^{name} must be a positive real, got {value}$"):
        build(value)


@pytest.mark.parametrize("site", list(POSITIVE_REALS))
def test_positive_real_check_refuses_text(site):
    with pytest.raises(TypeError):
        POSITIVE_REALS[site][1]("2.0")
