import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorsid import (
    FirstOrderDecay,
    IdentDataset,
    MarkovIndexing,
    MarkovSequence,
    SecondOrderOsc,
    StateSpaceModel,
    ZeroChannel,
    apply_similarity,
    block_hankel,
    compile_priors,
    dc_gain,
    default_hankel_shape,
    identify_pipeline,
    kung_realize,
    markov_sequence,
    prototype_statespace,
    simulate,
    spectral_radius,
    zoh_first_order,
    zoh_second_order,
)
from helpers import (
    eig_multiset_distance,
    random_minimal_model,
    random_stable_model,
    well_conditioned_transform,
)

GEOMETRIC = MarkovSequence(blocks=[0.0, 1.0, 0.5, 0.25, 0.125], Ts=1.0)


class TestBlockHankel:
    def test_placement(self):
        H = block_hankel(GEOMETRIC, 2, 2)
        np.testing.assert_array_equal(H, [[1.0, 0.5], [0.5, 0.25]])

    def test_zero_sequence(self):
        seq = MarkovSequence(blocks=np.zeros((6, 2, 1)), Ts=1.0)
        np.testing.assert_array_equal(block_hankel(seq, 2, 3), np.zeros((4, 3)))

    def test_geometric_rank_one(self):
        assert np.linalg.matrix_rank(block_hankel(GEOMETRIC, 2, 2)) == 1

    def test_insufficient_ell(self):
        with pytest.raises(ValueError, match="insufficient ell"):
            block_hankel(GEOMETRIC, 3, 3)  # needs M_1..M_5, only M_1..M_4 exist

    def test_mimo_blocks(self):
        rng = np.random.default_rng(103)
        blocks = rng.standard_normal((6, 2, 3))
        seq = MarkovSequence(blocks=blocks, Ts=1.0)
        H = block_hankel(seq, 2, 2)
        np.testing.assert_array_equal(H[:2, :3], blocks[1])
        np.testing.assert_array_equal(H[2:, 3:], blocks[3])
        for q, p in ((2, 3), (3, 2), (1, 5)):  # q != p: rows and columns not swapped
            H = block_hankel(seq, q, p)
            assert H.shape == (q * 2, p * 3) and H.flags.writeable
            for r in range(q):
                for c in range(p):
                    np.testing.assert_array_equal(
                        H[r * 2 : (r + 1) * 2, c * 3 : (c + 1) * 3], blocks[r + c + 1]
                    )


class TestKungRealize:
    def test_scalar_geometric(self):
        seq = markov_sequence(
            StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], Ts=1.0), 8
        )
        result = kung_realize(seq, 3, 3)
        assert result.order == 1
        realized = markov_sequence(result.model, 8)
        np.testing.assert_allclose(realized.blocks, seq.blocks, atol=1e-10)
        np.testing.assert_allclose(
            np.linalg.eigvals(result.model.A), [0.5], atol=1e-10
        )

    def test_zero_sequence_feedthrough(self):
        seq = MarkovSequence(blocks=np.zeros((8, 1, 1)), Ts=1.0)
        result = kung_realize(seq, 3, 3)
        assert result.order == 0
        assert result.model.n == 0
        np.testing.assert_array_equal(result.model.D, [[0.0]])
        assert result.reconstruction_error == 0.0

    def test_feedthrough_d_preserved(self):
        blocks = np.zeros((8, 1, 1))
        blocks[0] = 7.0
        result = kung_realize(MarkovSequence(blocks=blocks, Ts=1.0), 3, 3)
        np.testing.assert_array_equal(result.model.D, [[7.0]])

    def test_oscillator_pole_oracle(self):
        # realized eigenvalues must match the roots of z^2 + a1 z + a0
        proto = SecondOrderOsc(K=1.0, omega0=1.0, xi=0.5)
        c = zoh_second_order(proto, 0.5)
        seq = markov_sequence(prototype_statespace(proto, 0.5), 10)
        result = kung_realize(seq, 5, 5)
        assert result.order == 2
        expected = np.roots([1.0, c.alpha1, c.alpha0])
        assert eig_multiset_distance(result.model.A, np.diag(expected)) <= 1e-8

    def test_q_too_small(self):
        with pytest.raises(ValueError, match="q must be at least 2"):
            kung_realize(GEOMETRIC, 1, 2)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1.0, 2.0, -1.0, -1e-12])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # a tol of 1 or more (or nan) used to drop every dynamic (order 0), and
        # a negative one kept the full rank bound
        with pytest.raises(ValueError, match="tol must be in"):
            kung_realize(GEOMETRIC, 2, 2, tol=tol)

    def test_tol_edges_accepted(self):
        result = kung_realize(GEOMETRIC, 2, 2, tol=0.0)  # every nonzero sigma
        assert result.order == np.count_nonzero(result.singular_values)
        assert kung_realize(GEOMETRIC, 2, 2, tol=1.0 - 1e-12).order == 1

    def test_order_beyond_bound(self):
        with pytest.raises(ValueError, match="rank bound"):
            kung_realize(GEOMETRIC, 2, 2, order=3)

    def test_round_trip_random_models(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            model = random_minimal_model(rng)
            q = p = model.n + 2
            seq = markov_sequence(model, q + p)
            result = kung_realize(seq, q, p)
            assert result.order == model.n
            realized = markov_sequence(result.model, q + p - 1)
            assert (
                np.linalg.norm(realized.blocks[1:] - seq.blocks[1 : q + p]) <= 1e-8
            )
            np.testing.assert_array_equal(result.model.D, model.D)
            assert eig_multiset_distance(result.model.A, model.A) <= 1e-7
            assert spectral_radius(result.model.A) < 1 + 1e-9

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_similar_generators_realize_alike(self, seed):
        rng = np.random.default_rng(seed)
        model = random_minimal_model(rng)
        twin = apply_similarity(model, well_conditioned_transform(rng, model.n))
        q = p = model.n + 2
        first, second = (
            kung_realize(markov_sequence(m, q + p), q, p, order=model.n) for m in (model, twin)
        )
        before, after = (markov_sequence(r.model, q + p).blocks for r in (first, second))
        assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)
        s = first.singular_values
        assert np.max(np.abs(second.singular_values - s)) <= 1e-12 * s[0]
        # the shift equation resolves a state whose Hankel singular value is
        # sigma_n only to about eps * sigma_1 / sigma_n (sigma_n >= 1e-6 sigma_1
        # here), so the eigenvalues get a looser gate than the Markov parameters
        distance = eig_multiset_distance(first.model.A, second.model.A)
        assert distance <= 1e-10 * spectral_radius(first.model.A)

    def test_reconstruction_error_reported(self):
        rng = np.random.default_rng(109)
        model = random_minimal_model(rng)
        q = p = model.n + 2
        seq = markov_sequence(model, q + p)
        result = kung_realize(seq, q, p)
        assert result.reconstruction_error <= 1e-9
        # forcing a too-small order must leave a visible gap
        if model.n > 1:
            truncated = kung_realize(seq, q, p, order=model.n - 1)
            assert truncated.reconstruction_error > result.reconstruction_error


class TestIdentifyPipeline:
    def test_noise_free_first_order_with_prior(self):
        rng = np.random.default_rng(113)
        model = zoh_first_order(2.0, 2.0, 1.0)  # tail e^(-20) at ell=40
        U = rng.standard_normal((200, 1))
        data = IdentDataset(U=U, Y=simulate(model, U), Ts=1.0)
        result = identify_pipeline(
            data, [FirstOrderDecay(i=1, j=1, tau=2.0)], ell=40, mode="exact"
        )
        assert result.order == 1
        np.testing.assert_allclose(dc_gain(result.model), [[2.0]], atol=1e-6)
        assert result.estimate.constraint_residual <= 1e-10
        assert result.realized_constraint_residual <= 1e-8

    def test_empty_priors_reduce_to_unconstrained(self):
        rng = np.random.default_rng(127)
        model = random_stable_model(rng, n=2, n_u=1, n_y=1, rho=0.5)
        U = rng.standard_normal((120, 1))
        Y = simulate(model, U) + 0.05 * rng.standard_normal((120, 1))
        data = IdentDataset(U=U, Y=Y, Ts=1.0)
        with_empty = identify_pipeline(data, [], ell=20, mode="exact", order=2)
        unconstrained = identify_pipeline(data, [], ell=20, mode="unconstrained", order=2)
        np.testing.assert_allclose(
            with_empty.estimate.markov.blocks,
            unconstrained.estimate.markov.blocks,
            atol=1e-12,
        )

    def test_zero_channel_noise_free_propagates(self):
        rng = np.random.default_rng(131)
        # 2-input 1-output; channel 2 is dead
        active = zoh_first_order(1.5, 3.0, 1.0)
        model = StateSpaceModel(
            A=active.A,
            B=np.hstack([active.B, np.zeros((1, 1))]),
            C=active.C,
            D=np.zeros((1, 2)),
            Ts=1.0,
        )
        U = rng.standard_normal((150, 2))
        data = IdentDataset(U=U, Y=simulate(model, U), Ts=1.0)
        result = identify_pipeline(
            data, [ZeroChannel(i=1, j=2)], ell=30, mode="exact"
        )
        estimated = result.estimate.markov.blocks[:, :, 1]
        assert np.linalg.norm(estimated) <= 1e-10
        realized = markov_sequence(result.model, 30).blocks[:, :, 1]
        assert np.linalg.norm(realized) <= 1e-8

    def test_weighted_mode_runs(self):
        rng = np.random.default_rng(137)
        model = zoh_first_order(2.0, 2.0, 1.0)
        U = rng.standard_normal((100, 1))
        data = IdentDataset(U=U, Y=simulate(model, U), Ts=1.0)
        result = identify_pipeline(
            data, [FirstOrderDecay(i=1, j=1, tau=2.0)], ell=20, mode="weighted"
        )
        assert result.estimate.method.startswith("weighted")
        np.testing.assert_allclose(dc_gain(result.model), [[2.0]], atol=1e-4)

    def test_default_hankel_shape(self):
        assert default_hankel_shape(30) == (15, 15)
        assert default_hankel_shape(31) == (16, 16)
        assert default_hankel_shape(3) == (2, 2)
        assert default_hankel_shape(2) == (2, 1)  # q >= 2 for the shift equation
        assert default_hankel_shape(1) == (2, 1)
        assert default_hankel_shape(0) == (2, 1)

    def test_default_hankel_shape_at_ell_2_realizes(self):
        data = IdentDataset(U=np.ones((10, 1)), Y=np.ones((10, 1)), Ts=1.0)
        result = identify_pipeline(data, [], ell=2)
        assert (result.q, result.p) == (2, 1)

    @pytest.mark.parametrize("ell", [0, 1])
    def test_default_hankel_shape_below_ell_2_names_ell(self, ell):
        data = IdentDataset(U=np.ones((10, 1)), Y=np.ones((10, 1)), Ts=1.0)
        with pytest.raises(ValueError, match=f"insufficient ell.*ell={ell}"):
            identify_pipeline(data, [], ell=ell)

    def test_bad_mode(self):
        data = IdentDataset(U=np.ones((10, 1)), Y=np.ones((10, 1)), Ts=1.0)
        with pytest.raises(ValueError, match="mode"):
            identify_pipeline(data, [], ell=4, mode="bogus")

    def test_result_carries_shape_and_constraints(self):
        rng = np.random.default_rng(139)
        U = rng.standard_normal((100, 1))
        data = IdentDataset(U=U, Y=simulate(zoh_first_order(2.0, 2.0, 1.0), U), Ts=1.0)
        priors = [FirstOrderDecay(i=1, j=1, tau=2.0)]
        compiled = compile_priors(priors, MarkovIndexing(n_y=1, n_u=1, ell=20), 1.0)
        for q, p, shape in (
            (None, None, default_hankel_shape(20)),
            (4, 6, (4, 6)),
            (4, None, (4, default_hankel_shape(20)[1])),
        ):
            result = identify_pipeline(data, priors, ell=20, q=q, p=p)
            assert (result.q, result.p) == shape
            assert result.constraints.n_rows == compiled.n_rows

    def test_inconsistent_shape_rejected(self):
        data = IdentDataset(U=np.ones((10, 1)), Y=np.ones((10, 1)), Ts=1.0)
        with pytest.raises(ValueError, match="insufficient ell"):
            identify_pipeline(data, [], ell=4, q=4, p=4)


class TestOrderDetection:
    def test_auto_matches_true_order(self):
        rng = np.random.default_rng(139)
        for _ in range(30):
            model = random_minimal_model(rng)
            q = p = model.n + 2
            seq = markov_sequence(model, q + p)
            assert kung_realize(seq, q, p).order == model.n

    def test_exact_low_order_sequence_is_not_saturated(self):
        model = prototype_statespace(SecondOrderOsc(K=1.5, omega0=0.5, xi=0.3), 1.0)
        seq = markov_sequence(model, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kung_realize(seq, 6, 6)
        assert result.order == 2 and not result.order_saturated

    def test_random_sequence_saturates_and_warns(self):
        blocks = np.random.default_rng(149).standard_normal((13, 2, 3))
        seq = MarkovSequence(blocks=blocks, Ts=1.0)
        with pytest.warns(UserWarning, match="kept all 12 states of the 6x6 block Hankel"):
            result = kung_realize(seq, 6, 6)
        assert result.order == 12 and result.order_saturated
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fixed full order is a choice, not a finding
            assert not kung_realize(seq, 6, 6, order=12).order_saturated

    def test_fixed_order_respected(self):
        seq = markov_sequence(
            StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], Ts=1.0), 8
        )
        assert kung_realize(seq, 3, 3, order=2).order == 2
