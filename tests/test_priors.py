import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorsid import (
    ConstraintCompileWarning,
    DcGain,
    DcGainMatrix,
    EqualityConstraintSet,
    FirstOrder,
    FirstOrderDecay,
    GainRatio,
    Integrator,
    IntegratorChannel,
    IntegratorFirstOrder,
    MarkovIndexing,
    MarkovSequence,
    SecondOrderOsc,
    SecondOrderRecurrence,
    TwoTimeConstants,
    ZeroChannel,
    check_consistency,
    compile_priors,
    constraint_residual,
    dc_gain,
    markov_sequence,
    prototype_markov,
    prototype_statespace,
    zoh_second_order,
)
from helpers import random_prototype

SISO3 = MarkovIndexing(n_y=1, n_u=1, ell=3)

DECAY = FirstOrderDecay(i=1, j=1, tau=5.0)
DECAY_GAIN = FirstOrderDecay(i=1, j=1, tau=5.0, gain=2.0)
INTEGRATOR = IntegratorChannel(i=1, j=1)
INTEGRATOR_GAIN = IntegratorChannel(i=1, j=1, gain=2.0)
RECURRENCE = SecondOrderRecurrence(i=1, j=1, alpha1=-1.5, alpha0=0.6)
RECURRENCE_SEED = SecondOrderRecurrence(i=1, j=1, alpha1=-1.5, alpha0=0.6, seed=(0.1, 0.05))

# (prior, ell, compiled rows, warns): M_0, then the recurrence rows for
# order < k <= ell, then the seed rows with lag <= ell; a prior left with
# the lone M_0 row warns.
SHORT_HORIZON = [
    pytest.param(DECAY, 0, 1, True, id="decay-ell0"),
    pytest.param(DECAY_GAIN, 0, 1, True, id="decay-gain-ell0"),
    pytest.param(DECAY, 1, 1, True, id="decay-ell1"),
    pytest.param(DECAY_GAIN, 1, 2, False, id="decay-gain-ell1"),
    pytest.param(DECAY, 2, 2, False, id="decay-ell2"),
    pytest.param(DECAY_GAIN, 2, 3, False, id="decay-gain-ell2"),
    pytest.param(INTEGRATOR, 0, 1, True, id="integrator-ell0"),
    pytest.param(INTEGRATOR_GAIN, 0, 1, True, id="integrator-gain-ell0"),
    pytest.param(INTEGRATOR, 1, 1, True, id="integrator-ell1"),
    pytest.param(INTEGRATOR_GAIN, 1, 2, False, id="integrator-gain-ell1"),
    pytest.param(INTEGRATOR, 2, 2, False, id="integrator-ell2"),
    pytest.param(INTEGRATOR_GAIN, 2, 3, False, id="integrator-gain-ell2"),
    pytest.param(RECURRENCE, 0, 1, True, id="recurrence-ell0"),
    pytest.param(RECURRENCE_SEED, 0, 1, True, id="recurrence-seed-ell0"),
    pytest.param(RECURRENCE, 1, 1, True, id="recurrence-ell1"),
    pytest.param(RECURRENCE_SEED, 1, 2, False, id="recurrence-seed-ell1"),
    pytest.param(RECURRENCE, 2, 1, True, id="recurrence-ell2"),
    pytest.param(RECURRENCE_SEED, 2, 3, False, id="recurrence-seed-ell2"),
]


class TestMarkovIndexing:
    def test_bijective_enumeration(self):
        idx = MarkovIndexing(n_y=2, n_u=3, ell=4)
        seen = {
            idx.index(k, i, j)
            for k in range(5)
            for i in (1, 2)
            for j in (1, 2, 3)
        }
        assert seen == set(range(idx.size))

    def test_formula(self):
        idx = MarkovIndexing(n_y=2, n_u=3, ell=4)
        assert idx.index(0, 1, 1) == 0
        assert idx.index(0, 2, 1) == 1
        assert idx.index(0, 1, 2) == 2
        assert idx.index(1, 1, 1) == 6

    def test_out_of_range(self):
        idx = MarkovIndexing(n_y=2, n_u=2, ell=1)
        with pytest.raises(ValueError, match="output channel"):
            idx.index(0, 3, 1)
        with pytest.raises(ValueError, match="input channel"):
            idx.index(0, 1, 3)
        with pytest.raises(ValueError, match="lag"):
            idx.index(2, 1, 1)

    def test_vec_unvec_roundtrip(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n_y, n_u, ell = rng.integers(1, 4), rng.integers(1, 4), rng.integers(0, 8)
            idx = MarkovIndexing(n_y=int(n_y), n_u=int(n_u), ell=int(ell))
            seq = MarkovSequence(
                blocks=rng.standard_normal((ell + 1, n_y, n_u)), Ts=0.5
            )
            back = idx.unvec(idx.vec(seq), Ts=0.5)
            np.testing.assert_array_equal(back.blocks, seq.blocks)

    def test_vec_entry_positions(self):
        idx = MarkovIndexing(n_y=2, n_u=2, ell=1)
        blocks = np.arange(8.0).reshape(2, 2, 2)
        vec = idx.vec(MarkovSequence(blocks=blocks, Ts=1.0))
        for k in range(2):
            for i in (1, 2):
                for j in (1, 2):
                    assert vec[idx.index(k, i, j)] == blocks[k, i - 1, j - 1]


class TestCompile:
    def test_dc_gain_row(self):
        cs = compile_priors([DcGain(i=1, j=1, value=2.0)], SISO3, Ts=1.0)
        np.testing.assert_array_equal(cs.A_eq, [[1.0, 1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(cs.b_eq, [2.0])

    def test_zero_channel_identity(self):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=2)
        cs = compile_priors([ZeroChannel(i=1, j=1)], idx, Ts=1.0)
        np.testing.assert_array_equal(cs.A_eq, np.eye(3))
        np.testing.assert_array_equal(cs.b_eq, np.zeros(3))

    def test_first_order_decay_rows(self):
        cs = compile_priors([FirstOrderDecay(i=1, j=1, tau=10.0)], SISO3, Ts=1.0)
        a = math.exp(-0.1)
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, -a, 1.0, 0.0],
                [0.0, 0.0, -a, 1.0],
            ]
        )
        np.testing.assert_allclose(cs.A_eq, expected, atol=1e-15)
        np.testing.assert_array_equal(cs.b_eq, np.zeros(3))

    def test_first_order_decay_gain_row(self):
        cs = compile_priors(
            [FirstOrderDecay(i=1, j=1, tau=10.0, gain=2.0)], SISO3, Ts=1.0
        )
        a = math.exp(-0.1)
        assert cs.n_rows == 4
        np.testing.assert_allclose(cs.A_eq[-1], [0.0, 1.0, 0.0, 0.0])
        assert cs.b_eq[-1] == pytest.approx(2.0 * (1 - a), abs=1e-15)

    def test_integrator_rows(self):
        cs = compile_priors(
            [IntegratorChannel(i=1, j=1, gain=3.0)], SISO3, Ts=0.5
        )
        assert cs.n_rows == 4
        np.testing.assert_array_equal(cs.A_eq[1], [0.0, -1.0, 1.0, 0.0])
        assert cs.b_eq[-1] == pytest.approx(1.5)

    def test_second_order_rows(self):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=4)
        cs = compile_priors(
            [SecondOrderRecurrence(i=1, j=1, alpha1=-1.5, alpha0=0.56)], idx, Ts=1.0
        )
        # M_0 row plus recurrence rows for k = 3, 4
        assert cs.n_rows == 3
        np.testing.assert_allclose(cs.A_eq[1], [0.0, 0.56, -1.5, 1.0, 0.0])
        np.testing.assert_allclose(cs.A_eq[2], [0.0, 0.0, 0.56, -1.5, 1.0])

    def test_second_order_seed_rows(self):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=3)
        cs = compile_priors(
            [SecondOrderRecurrence(i=1, j=1, alpha1=-1.5, alpha0=0.56, seed=(2.0, 1.0))],
            idx,
            Ts=1.0,
        )
        assert cs.n_rows == 4
        assert cs.b_eq[-2] == pytest.approx(2.0)          # M_1 = beta1
        assert cs.b_eq[-1] == pytest.approx(1.0 + 1.5 * 2.0)  # M_2 = beta0 - alpha1 beta1

    def test_gain_ratio_row(self):
        idx = MarkovIndexing(n_y=1, n_u=2, ell=1)
        cs = compile_priors(
            [GainRatio(i=1, j=1, p=1, q=2, ratio=0.5)], idx, Ts=1.0
        )
        assert cs.n_rows == 1
        row = np.zeros(4)
        row[idx.index(0, 1, 1)] = 1.0
        row[idx.index(1, 1, 1)] = 1.0
        row[idx.index(0, 1, 2)] = -0.5
        row[idx.index(1, 1, 2)] = -0.5
        np.testing.assert_allclose(cs.A_eq[0], row)
        assert cs.b_eq[0] == 0.0

    def test_dc_gain_matrix_rows(self):
        idx = MarkovIndexing(n_y=2, n_u=2, ell=1)
        gains = np.array([[1.0, 2.0], [3.0, 4.0]])
        cs = compile_priors([DcGainMatrix(matrix=gains)], idx, Ts=1.0)
        assert cs.n_rows == 4
        # rows follow the vectorization order: (1,1), (2,1), (1,2), (2,2)
        np.testing.assert_array_equal(cs.b_eq, [1.0, 3.0, 2.0, 4.0])

    def test_dc_gain_matrix_shape_mismatch(self):
        idx = MarkovIndexing(n_y=2, n_u=2, ell=1)
        with pytest.raises(ValueError, match="shape"):
            compile_priors([DcGainMatrix(matrix=np.ones((1, 2)))], idx, Ts=1.0)

    def test_row_count_formulas(self):
        ell = 6
        idx = MarkovIndexing(n_y=2, n_u=2, ell=ell)
        assert compile_priors([DcGain(i=1, j=1, value=1.0)], idx, 1.0).n_rows == 1
        assert compile_priors([ZeroChannel(i=2, j=1)], idx, 1.0).n_rows == ell + 1
        assert (
            compile_priors([FirstOrderDecay(i=1, j=2, tau=2.0)], idx, 1.0).n_rows
            == ell
        )
        assert (
            compile_priors(
                [SecondOrderRecurrence(i=1, j=1, alpha1=0.1, alpha0=0.2)], idx, 1.0
            ).n_rows
            == ell - 1
        )
        assert (
            compile_priors([IntegratorChannel(i=2, j=2)], idx, 1.0).n_rows == ell
        )

    def test_order_covariance(self):
        idx = MarkovIndexing(n_y=1, n_u=2, ell=4)
        priors = [
            DcGain(i=1, j=1, value=2.0),
            FirstOrderDecay(i=1, j=2, tau=3.0),
            ZeroChannel(i=1, j=1),
        ]
        cs_fwd = compile_priors(priors, idx, Ts=1.0)
        cs_rev = compile_priors(priors[::-1], idx, Ts=1.0)
        for tag in set(cs_fwd.provenance):
            rows_fwd = [r for r, t in enumerate(cs_fwd.provenance) if t == tag]
            rows_rev = [r for r, t in enumerate(cs_rev.provenance) if t == tag]
            np.testing.assert_array_equal(
                cs_fwd.A_eq[rows_fwd], cs_rev.A_eq[rows_rev]
            )
            np.testing.assert_array_equal(
                cs_fwd.b_eq[rows_fwd], cs_rev.b_eq[rows_rev]
            )

    def test_short_horizon_warns(self):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=2)
        with pytest.warns(ConstraintCompileWarning):
            cs = compile_priors(
                [SecondOrderRecurrence(i=1, j=1, alpha1=0.1, alpha0=0.2)], idx, 1.0
            )
        assert cs.n_rows == 1

    @pytest.mark.parametrize(("prior", "ell", "rows", "warns"), SHORT_HORIZON)
    def test_short_horizon_rows(self, prior, ell, rows, warns):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=ell)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cs = compile_priors([prior], idx, Ts=1.0)
        assert cs.n_rows == rows
        assert cs.A_eq[0, idx.index(0, 1, 1)] == 1.0 and cs.b_eq[0] == 0.0
        assert [w.category for w in caught] == ([ConstraintCompileWarning] if warns else [])

    def test_channel_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            compile_priors([DcGain(i=2, j=1, value=1.0)], SISO3, Ts=1.0)

    def test_empty_priors(self):
        cs = compile_priors([], SISO3, Ts=1.0)
        assert cs.n_rows == 0
        assert cs.A_eq.shape == (0, SISO3.size)


class TestCheckConsistency:
    def test_duplicate_rows_redundant(self):
        priors = [DcGain(i=1, j=1, value=2.0), DcGain(i=1, j=1, value=2.0)]
        report = check_consistency(compile_priors(priors, SISO3, Ts=1.0))
        assert report.rank == 1
        assert report.redundant_rows == (1,)
        assert not report.infeasible

    def test_mimo_redundant_row_pinned(self):
        # DcGain(1, 2, 0) is the sum of the ZeroChannel(1, 2) rows
        idx = MarkovIndexing(n_y=2, n_u=2, ell=4)
        priors = [ZeroChannel(i=1, j=2), DcGain(i=1, j=2, value=0.0), ZeroChannel(i=2, j=1)]
        report = check_consistency(compile_priors(priors, idx, Ts=1.0))
        assert report.rank == 10
        assert report.redundant_rows == (0,)
        assert not report.infeasible

    def test_contradictory_rows_infeasible(self):
        priors = [DcGain(i=1, j=1, value=2.0), DcGain(i=1, j=1, value=3.0)]
        report = check_consistency(compile_priors(priors, SISO3, Ts=1.0))
        assert report.infeasible

    def test_zero_channel_full_rank(self):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=2)
        report = check_consistency(compile_priors([ZeroChannel(i=1, j=1)], idx, 1.0))
        assert report.rank == 3
        assert report.redundant_rows == ()
        assert not report.infeasible

    def test_empty_set(self):
        report = check_consistency(compile_priors([], SISO3, Ts=1.0))
        assert report == check_consistency(compile_priors([], SISO3, Ts=1.0))
        assert report.rank == 0 and not report.infeasible

    def test_singular_values_computed_once(self, monkeypatch):
        idx = MarkovIndexing(n_y=2, n_u=2, ell=6)
        priors = [FirstOrderDecay(i=1, j=1, tau=3.0, gain=2.0), ZeroChannel(i=2, j=1),
                  GainRatio(i=1, j=1, p=2, q=2, ratio=0.5)]
        cs = compile_priors(priors, idx, Ts=1.0)
        shapes = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        s = cs.singular_values
        assert cs.singular_values is s and not s.flags.writeable
        np.testing.assert_array_equal(s, svd(cs.A_eq, compute_uv=False))
        report = check_consistency(cs)
        assert report.rank == cs.n_rows and not report.infeasible
        # A_eq itself is factored once; only [A_eq | b_eq] is added
        assert shapes == [cs.A_eq.shape, (cs.n_rows, idx.size + 1)]

    def test_singular_values_of_empty_set(self):
        assert compile_priors([], SISO3, Ts=1.0).singular_values.shape == (0,)


class TestConstraintResidual:
    def test_first_order_prototype_consistent(self):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=10)
        cs = compile_priors([FirstOrderDecay(i=1, j=1, tau=10.0)], idx, Ts=1.0)
        seq = prototype_markov(FirstOrder(K=2.0, tau=10.0), 1.0, 10)
        assert constraint_residual(cs, seq) <= 1e-12

    def test_zero_sequence_against_dc_gain(self):
        cs = compile_priors([DcGain(i=1, j=1, value=2.0)], SISO3, Ts=1.0)
        zero = MarkovSequence(blocks=np.zeros((4, 1, 1)), Ts=1.0)
        assert constraint_residual(cs, zero) == pytest.approx(2.0)

    def test_integrator_prototype_consistent(self):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=5)
        cs = compile_priors([IntegratorChannel(i=1, j=1)], idx, Ts=0.5)
        seq = prototype_markov(Integrator(K=3.0), 0.5, 5)
        assert constraint_residual(cs, seq) <= 1e-14

    def test_shape_mismatch(self):
        cs = compile_priors([DcGain(i=1, j=1, value=2.0)], SISO3, Ts=1.0)
        wrong = MarkovSequence(blocks=np.zeros((3, 1, 1)), Ts=1.0)
        with pytest.raises(ValueError, match="indexing expects"):
            constraint_residual(cs, wrong)

    def test_soundness_over_random_prototypes(self):
        # every prototype satisfies its matching prior exactly
        rng = np.random.default_rng(59)
        for _ in range(40):
            proto = random_prototype(rng)
            Ts = float(rng.uniform(0.2, 2.0))
            ell = int(rng.integers(3, 41))
            idx = MarkovIndexing(n_y=1, n_u=1, ell=ell)
            seq = prototype_markov(proto, Ts, ell)
            priors = matching_priors(proto, Ts, with_gain=bool(rng.integers(0, 2)))
            cs = compile_priors(priors, idx, Ts)
            assert constraint_residual(cs, seq) <= 1e-10

    @settings(deadline=None)
    @given(
        proto=st.one_of(
            st.builds(Integrator, K=st.floats(0.5, 3.0)),
            st.builds(FirstOrder, K=st.floats(0.5, 3.0), tau=st.floats(0.5, 20.0)),
            st.builds(IntegratorFirstOrder, K=st.floats(0.5, 3.0), tau=st.floats(0.5, 20.0)),
            st.builds(
                lambda K, tau1, ratio: TwoTimeConstants(K=K, tau1=tau1, tau2=tau1 * ratio),
                st.floats(0.5, 3.0),
                st.floats(0.5, 10.0),
                st.floats(1.5, 3.0),
            ),
            st.builds(
                SecondOrderOsc,
                K=st.floats(0.5, 3.0),
                omega0=st.floats(0.3, 3.0),
                xi=st.floats(0.1, 0.9),
            ),
        ),
        Ts=st.floats(0.2, 2.0),
        ell=st.integers(0, 8),
        with_gain=st.booleans(),
    )
    def test_prototype_satisfies_its_prior_at_any_horizon(self, proto, Ts, ell, with_gain):
        idx = MarkovIndexing(n_y=1, n_u=1, ell=ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstraintCompileWarning)
            cs = compile_priors(matching_priors(proto, Ts, with_gain), idx, Ts)
        seq = prototype_markov(proto, Ts, ell)
        scale = max(1.0, float(np.linalg.norm(cs.b_eq)))
        assert constraint_residual(cs, seq) <= 1e-10 * scale

    def test_dc_gain_soundness_at_long_horizon(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            K = float(rng.uniform(0.5, 3.0))
            tau = float(rng.uniform(0.5, 2.0))
            Ts = 1.0
            ell = int(math.ceil(30 * tau / Ts))  # tail below 1e-12
            idx = MarkovIndexing(n_y=1, n_u=1, ell=ell)
            model = prototype_statespace(FirstOrder(K=K, tau=tau), Ts)
            cs = compile_priors(
                [DcGain(i=1, j=1, value=float(dc_gain(model)[0, 0]))], idx, Ts
            )
            assert constraint_residual(cs, markov_sequence(model, ell)) <= 1e-10


def matching_priors(proto, Ts, with_gain):
    """The prior that encodes exactly the structure of a given prototype."""
    from priorsid import (
        IntegratorFirstOrder,
        SecondOrderOsc,
        TwoTimeConstants,
    )

    gain = proto.K if with_gain else None
    if isinstance(proto, Integrator):
        return [IntegratorChannel(i=1, j=1, gain=gain)]
    if isinstance(proto, FirstOrder):
        return [FirstOrderDecay(i=1, j=1, tau=proto.tau, gain=gain)]
    assert isinstance(proto, (IntegratorFirstOrder, TwoTimeConstants, SecondOrderOsc))
    c = zoh_second_order(proto, Ts)
    seed = (c.beta1, c.beta0) if with_gain else None
    return [SecondOrderRecurrence(i=1, j=1, alpha1=c.alpha1, alpha0=c.alpha0, seed=seed)]


class TestEqualityConstraintSetValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            EqualityConstraintSet(
                A_eq=np.zeros((1, SISO3.size)),
                b_eq=np.zeros(1),
                indexing=SISO3,
                provenance=("zero",),
            )

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            EqualityConstraintSet(
                A_eq=np.ones((1, 3)),
                b_eq=np.zeros(1),
                indexing=SISO3,
                provenance=("bad",),
            )

    def test_provenance_length_checked(self):
        with pytest.raises(ValueError, match="provenance"):
            EqualityConstraintSet(
                A_eq=np.ones((2, SISO3.size)),
                b_eq=np.zeros(2),
                indexing=SISO3,
                provenance=("only-one",),
            )
