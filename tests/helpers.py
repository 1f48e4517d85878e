"""Shared generators and oracles for the test suite."""

import functools
import math
import re
import warnings
from typing import NamedTuple

import mpmath
import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from priorsid import (
    ConstraintCompileWarning,
    DcGain,
    DcGainMatrix,
    EqualityConstraintSet,
    FirRegression,
    FirstOrder,
    FirstOrderDecay,
    GainRatio,
    Integrator,
    IntegratorChannel,
    IntegratorFirstOrder,
    MarkovIndexing,
    SecondOrderOsc,
    SecondOrderRecurrence,
    StateSpaceModel,
    TwoTimeConstants,
    ZeroChannel,
    block_hankel,
    compile_priors,
    markov_sequence,
)


def random_stable_model(rng, n=None, n_u=None, n_y=None, rho=None, Ts=1.0):
    """Random stable model; eigenvalues rescaled to a target spectral radius."""
    if n is None:
        n = int(rng.integers(1, 7))
    if n_u is None:
        n_u = int(rng.integers(1, 4))
    if n_y is None:
        n_y = int(rng.integers(1, 4))
    if rho is None:
        rho = float(rng.uniform(0.3, 0.9))
    while True:
        A = rng.standard_normal((n, n))
        radius = np.max(np.abs(np.linalg.eigvals(A)))
        if radius > 1e-12:
            break
    A = A * (rho / radius)
    return StateSpaceModel(
        A=A,
        B=rng.standard_normal((n, n_u)),
        C=rng.standard_normal((n_y, n)),
        D=rng.standard_normal((n_y, n_u)),
        Ts=Ts,
    )


def random_minimal_model(rng, n_max=4, sv_floor=1e-6):
    """Random stable model whose Hankel singular values separate cleanly.

    Rejection sampling keeps sigma_n / sigma_1 >= sv_floor so the automatic
    order rule has a gap of at least 1e6 over the numerically zero tail.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        model = random_stable_model(
            rng, n=n, n_u=int(rng.integers(1, 3)), n_y=int(rng.integers(1, 3))
        )
        q = p = n + 2
        seq = markov_sequence(model, q + p)
        s = np.linalg.svd(block_hankel(seq, q, p), compute_uv=False)
        if s[0] <= 0:
            continue
        tail_ok = len(s) <= n or s[n] / s[0] <= 1e-12
        if s[n - 1] / s[0] >= sv_floor and tail_ok:
            return model


def well_conditioned_transform(rng, n):
    """Random n x n transform with condition number at most 4."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2


def eig_multiset_distance(A, B):
    """Largest pairwise gap of the two eigenvalue multisets under optimal matching."""
    ea = np.linalg.eigvals(A) if A.size else np.zeros(0, dtype=complex)
    eb = np.linalg.eigvals(B) if B.size else np.zeros(0, dtype=complex)
    if ea.shape != eb.shape:
        return np.inf
    if ea.size == 0:
        return 0.0
    cost = np.abs(ea[:, None] - eb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def random_prototype(rng, kind=None):
    """Random prototype model with sane parameter ranges."""
    if kind is None:
        kind = rng.integers(0, 5)
    K = float(rng.uniform(0.5, 3.0))
    if kind == 0:
        return Integrator(K=K)
    if kind == 1:
        return FirstOrder(K=K, tau=float(rng.uniform(0.5, 20.0)))
    if kind == 2:
        return IntegratorFirstOrder(K=K, tau=float(rng.uniform(0.5, 20.0)))
    if kind == 3:
        tau1 = float(rng.uniform(0.5, 10.0))
        return TwoTimeConstants(K=K, tau1=tau1, tau2=tau1 * float(rng.uniform(1.5, 3.0)))
    return SecondOrderOsc(
        K=K, omega0=float(rng.uniform(0.3, 3.0)), xi=float(rng.uniform(0.1, 0.9))
    )


class DenseRegression(NamedTuple):
    """The stacked regression Phi m ~ Yvec, held dense."""

    Phi: np.ndarray
    Yvec: np.ndarray
    indexing: MarkovIndexing
    Ts: float


def dense_fir_regression(data, ell):
    """Oracle FIR regression: one np.kron block per (time, lag) pair.

    Block row t is [u(t)^T (x) I, u(t-1)^T (x) I, ..., u(t-ell)^T (x) I];
    the ``Phi`` that priorsid derives from Psi must reproduce it value for
    value, and its solvers must match the dense solves of this Phi.
    """
    N, n_u, n_y = data.n_samples, data.n_u, data.n_y
    indexing = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
    eye = np.eye(n_y)
    Phi = np.zeros(((N - ell) * n_y, indexing.size))
    for block, t in enumerate(range(ell, N)):
        for k in range(ell + 1):
            Phi[
                block * n_y : (block + 1) * n_y,
                k * n_y * n_u : (k + 1) * n_y * n_u,
            ] = np.kron(data.U[t - k], eye)
    Yvec = data.Y[ell:].reshape(-1)
    return DenseRegression(Phi=Phi, Yvec=Yvec, indexing=indexing, Ts=data.Ts)


def random_regression(rng, indexing, samples, scale=1.0):
    """A FirRegression of ``samples`` random rows of Psi (times ``scale``) and Y."""
    return FirRegression(
        Psi=scale * rng.standard_normal((samples, (indexing.ell + 1) * indexing.n_u)),
        Y=rng.standard_normal((samples, indexing.n_y)),
        indexing=indexing,
        Ts=1.0,
    )


def block_bases(cs):
    """Dense V1, V2, s1 and a0 from the block SVDs of ``cs.consistency``.

    V1 holds each block's ``rank`` leading right singular vectors and V2
    its remaining ones, then the unit vectors of the columns no block
    holds, so [V1 V2] is orthogonal; s1 and a0 join the blocks' kept
    singular values and a0.
    """
    size = cs.indexing.size
    kept, null, s1, a0 = [np.zeros((size, 0))], [], [np.zeros(0)], [np.zeros(0)]
    held = np.zeros(size, dtype=bool)
    for _, cols, s, Vt, rank, block_a0 in cs.consistency.blocks:
        V = np.zeros((size, len(cols)))
        V[cols] = Vt.T
        kept.append(V[:, :rank])
        null.append(V[:, rank:])
        s1.append(s[:rank])
        a0.append(block_a0)
        held[cols] = True
    null.append(np.eye(size)[:, ~held])
    return np.hstack(kept), np.hstack(null), np.concatenate(s1), np.concatenate(a0)


def kkt_solve(Phi, y, A, b):
    """min ||Phi m - y|| subject to A m = b, from the dense KKT system."""
    n, r = Phi.shape[1], A.shape[0]
    kkt = np.zeros((n + r, n + r))
    kkt[:n, :n] = Phi.T @ Phi
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    return np.linalg.solve(kkt, np.concatenate([Phi.T @ y, b]))[:n]


def stacked_weighted_lstsq(Phi, y, A, b, weight):
    """Oracle for the method of weighting: one lstsq of [Phi; weight A] on [y; weight b].

    Returns the estimate, the stacked matrix, its right-hand side, and the
    rank and singular values of the stacked matrix.
    """
    stacked = np.vstack([Phi, weight * A])
    rhs = np.concatenate([y, weight * b])
    m, _, rank, s = np.linalg.lstsq(stacked, rhs, rcond=None)
    return m, stacked, rhs, int(rank), s


def _integers(X):
    """Integers Xi and an exponent e with X = Xi 2^e exactly, for a float array X."""
    mantissa, exponent = np.frexp(np.asarray(X, dtype=float))
    e = int(exponent.min()) - 53
    Xi = [int(m * 2.0**53) << int(x - 53 - e) for m, x in zip(mantissa.flat, exponent.flat)]
    return np.array(Xi, dtype=object).reshape(np.shape(X)), e


def mp_weighted_solution(Phi, y, A, b, weight, dps=50):
    """Oracle for the method of weighting in ``dps`` digits (mpmath).

    Solves the normal equations of min ||Phi m - y||^2 + w^2 ||A m - b||^2
    by Cholesky.  [Phi y; w A  w b] is held exactly as integers times one
    power of 2, which cancels, so the Gram matrix is exact and the only
    rounding is the solve's, about cond([Phi; w A])^2 10^-dps relative.
    """
    top, e_top = _integers(np.column_stack([Phi, y]))
    bottom, e_bottom = _integers(np.column_stack([A, b]))
    w, e_w = _integers(weight)
    e = min(e_top, e_bottom + e_w)
    stacked = np.vstack([top * 2 ** (e_top - e), bottom * (w * 2 ** (e_bottom + e_w - e))])
    gram = stacked.T @ stacked  # [N r; r^T y^T y + w^2 b^T b]
    with mpmath.workdps(dps):
        m = mpmath.cholesky_solve(mpmath.matrix(gram[:-1, :-1].tolist()),
                                  mpmath.matrix(gram[:-1, -1].tolist()))
        return np.array([float(v) for v in m])


def dict_compile_priors(priors, indexing, Ts):
    """Oracle compile: one ``{index: coeff}`` dict per row, summed into A_eq entry by entry.

    Each row names its Markov entries through ``indexing.index``, by the
    rules of the ``compile_priors`` docstring; the lag-view compile must
    match it bit for bit, warnings and errors included.
    """
    ell, n_y, n_u = indexing.ell, indexing.n_y, indexing.n_u
    rows, rhs, tags = [], [], []

    def add(entries, value, tag):
        rows.append(entries)
        rhs.append(float(value))
        tags.append(tag)

    def recurrence(prior, coeffs, seeds, tag):
        indexing.check_channel(prior.i, prior.j)
        at = functools.partial(indexing.index, i=prior.i, j=prior.j)
        first = len(rows)
        add({at(0): 1.0}, 0.0, tag)
        for k in range(len(coeffs) + 1, ell + 1):
            entries = {at(k): 1.0}
            for r, coeff in enumerate(coeffs, start=1):
                entries[at(k - r)] = coeff
            add(entries, 0.0, tag)
        for k, value in enumerate(seeds[:ell], start=1):
            add({at(k): 1.0}, value, tag)
        if len(rows) == first + 1:
            warnings.warn(
                f"{tag}: horizon ell={ell} yields no recurrence or seed rows; only "
                "M_0 = 0 was emitted",
                ConstraintCompileWarning,
            )

    for prior in priors:
        tag = re.sub(r"\n\s*", " ", repr(prior))
        if isinstance(prior, DcGain):
            indexing.check_channel(prior.i, prior.j)
            add({indexing.index(k, prior.i, prior.j): 1.0 for k in range(ell + 1)},
                prior.value, tag)
        elif isinstance(prior, DcGainMatrix):
            if prior.matrix.shape != (n_y, n_u):
                raise ValueError(
                    f"DC-gain matrix has shape {prior.matrix.shape}, expected ({n_y}, {n_u})"
                )
            for j in range(1, n_u + 1):
                for i in range(1, n_y + 1):
                    add({indexing.index(k, i, j): 1.0 for k in range(ell + 1)},
                        prior.matrix[i - 1, j - 1], tag)
        elif isinstance(prior, GainRatio):
            indexing.check_channel(prior.i, prior.j)
            indexing.check_channel(prior.p, prior.q)
            entries = {indexing.index(k, prior.i, prior.j): 1.0 for k in range(ell + 1)}
            for k in range(ell + 1):
                idx = indexing.index(k, prior.p, prior.q)
                entries[idx] = entries.get(idx, 0.0) - prior.ratio
            add(entries, 0.0, tag)
        elif isinstance(prior, FirstOrderDecay):
            a = math.exp(-Ts / prior.tau)
            seeds = () if prior.gain is None else (prior.gain * (1.0 - a),)
            recurrence(prior, (-a,), seeds, tag)
        elif isinstance(prior, IntegratorChannel):
            recurrence(prior, (-1.0,), () if prior.gain is None else (prior.gain * Ts,), tag)
        elif isinstance(prior, SecondOrderRecurrence):
            seeds = ()
            if prior.seed is not None:
                beta1, beta0 = prior.seed
                seeds = (beta1, beta0 - prior.alpha1 * beta1)
            recurrence(prior, (prior.alpha1, prior.alpha0), seeds, tag)
        elif isinstance(prior, ZeroChannel):
            indexing.check_channel(prior.i, prior.j)
            for k in range(ell + 1):
                add({indexing.index(k, prior.i, prior.j): 1.0}, 0.0, tag)
        else:
            raise TypeError(f"unknown prior specification {type(prior).__name__}")

    A_eq = np.zeros((len(rows), indexing.size))
    for r, entries in enumerate(rows):
        for idx, coeff in entries.items():
            A_eq[r, idx] += coeff
        if not A_eq[r].any():
            raise ValueError(f"{tags[r]} compiles to an all-zero constraint row")
    return EqualityConstraintSet(
        A_eq=A_eq, b_eq=np.asarray(rhs, dtype=float), indexing=indexing, provenance=tags
    )


def nonzero_blocks(cs):
    """Oracle block finder: channel incidence from ``np.nonzero`` over all of A_eq."""
    n_ch = cs.indexing.n_y * cs.indexing.n_u
    rows, cols = np.nonzero(cs.A_eq)
    touches = np.zeros((cs.n_rows, n_ch), dtype=bool)
    touches[rows, cols % n_ch] = True
    joined = (touches.T.astype(int) @ touches > 0) | np.eye(n_ch, dtype=bool)
    for _ in range(n_ch.bit_length()):
        joined = joined.astype(int) @ joined > 0
    label = joined.argmax(axis=1)
    # each row's first nonzero column names its channel
    row_label = label[cols[np.searchsorted(rows, np.arange(cs.n_rows))] % n_ch]
    col_label = label[np.arange(cs.indexing.size) % n_ch]
    return [
        (np.flatnonzero(row_label == lab), np.flatnonzero(col_label == lab))
        for lab in np.unique(row_label)
    ]


def compile_quietly(priors, indexing):
    """compile_priors at Ts=1 with its short-horizon warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstraintCompileWarning)
        return compile_priors(priors, indexing, Ts=1.0)


@st.composite
def prior_sets(draw, coupled=False, every_kind=False):
    """A random (priors, indexing) pair on up to 3x3 channels and 12 lags.

    Values lie in [-10, 10] and ratios in +-[0.1, 10], so sets may be
    feasible or not.  ``coupled`` appends a ``GainRatio`` that joins two
    distinct channels.  ``every_kind`` also draws ``ell = 0``, a
    ``DcGainMatrix`` and a ``GainRatio`` of a channel to itself, whose ratio
    is often 1 so that its row cancels to zero.
    """
    n_y = draw(st.integers(1, 3))
    n_u = draw(st.integers(2 if coupled and n_y == 1 else 1, 3))
    ell = draw(st.integers(0 if every_kind else 1, 12))
    indexing = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
    channel = st.tuples(st.integers(1, n_y), st.integers(1, n_u))
    value = st.floats(-10.0, 10.0)
    gain = st.none() | value
    pole = st.floats(-0.95, 0.95)

    def ratio_between(c, d, r):
        return GainRatio(*c, *d, ratio=r)

    ratio = st.builds(
        ratio_between, channel, channel, st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)
    ).filter(lambda g: (g.i, g.j) != (g.p, g.q))
    prior = st.one_of(
        st.builds(lambda c, v: DcGain(*c, value=v), channel, value),
        st.builds(
            lambda c, tau, g: FirstOrderDecay(*c, tau=tau, gain=g),
            channel, st.floats(0.5, 20.0), gain,
        ),
        st.builds(lambda c, g: IntegratorChannel(*c, gain=g), channel, gain),
        st.builds(
            lambda c, p1, p2, seed: SecondOrderRecurrence(
                *c, alpha1=-(p1 + p2), alpha0=p1 * p2, seed=seed
            ),
            channel, pole, pole, st.none() | st.tuples(value, value),
        ),
        st.builds(lambda c: ZeroChannel(*c), channel),
        ratio,
    )
    if every_kind:
        matrix = st.lists(value, min_size=n_y * n_u, max_size=n_y * n_u).map(
            lambda v: DcGainMatrix(matrix=np.reshape(v, (n_y, n_u)))
        )
        self_ratio = st.builds(
            lambda c, r: GainRatio(*c, *c, ratio=r), channel, st.just(1.0) | st.floats(0.1, 10.0)
        )
        prior = prior | matrix | self_ratio
    priors = draw(st.lists(prior, min_size=1, max_size=6))
    if coupled:
        priors.append(draw(ratio))
    return priors, indexing
