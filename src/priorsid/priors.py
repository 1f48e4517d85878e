"""Compile prior knowledge into linear equality constraints on Markov parameters.

Each piece of prior knowledge about the plant (a DC gain, a dominant time
constant, an integrating channel, a second-order recurrence, a dead
input-output channel) pins down a linear relation among the entries of the
Markov blocks M_0 .. M_ell.  Stacking the blocks into one vector m turns
every declared prior into rows of A_eq m = b_eq, which the estimators in
:mod:`priorsid.estimate` then enforce.

The stacking order is fixed once and for all by :class:`MarkovIndexing`:
entry (i, j) of block M_k (1-based channels, output i, input j) lives at

    index(k, i, j) = k * n_y * n_u + (j - 1) * n_y + (i - 1)

i.e. lag-major, then input column, then output row.  Keeping the per-lag
blocks contiguous is what lets the FIR regressors be assembled as Kronecker
blocks.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .statespace import MarkovSequence

__all__ = [
    "MarkovIndexing",
    "DcGain",
    "DcGainMatrix",
    "GainRatio",
    "FirstOrderDecay",
    "IntegratorChannel",
    "SecondOrderRecurrence",
    "ZeroChannel",
    "PriorSpec",
    "EqualityConstraintSet",
    "ConsistencyReport",
    "ConstraintCompileWarning",
    "InfeasibleConstraintsError",
    "compile_priors",
    "check_consistency",
    "constraint_residual",
]


class ConstraintCompileWarning(UserWarning):
    """A prior compiled to fewer rows than its declaration suggests."""


class InfeasibleConstraintsError(ValueError):
    """The equality constraint set admits no solution."""


@dataclass(frozen=True)
class MarkovIndexing:
    """Fixed vectorization of Markov blocks M_0 .. M_ell into one vector."""

    n_y: int
    n_u: int
    ell: int

    def __post_init__(self) -> None:
        if self.n_y < 1 or self.n_u < 1:
            raise ValueError(f"n_y and n_u must be >= 1, got ({self.n_y}, {self.n_u})")
        if self.ell < 0:
            raise ValueError(f"ell must be nonnegative, got {self.ell}")

    @property
    def size(self) -> int:
        return (self.ell + 1) * self.n_y * self.n_u

    def index(self, k: int, i: int, j: int) -> int:
        """Position of M_k(i, j); k is 0-based, channels i, j are 1-based."""
        if not 0 <= k <= self.ell:
            raise ValueError(f"lag k={k} out of range [0, {self.ell}]")
        self.check_channel(i, j)
        return k * self.n_y * self.n_u + (j - 1) * self.n_y + (i - 1)

    def check_channel(self, i: int, j: int) -> None:
        if not 1 <= i <= self.n_y:
            raise ValueError(f"output channel i={i} out of range [1, {self.n_y}]")
        if not 1 <= j <= self.n_u:
            raise ValueError(f"input channel j={j} out of range [1, {self.n_u}]")

    def vec(self, markov: MarkovSequence) -> np.ndarray:
        """Stack a Markov sequence into a vector in this indexing."""
        if (markov.n_y, markov.n_u, markov.ell) != (self.n_y, self.n_u, self.ell):
            raise ValueError(
                f"sequence has (n_y={markov.n_y}, n_u={markov.n_u}, ell={markov.ell}), "
                f"indexing expects (n_y={self.n_y}, n_u={self.n_u}, ell={self.ell})"
            )
        # (k, i, j) -> (k, j, i) then flatten: lag-major, column, row.
        return markov.blocks.transpose(0, 2, 1).reshape(-1).copy()

    def unvec(self, vector: np.ndarray, Ts: float) -> MarkovSequence:
        """Inverse of :meth:`vec`."""
        vector = np.asarray(vector, dtype=float).reshape(-1)
        if vector.shape[0] != self.size:
            raise ValueError(f"vector has length {vector.shape[0]}, expected {self.size}")
        blocks = vector.reshape(self.ell + 1, self.n_u, self.n_y).transpose(0, 2, 1)
        return MarkovSequence(blocks=blocks, Ts=Ts)


def _check_channel_fields(i: int, j: int) -> None:
    if i < 1 or j < 1:
        raise ValueError(f"channel indices are 1-based, got (i={i}, j={j})")


@dataclass(frozen=True)
class DcGain:
    """Known steady-state gain of one input-output couple: sum_k M_k(i,j) = value."""

    i: int
    j: int
    value: float

    def __post_init__(self) -> None:
        _check_channel_fields(self.i, self.j)


@dataclass(frozen=True)
class DcGainMatrix:
    """Known full DC-gain matrix: one :class:`DcGain` row per channel pair."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if matrix.ndim != 2 or not np.all(np.isfinite(matrix)):
            raise ValueError("matrix must be a finite 2-D array")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class GainRatio:
    """Known ratio between two static gains: K_dc(i,j) = ratio * K_dc(p,q)."""

    i: int
    j: int
    p: int
    q: int
    ratio: float

    def __post_init__(self) -> None:
        _check_channel_fields(self.i, self.j)
        _check_channel_fields(self.p, self.q)


@dataclass(frozen=True)
class FirstOrderDecay:
    """Channel behaves like a sampled first-order lag with time constant tau.

    Compiles to M_0(i,j) = 0 and the gain-free geometric recurrence
    M_k = exp(-Ts/tau) M_{k-1} for k >= 2.  If the gain is also known, the
    seed M_1(i,j) = K (1 - exp(-Ts/tau)) is pinned as well.
    """

    i: int
    j: int
    tau: float
    gain: float | None = None

    def __post_init__(self) -> None:
        _check_channel_fields(self.i, self.j)
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a positive real, got {self.tau}")


@dataclass(frozen=True)
class IntegratorChannel:
    """Channel integrates its input: M_0 = 0 and M_k = M_{k-1} for k >= 2.

    With a known gain the constant value M_1(i,j) = K Ts is pinned too.
    """

    i: int
    j: int
    gain: float | None = None

    def __post_init__(self) -> None:
        _check_channel_fields(self.i, self.j)


@dataclass(frozen=True)
class SecondOrderRecurrence:
    """Channel obeys M_k + alpha1 M_{k-1} + alpha0 M_{k-2} = 0 for k >= 3.

    alpha1 and alpha0 depend only on the time constants (or damping and
    natural frequency), so the recurrence is usable without the gain.  The
    optional seed (beta1, beta0) additionally pins M_1 = beta1 and
    M_2 = beta0 - alpha1 beta1.
    """

    i: int
    j: int
    alpha1: float
    alpha0: float
    seed: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        _check_channel_fields(self.i, self.j)
        if self.seed is not None:
            seed = tuple(float(v) for v in self.seed)
            if len(seed) != 2:
                raise ValueError(f"seed must be a (beta1, beta0) pair, got {self.seed}")
            object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class ZeroChannel:
    """Input j does not affect output i: every M_k(i,j) = 0."""

    i: int
    j: int

    def __post_init__(self) -> None:
        _check_channel_fields(self.i, self.j)


PriorSpec = Union[
    DcGain,
    DcGainMatrix,
    GainRatio,
    FirstOrderDecay,
    IntegratorChannel,
    SecondOrderRecurrence,
    ZeroChannel,
]


@dataclass(frozen=True)
class EqualityConstraintSet:
    """Rows A_eq m = b_eq on the stacked Markov vector, with provenance tags."""

    A_eq: np.ndarray
    b_eq: np.ndarray
    indexing: MarkovIndexing
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        A = np.asarray(self.A_eq, dtype=float)
        b = np.asarray(self.b_eq, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[1] != self.indexing.size:
            raise ValueError(
                f"A_eq has shape {A.shape}, expected (*, {self.indexing.size})"
            )
        if b.shape[0] != A.shape[0]:
            raise ValueError(f"b_eq has length {b.shape[0]} but A_eq has {A.shape[0]} rows")
        if len(self.provenance) != A.shape[0]:
            raise ValueError("provenance must carry one tag per row")
        if A.shape[0] and not np.all(np.any(A != 0.0, axis=1)):
            raise ValueError("every constraint row must have at least one nonzero entry")
        A = A.copy()
        b = b.copy()
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A_eq", A)
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def n_rows(self) -> int:
        return self.A_eq.shape[0]

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of A_eq in descending order, computed on first access."""
        s = np.linalg.svd(self.A_eq, compute_uv=False)
        s.setflags(write=False)
        return s

    @functools.cached_property
    def consistency(self) -> ConsistencyReport:
        """:func:`check_consistency` of this set, computed on first access."""
        return check_consistency(self)


@dataclass(frozen=True)
class ConsistencyReport:
    """Rank diagnostics of a constraint set."""

    rank: int
    redundant_rows: tuple[int, ...]
    infeasible: bool


class _RowBuilder:
    def __init__(self):
        self.rows: list[dict[int, float]] = []
        self.rhs: list[float] = []
        self.tags: list[str] = []

    def add(self, entries: dict[int, float], rhs: float, tag: str) -> None:
        self.rows.append(entries)
        self.rhs.append(float(rhs))
        self.tags.append(tag)


def _recurrence_rows(
    out: _RowBuilder,
    indexing: MarkovIndexing,
    prior: FirstOrderDecay | IntegratorChannel | SecondOrderRecurrence,
    coeffs: tuple[float, ...],
    seeds: tuple[float, ...],
    tag: str,
) -> None:
    """Rows of one recurrence prior, by the shared rule of :func:`compile_priors`."""
    indexing.check_channel(prior.i, prior.j)
    ell = indexing.ell

    def at(k: int) -> int:
        return indexing.index(k, prior.i, prior.j)

    first = len(out.rows)
    out.add({at(0): 1.0}, 0.0, tag)
    for k in range(len(coeffs) + 1, ell + 1):
        entries = {at(k): 1.0}
        for r, coeff in enumerate(coeffs, start=1):
            entries[at(k - r)] = coeff
        out.add(entries, 0.0, tag)
    for k, value in enumerate(seeds[:ell], start=1):
        out.add({at(k): 1.0}, value, tag)
    if len(out.rows) == first + 1:
        warnings.warn(
            f"{tag}: horizon ell={ell} yields no recurrence or seed rows; only "
            "M_0 = 0 was emitted",
            ConstraintCompileWarning,
            stacklevel=3,
        )


def compile_priors(
    priors: list[PriorSpec], indexing: MarkovIndexing, Ts: float
) -> EqualityConstraintSet:
    """Expand declared priors into stacked equality rows, in declaration order.

    Row expansion per prior kind:

    * ``DcGain(i, j, v)``: one row summing M_k(i,j) over all lags, rhs v.
    * ``DcGainMatrix``: one such row per channel pair (input-major order).
    * ``GainRatio``: one homogeneous row, gain(i,j) - ratio * gain(p,q) = 0.
    * The three recurrence kinds share one rule.  An order-r recurrence
      with coefficients (c_1, .., c_r) and seeds (s_1, .., s_r) compiles,
      on channel (i, j), to M_0 = 0, then
      M_k + c_1 M_{k-1} + .. + c_r M_{k-r} = 0 for r < k <= ell, then the
      seed rows M_1 = s_1, M_2 = s_2, .. for the seeds with lag <= ell:

      - ``FirstOrderDecay``: r = 1, c = (-a,) with a = exp(-Ts/tau); with a
        known gain the seed is M_1 = K (1 - a).
      - ``IntegratorChannel``: r = 1, c = (-1,); with a known gain the seed
        is M_1 = K Ts.
      - ``SecondOrderRecurrence``: r = 2, c = (alpha1, alpha0); with a seed
        (beta1, beta0) the seeds are M_1 = beta1 and
        M_2 = beta0 - alpha1 beta1.
    * ``ZeroChannel``: M_k(i,j) = 0 for every lag (ell + 1 rows).

    A recurrence prior that compiles to the lone M_0 row (its horizon is
    too short for any recurrence row, and no seed row fits or none was
    given) triggers a :class:`ConstraintCompileWarning`.
    """
    if not (math.isfinite(Ts) and Ts > 0):
        raise ValueError(f"Ts must be a positive real, got {Ts}")
    ell, n_y, n_u = indexing.ell, indexing.n_y, indexing.n_u
    out = _RowBuilder()

    for prior in priors:
        tag = repr(prior)
        if isinstance(prior, DcGain):
            indexing.check_channel(prior.i, prior.j)
            entries = {indexing.index(k, prior.i, prior.j): 1.0 for k in range(ell + 1)}
            out.add(entries, prior.value, tag)
        elif isinstance(prior, DcGainMatrix):
            if prior.matrix.shape != (n_y, n_u):
                raise ValueError(
                    f"DC-gain matrix has shape {prior.matrix.shape}, "
                    f"expected ({n_y}, {n_u})"
                )
            for j in range(1, n_u + 1):
                for i in range(1, n_y + 1):
                    entries = {indexing.index(k, i, j): 1.0 for k in range(ell + 1)}
                    out.add(entries, prior.matrix[i - 1, j - 1], tag)
        elif isinstance(prior, GainRatio):
            indexing.check_channel(prior.i, prior.j)
            indexing.check_channel(prior.p, prior.q)
            entries: dict[int, float] = {}
            for k in range(ell + 1):
                entries[indexing.index(k, prior.i, prior.j)] = 1.0
            for k in range(ell + 1):
                idx = indexing.index(k, prior.p, prior.q)
                entries[idx] = entries.get(idx, 0.0) - prior.ratio
            out.add(entries, 0.0, tag)
        elif isinstance(prior, FirstOrderDecay):
            a = math.exp(-Ts / prior.tau)
            seeds = () if prior.gain is None else (prior.gain * (1.0 - a),)
            _recurrence_rows(out, indexing, prior, (-a,), seeds, tag)
        elif isinstance(prior, IntegratorChannel):
            seeds = () if prior.gain is None else (prior.gain * Ts,)
            _recurrence_rows(out, indexing, prior, (-1.0,), seeds, tag)
        elif isinstance(prior, SecondOrderRecurrence):
            seeds = ()
            if prior.seed is not None:
                beta1, beta0 = prior.seed
                seeds = (beta1, beta0 - prior.alpha1 * beta1)
            _recurrence_rows(out, indexing, prior, (prior.alpha1, prior.alpha0), seeds, tag)
        elif isinstance(prior, ZeroChannel):
            indexing.check_channel(prior.i, prior.j)
            for k in range(ell + 1):
                out.add({indexing.index(k, prior.i, prior.j): 1.0}, 0.0, tag)
        else:
            raise TypeError(f"unknown prior specification {type(prior).__name__}")

    A_eq = np.zeros((len(out.rows), indexing.size))
    for r, entries in enumerate(out.rows):
        for idx, coeff in entries.items():
            A_eq[r, idx] += coeff
    return EqualityConstraintSet(
        A_eq=A_eq,
        b_eq=np.asarray(out.rhs, dtype=float),
        indexing=indexing,
        provenance=tuple(out.tags),
    )


def _rank(s: np.ndarray, shape: tuple[int, ...]) -> int:
    """Count of singular values ``s`` (nonempty, descending) above sigma_max * max(shape) * eps."""
    tol = s[0] * max(shape) * np.finfo(float).eps
    return int(np.count_nonzero(s > tol))


def check_consistency(cs: EqualityConstraintSet) -> ConsistencyReport:
    """Rank, redundant rows and feasibility of a constraint set.

    Rank uses the SVD with tolerance sigma_max * max(rows, cols) * eps; the
    singular values of A_eq are those cached on ``cs.singular_values``.
    Redundant rows are the ones a pivoted QR of A_eq^T leaves out of the
    leading independent set; at full row rank there are none, and the QR
    (the one use of scipy in the package) is skipped.  The set is
    infeasible when appending b_eq raises the rank (some combination of
    rows demands 0 = nonzero).
    """
    if cs.n_rows == 0:
        return ConsistencyReport(rank=0, redundant_rows=(), infeasible=False)
    rank = _rank(cs.singular_values, cs.A_eq.shape)
    augmented = np.column_stack([cs.A_eq, cs.b_eq])
    rank_aug = _rank(np.linalg.svd(augmented, compute_uv=False), augmented.shape)
    redundant: tuple[int, ...] = ()
    if rank < cs.n_rows:
        import scipy.linalg

        _, _, piv = scipy.linalg.qr(cs.A_eq.T, mode="economic", pivoting=True)
        redundant = tuple(sorted(int(r) for r in piv[rank:]))
    return ConsistencyReport(
        rank=rank, redundant_rows=redundant, infeasible=rank_aug > rank
    )


def constraint_residual(cs: EqualityConstraintSet, markov: MarkovSequence) -> float:
    """Euclidean norm of A_eq vec(markov) - b_eq."""
    m = cs.indexing.vec(markov)
    return float(np.linalg.norm(cs.A_eq @ m - cs.b_eq))
