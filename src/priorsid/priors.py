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


@dataclass(frozen=True)
class ConsistencyReport:
    """Rank diagnostics of a constraint set."""

    rank: int
    redundant_rows: tuple[int, ...]
    infeasible: bool


class _RowBuilder:
    def __init__(self, size: int):
        self.size = size
        self.rows: list[np.ndarray] = []
        self.rhs: list[float] = []
        self.tags: list[str] = []

    def add(self, entries: dict[int, float], rhs: float, tag: str) -> None:
        row = np.zeros(self.size)
        for idx, coeff in entries.items():
            row[idx] += coeff
        self.rows.append(row)
        self.rhs.append(float(rhs))
        self.tags.append(tag)


def compile_priors(
    priors: list[PriorSpec], indexing: MarkovIndexing, Ts: float
) -> EqualityConstraintSet:
    """Expand declared priors into stacked equality rows, in declaration order.

    Row expansion per prior kind:

    * ``DcGain(i, j, v)``: one row summing M_k(i,j) over all lags, rhs v.
    * ``DcGainMatrix``: one such row per channel pair (input-major order).
    * ``GainRatio``: one homogeneous row, gain(i,j) - ratio * gain(p,q) = 0.
    * ``FirstOrderDecay``: M_0 = 0 plus M_k - a M_{k-1} = 0 for 2 <= k <= ell
      with a = exp(-Ts/tau); with a known gain also M_1 = K (1 - a).
    * ``IntegratorChannel``: M_0 = 0 plus M_k - M_{k-1} = 0 for 2 <= k <= ell;
      with a known gain also M_1 = K Ts.
    * ``SecondOrderRecurrence``: M_0 = 0 plus
      M_k + alpha1 M_{k-1} + alpha0 M_{k-2} = 0 for 3 <= k <= ell; with a
      seed also M_1 = beta1 and M_2 = beta0 - alpha1 beta1.
    * ``ZeroChannel``: M_k(i,j) = 0 for every lag (ell + 1 rows).

    A recurrence prior whose horizon is too short to yield any recurrence
    row (and that carries no gain/seed) compiles to the lone M_0 row and
    triggers a :class:`ConstraintCompileWarning`.
    """
    if not (math.isfinite(Ts) and Ts > 0):
        raise ValueError(f"Ts must be a positive real, got {Ts}")
    ell, n_y, n_u = indexing.ell, indexing.n_y, indexing.n_u
    out = _RowBuilder(indexing.size)

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
            indexing.check_channel(prior.i, prior.j)
            a = math.exp(-Ts / prior.tau)
            out.add({indexing.index(0, prior.i, prior.j): 1.0}, 0.0, tag)
            for k in range(2, ell + 1):
                out.add(
                    {
                        indexing.index(k, prior.i, prior.j): 1.0,
                        indexing.index(k - 1, prior.i, prior.j): -a,
                    },
                    0.0,
                    tag,
                )
            if prior.gain is not None:
                out.add(
                    {indexing.index(1, prior.i, prior.j): 1.0},
                    prior.gain * (1.0 - a),
                    tag,
                )
            elif ell < 2:
                warnings.warn(
                    f"{tag}: horizon ell={ell} yields no decay rows; only M_0 = 0 "
                    "was emitted",
                    ConstraintCompileWarning,
                    stacklevel=2,
                )
        elif isinstance(prior, IntegratorChannel):
            indexing.check_channel(prior.i, prior.j)
            out.add({indexing.index(0, prior.i, prior.j): 1.0}, 0.0, tag)
            for k in range(2, ell + 1):
                out.add(
                    {
                        indexing.index(k, prior.i, prior.j): 1.0,
                        indexing.index(k - 1, prior.i, prior.j): -1.0,
                    },
                    0.0,
                    tag,
                )
            if prior.gain is not None:
                out.add({indexing.index(1, prior.i, prior.j): 1.0}, prior.gain * Ts, tag)
            elif ell < 2:
                warnings.warn(
                    f"{tag}: horizon ell={ell} yields no constancy rows; only "
                    "M_0 = 0 was emitted",
                    ConstraintCompileWarning,
                    stacklevel=2,
                )
        elif isinstance(prior, SecondOrderRecurrence):
            indexing.check_channel(prior.i, prior.j)
            out.add({indexing.index(0, prior.i, prior.j): 1.0}, 0.0, tag)
            for k in range(3, ell + 1):
                out.add(
                    {
                        indexing.index(k, prior.i, prior.j): 1.0,
                        indexing.index(k - 1, prior.i, prior.j): prior.alpha1,
                        indexing.index(k - 2, prior.i, prior.j): prior.alpha0,
                    },
                    0.0,
                    tag,
                )
            if prior.seed is not None:
                beta1, beta0 = prior.seed
                if ell >= 1:
                    out.add({indexing.index(1, prior.i, prior.j): 1.0}, beta1, tag)
                if ell >= 2:
                    out.add(
                        {indexing.index(2, prior.i, prior.j): 1.0},
                        beta0 - prior.alpha1 * beta1,
                        tag,
                    )
            elif ell < 3:
                warnings.warn(
                    f"{tag}: horizon ell={ell} yields no recurrence rows; only "
                    "M_0 = 0 was emitted",
                    ConstraintCompileWarning,
                    stacklevel=2,
                )
        elif isinstance(prior, ZeroChannel):
            indexing.check_channel(prior.i, prior.j)
            for k in range(ell + 1):
                out.add({indexing.index(k, prior.i, prior.j): 1.0}, 0.0, tag)
        else:
            raise TypeError(f"unknown prior specification {type(prior).__name__}")

    A_eq = np.vstack(out.rows) if out.rows else np.zeros((0, indexing.size))
    return EqualityConstraintSet(
        A_eq=A_eq,
        b_eq=np.asarray(out.rhs, dtype=float),
        indexing=indexing,
        provenance=tuple(out.tags),
    )


def _svd_rank(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    tol = s[0] * max(matrix.shape) * np.finfo(float).eps
    return int(np.count_nonzero(s > tol))


def check_consistency(cs: EqualityConstraintSet) -> ConsistencyReport:
    """Rank, redundant rows and feasibility of a constraint set.

    Rank uses the SVD with tolerance sigma_max * max(rows, cols) * eps.
    Redundant rows are the ones a pivoted QR of A_eq^T leaves out of the
    leading independent set; at full row rank there are none, and the QR
    (the one use of scipy in the package) is skipped.  The set is
    infeasible when appending b_eq raises the rank (some combination of
    rows demands 0 = nonzero).
    """
    if cs.n_rows == 0:
        return ConsistencyReport(rank=0, redundant_rows=(), infeasible=False)
    rank = _svd_rank(cs.A_eq)
    rank_aug = _svd_rank(np.column_stack([cs.A_eq, cs.b_eq]))
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
