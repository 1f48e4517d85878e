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

i.e. lag-major, then input column, then output row.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .statespace import MarkovSequence, _freeze, _require_positive

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
    "ConstraintBlock",
    "BlockSvd",
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


def _check_finite(prior: object, *names: str) -> None:
    for name in names:
        value = getattr(prior, name)
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class DcGain:
    """Known steady-state gain of one input-output couple: sum_k M_k(i,j) = value."""

    i: int
    j: int
    value: float

    def __post_init__(self) -> None:
        _check_channel_fields(self.i, self.j)
        _check_finite(self, "value")


@dataclass(frozen=True)
class DcGainMatrix:
    """Known full DC-gain matrix: one :class:`DcGain` row per channel pair."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if matrix.ndim != 2 or not np.all(np.isfinite(matrix)):
            raise ValueError("matrix must be a finite 2-D array")
        object.__setattr__(self, "matrix", _freeze(matrix.copy()))


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
        _check_finite(self, "ratio")


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
        _require_positive("tau", self.tau)
        _check_finite(self, "gain")


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
        _check_finite(self, "gain")


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
        _check_finite(self, "alpha1", "alpha0", "seed")


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


class ConstraintBlock(NamedTuple):
    """Diagonal block ``A = A_eq[rows][:, cols]`` of a constraint set.

    ``cols`` holds every lag of the block's channels in ascending order,
    so ``A.reshape(len(rows), ell + 1, -1)[:, k, c]`` is lag k of the
    block's c-th channel.  The arrays are read-only.
    """

    rows: np.ndarray
    cols: np.ndarray
    A: np.ndarray


class BlockSvd(NamedTuple):
    """SVD ``A = U diag(s) Vt`` of one :class:`ConstraintBlock` of a set.

    ``Vt`` is square, so its rows from ``rank`` on span the block's null
    space.  ``rank`` applies the rule of :func:`_rank` to ``s``, and
    ``a0 = S1^-1 U1^T b_eq[rows]`` over the ``rank`` leading singular
    triplets, so ``Vt[:rank].T @ a0`` is the block's minimum-norm
    solution.  The arrays are read-only.
    """

    rows: np.ndarray
    cols: np.ndarray
    s: np.ndarray
    Vt: np.ndarray
    rank: int
    a0: np.ndarray


@dataclass(frozen=True, init=False)
class EqualityConstraintSet:
    """Rows A_eq m = b_eq on the stacked Markov vector, with provenance tags.

    The rows are held as the diagonal blocks of A_eq (``blocks``, one
    :class:`ConstraintBlock` per block of :func:`_blocks`, by lowest
    channel): a block is a set of channels joined by shared rows, its
    columns are all lags of those channels, and A_eq is zero outside
    the blocks.  ``A_eq`` itself is derived from them on first access.
    A set built from a dense ``A_eq`` is assembled from each channel's
    lags of it by the same code as a set from :func:`compile_priors`,
    into fresh blocks and a copy of b_eq; the arrays are read-only.
    """

    b_eq: np.ndarray
    indexing: MarkovIndexing
    provenance: tuple[str, ...]
    blocks: tuple[ConstraintBlock, ...]

    def __init__(
        self,
        A_eq: np.ndarray,
        b_eq: np.ndarray,
        indexing: MarkovIndexing,
        provenance: tuple[str, ...],
    ) -> None:
        A = np.asarray(A_eq, dtype=float)
        b = np.array(b_eq, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[1] != indexing.size:
            raise ValueError(f"A_eq has shape {A.shape}, expected (*, {indexing.size})")
        if b.shape[0] != A.shape[0]:
            raise ValueError(f"b_eq has length {b.shape[0]} but A_eq has {A.shape[0]} rows")
        if len(provenance) != A.shape[0]:
            raise ValueError("provenance must carry one tag per row")
        if not A.any(axis=1).all():
            raise ValueError("every constraint row must have at least one nonzero entry")
        n_ch = indexing.n_y * indexing.n_u
        lags = A.reshape(A.shape[0], indexing.ell + 1, n_ch)
        rows = np.arange(A.shape[0])
        self._assemble([(rows, ch, lags[:, :, ch]) for ch in range(n_ch)], b, indexing, provenance)

    def _assemble(self, terms, b_eq, indexing, provenance) -> None:
        """Build ``blocks`` from ``terms`` and take over ``b_eq``, which no one else may write.

        Each term ``(rows, ch, lag_rows)`` puts ``lag_rows[r, k]`` at lag k
        of channel ch (column k n_y n_u + ch) in row ``rows[r]``; no two
        terms share a row and a channel.  A row with no nonzero term
        raises a ValueError naming its provenance tag.
        """
        ell, n_ch = indexing.ell, indexing.n_y * indexing.n_u
        touches = np.zeros((len(b_eq), n_ch), dtype=bool)
        for rows, ch, lag_rows in terms:
            touches[rows, ch] = lag_rows.any(axis=1)
        zero = ~touches.any(axis=1)
        if zero.any():
            raise ValueError(f"{provenance[zero.argmax()]} compiles to an all-zero constraint row")
        blocks = []
        block_of = np.zeros(n_ch, dtype=int)  # channel -> its block
        slot = np.zeros(n_ch, dtype=int)  # channel -> its place among its block's channels
        local = np.empty(len(b_eq), dtype=int)  # row -> its place among its block's rows
        for rows, cols in _blocks(touches, ell):
            chans = cols[: len(cols) // (ell + 1)]
            block_of[chans], slot[chans] = len(blocks), np.arange(len(chans))
            local[rows] = np.arange(len(rows))
            blocks.append(ConstraintBlock(rows, cols, np.zeros((len(rows), len(cols)))))
        for rows, ch, lag_rows in terms:
            hit = touches[rows, ch]  # a row that is zero on ch need not lie in its block
            if hit.any():
                A = blocks[block_of[ch]].A
                A.reshape(len(A), ell + 1, -1)[local[rows[hit]], :, slot[ch]] = lag_rows[hit]
        for array in (b_eq, *(array for block in blocks for array in block)):
            array.setflags(write=False)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "indexing", indexing)
        object.__setattr__(self, "provenance", tuple(provenance))
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def n_rows(self) -> int:
        return self.b_eq.shape[0]

    @functools.cached_property
    def A_eq(self) -> np.ndarray:
        """The dense rows, assembled from ``blocks`` on first access; read-only."""
        A = np.zeros((self.n_rows, self.indexing.size))
        for rows, cols, block in self.blocks:
            A[np.ix_(rows, cols)] = block
        return _freeze(A)

    def residual(self, m: np.ndarray) -> np.ndarray:
        """A_eq m - b_eq for a stacked Markov vector m, block by block."""
        r = np.empty(self.n_rows)
        for rows, cols, A in self.blocks:
            r[rows] = A @ m[cols] - self.b_eq[rows]
        return r

    @functools.cached_property
    def consistency(self) -> ConsistencyReport:
        """:func:`check_consistency` of this set, computed on first access."""
        return check_consistency(self)


@dataclass(frozen=True)
class ConsistencyReport:
    """Rank diagnostics and block factorizations of a constraint set.

    ``blocks`` holds one :class:`BlockSvd` per block of the set, left out
    of ==.
    """

    rank: int
    redundant_rows: tuple[int, ...]
    infeasible: bool
    blocks: tuple[BlockSvd, ...] = field(compare=False, repr=False)


_RECURRENCES = (FirstOrderDecay, IntegratorChannel, SecondOrderRecurrence)


def _recurrence_rows(
    prior: FirstOrderDecay | IntegratorChannel | SecondOrderRecurrence, ell: int, Ts: float
) -> tuple[np.ndarray, list[float]]:
    """Lag rows and rhs of one recurrence prior, by the shared rule of :func:`compile_priors`."""
    if isinstance(prior, FirstOrderDecay):
        a = math.exp(-Ts / prior.tau)
        coeffs, seeds = (-a,), () if prior.gain is None else (prior.gain * (1.0 - a),)
    elif isinstance(prior, IntegratorChannel):
        coeffs, seeds = (-1.0,), () if prior.gain is None else (prior.gain * Ts,)
    else:
        coeffs, seeds = (prior.alpha1, prior.alpha0), ()
        if prior.seed is not None:
            beta1, beta0 = prior.seed
            seeds = (beta1, beta0 - prior.alpha1 * beta1)
    r, seeds, eye = len(coeffs), seeds[:ell], np.eye(ell + 1)
    band = eye[r + 1 :] + sum(
        c * np.eye(ell + 1, k=-s)[r + 1 :] for s, c in enumerate(coeffs, start=1)
    )
    rows = np.vstack([eye[:1], band, eye[1 : len(seeds) + 1]])
    return rows, [0.0] * (1 + len(band)) + list(seeds)


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

    Each row's provenance tag is the ``repr`` of its prior on one line: the
    line breaks of numpy's array repr (in a ``DcGainMatrix``) and the
    indentation after them become one space.

    Each prior's rows are dense over the lags of its channels, and go
    to the shared assembly of :class:`EqualityConstraintSet` channel by
    channel; no dense A_eq is formed.  A recurrence prior that compiles
    to the lone M_0 row (its horizon is too short for any recurrence row,
    and no seed row fits or none was given) triggers a
    :class:`ConstraintCompileWarning`.  A row that cancels to zero, as in
    ``GainRatio(i, j, i, j, 1.0)``, raises a ``ValueError`` naming its prior.
    """
    _require_positive("Ts", Ts)
    ell, n_y, n_u = indexing.ell, indexing.n_y, indexing.n_u
    ones = np.ones((1, ell + 1))
    terms, rhs, tags = [], [], []

    def add(tag, channel_rows, values):
        """One row per value; ``channel_rows`` (i, j, lag rows) on one channel are summed."""
        rows = np.arange(len(rhs), len(rhs) + len(values))
        summed = {}
        for i, j, lag_rows in channel_rows:
            ch = indexing.index(0, i, j)
            summed[ch] = summed.get(ch, 0.0) + lag_rows
        terms.extend((rows, ch, lag_rows) for ch, lag_rows in summed.items())
        rhs.extend(values)
        tags.extend([tag] * len(values))

    for prior in priors:
        tag = " ".join(line.strip() for line in repr(prior).splitlines())
        if isinstance(prior, DcGain):
            add(tag, [(prior.i, prior.j, ones)], [prior.value])
        elif isinstance(prior, DcGainMatrix):
            if prior.matrix.shape != (n_y, n_u):
                raise ValueError(
                    f"DC-gain matrix has shape {prior.matrix.shape}, "
                    f"expected ({n_y}, {n_u})"
                )
            for j in range(1, n_u + 1):
                for i in range(1, n_y + 1):
                    add(tag, [(i, j, ones)], [prior.matrix[i - 1, j - 1]])
        elif isinstance(prior, GainRatio):
            add(tag, [(prior.i, prior.j, ones), (prior.p, prior.q, -prior.ratio * ones)], [0.0])
        elif isinstance(prior, _RECURRENCES):
            lag_rows, values = _recurrence_rows(prior, ell, Ts)
            add(tag, [(prior.i, prior.j, lag_rows)], values)
            if len(values) == 1:
                warnings.warn(
                    f"{tag}: horizon ell={ell} yields no recurrence or seed rows; only "
                    "M_0 = 0 was emitted",
                    ConstraintCompileWarning,
                    stacklevel=2,
                )
        elif isinstance(prior, ZeroChannel):
            add(tag, [(prior.i, prior.j, np.eye(ell + 1))], [0.0] * (ell + 1))
        else:
            raise TypeError(f"unknown prior specification {type(prior).__name__}")
    cs = object.__new__(EqualityConstraintSet)  # there is no dense A_eq for __init__
    cs._assemble(terms, np.array(rhs, dtype=float), indexing, tuple(tags))
    return cs


def _rank(s: np.ndarray, shape: tuple[int, ...]) -> int:
    """Count of singular values ``s`` (descending) above s[0] * max(shape) * eps; 0 if empty."""
    return int(np.count_nonzero(s > s[0] * max(shape) * np.finfo(float).eps)) if s.size else 0


def _blocks(touches: np.ndarray, ell: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of the diagonal blocks of a set, by lowest channel.

    ``touches[r, c]`` tells whether row r has a nonzero on channel c, the
    channel of columns c, c + n_ch, .., c + ell n_ch (n_ch =
    ``touches.shape[1]``).  Channels joined by a chain of rows share a
    block, whose columns are all lags of its channels; each row touches
    a channel, so it lies in one block.
    """
    n_ch = touches.shape[1]
    joined = (touches.T.astype(int) @ touches > 0) | np.eye(n_ch, dtype=bool)
    for _ in range(n_ch.bit_length()):  # each squaring doubles the chain length covered
        joined = joined.astype(int) @ joined > 0
    label = joined.argmax(axis=1)  # lowest channel of each block
    row_label = label[touches.argmax(axis=1)]
    col_label = label[np.arange((ell + 1) * n_ch) % n_ch]
    return [
        (np.flatnonzero(row_label == lab), np.flatnonzero(col_label == lab))
        for lab in np.unique(row_label)
    ]


def check_consistency(cs: EqualityConstraintSet) -> ConsistencyReport:
    """Rank, redundant rows, feasibility and block factorizations.

    Takes one SVD per stored block of ``cs.blocks``, with full matrices only for
    wide blocks, so Vt is square.  Each block's b is scaled exactly, by a
    power of 2, to max |b| in [0.5, 1); its minimum-norm solution is
    x = V1 a0 with a0 = S1^-1 U1^T b over the block's ``rank`` leading
    singular triplets, and its sigma_max is ||A v_1||.  A block is
    infeasible when ||A x - b|| > 1e3 max(rows, cols) eps (||b|| +
    sigma_max ||x||), so no scale of b hides a contradiction; in units of
    max(rows, cols) eps (...), feasible blocks were seen below 1 and
    contradictions above 1e8.  A pivoted QR of A^T (scipy) picks the
    redundant rows of rank-deficient blocks only.  Ranks add up, and
    ``blocks`` keeps each block's :class:`BlockSvd`, with a0 scaled back to
    the unscaled b.
    """
    rank, infeasible, redundant, blocks = 0, False, [], []
    eps = np.finfo(float).eps
    for rows, cols, A in cs.blocks:
        b = cs.b_eq[rows]
        U, s, Vt = np.linalg.svd(A, full_matrices=len(rows) < len(cols))
        block_rank = _rank(s, A.shape)
        e = np.frexp(np.abs(b).max())[1]
        b = np.ldexp(b, -e)  # no norm below underflows or overflows
        a0 = (U[:, :block_rank].T @ b) / s[:block_rank]
        x = Vt[:block_rank].T @ a0
        # second order in the error of Vt[0]; s[0] itself can be off by a few ulp
        sigma = float(np.linalg.norm(A @ Vt[0]))
        bound = 1e3 * max(A.shape) * eps * (np.linalg.norm(b) + sigma * np.linalg.norm(x))
        infeasible = infeasible or bool(np.linalg.norm(A @ x - b) > bound)
        if block_rank < len(rows):
            import scipy.linalg

            piv = scipy.linalg.qr(A.T, mode="r", pivoting=True)[1]
            redundant += rows[piv[block_rank:]].tolist()
        rank += block_rank
        a0 = np.ldexp(a0, e)
        for array in (s, Vt, a0):
            array.setflags(write=False)
        blocks.append(BlockSvd(rows, cols, s, Vt, block_rank, a0))
    return ConsistencyReport(rank, tuple(sorted(redundant)), infeasible, tuple(blocks))


def constraint_residual(cs: EqualityConstraintSet, markov: MarkovSequence) -> float:
    """Euclidean norm of A_eq vec(markov) - b_eq, taken block by block."""
    return float(np.linalg.norm(cs.residual(cs.indexing.vec(markov))))
