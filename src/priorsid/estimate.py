"""FIR least-squares estimation of Markov parameters, with equality constraints.

Over a horizon of ell lags the model output is approximated by the
truncated convolution y(t) = sum_k M_k u(t-k), which is linear in the
stacked Markov vector m.  Three solvers are provided, and
:func:`estimate_markov` runs the one a mode name in ``MODES`` selects:

* :func:`ls_unconstrained` - plain least squares, minimum-norm when the
  regressor is rank deficient (short or poorly exciting data never aborts,
  it just gets flagged).
* :func:`ls_equality_exact` - null-space elimination: the constraints fix
  the coordinates along A_eq's row space and an unconstrained solve finds
  the rest, so the constraints hold to machine precision.
* :func:`ls_equality_weighted` - the method of weighting: the constraint
  rows enter the objective with a large weight, which tolerates (and
  reports) inconsistent priors (Van Loan 1985).

Both constrained solvers work in the coordinates m = V1 a + V2 z of the
SVDs of the diagonal blocks of A_eq that the cached consistency check
keeps (``cs.consistency.blocks``), so each constraint set is factored,
and its rank decided, once, block by block.

The regressor of the stacked vector is Phi = Psi (x) I_{n_y}, with Psi
the windowed input.  The solvers read Psi and the output records only:
no solver forms the dense Phi, which is n_y^2 times the size of Psi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .priors import (
    EqualityConstraintSet,
    InfeasibleConstraintsError,
    MarkovIndexing,
)
from .statespace import MarkovSequence, _freeze, _require_positive

__all__ = [
    "IdentDataset",
    "FirRegression",
    "EstimateResult",
    "EstimationWarning",
    "build_fir_regression",
    "ls_unconstrained",
    "ls_equality_exact",
    "ls_equality_weighted",
    "default_weight",
    "estimate_markov",
]

MODES = ("unconstrained", "exact", "weighted")


class EstimationWarning(UserWarning):
    """Non-fatal estimation condition worth surfacing (degeneracy, conditioning)."""


@dataclass(frozen=True)
class IdentDataset:
    """Sampled input/output records U (N x n_u), Y (N x n_y) at period Ts."""

    U: np.ndarray
    Y: np.ndarray
    Ts: float

    def __post_init__(self) -> None:
        U = np.asarray(self.U, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if U.ndim == 1:
            U = U.reshape(-1, 1)
        if Y.ndim == 1:
            Y = Y.reshape(-1, 1)
        if U.ndim != 2 or Y.ndim != 2:
            raise ValueError("U and Y must be 2-D sample matrices")
        if U.shape[0] != Y.shape[0]:
            raise ValueError(
                f"U has {U.shape[0]} rows but Y has {Y.shape[0]}; row counts must match"
            )
        if U.size and not np.all(np.isfinite(U)):
            raise ValueError("U contains non-finite entries")
        if Y.size and not np.all(np.isfinite(Y)):
            raise ValueError("Y contains non-finite entries")
        Ts = _require_positive("Ts", self.Ts)
        object.__setattr__(self, "U", _freeze(U.copy()))
        object.__setattr__(self, "Y", _freeze(Y.copy()))
        object.__setattr__(self, "Ts", Ts)

    @property
    def n_samples(self) -> int:
        return self.U.shape[0]

    @property
    def n_u(self) -> int:
        return self.U.shape[1]

    @property
    def n_y(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class FirRegression:
    """Regression Psi M ~ Y of the outputs on the windowed input.

    Row t - ell of ``Psi`` is [u(t)^T, u(t-1)^T, ..., u(t-ell)^T] and row
    t - ell of ``Y`` is y(t)^T, for t = ell .. N-1, so that
    y(t) = sum_{k=0}^{ell} M_k u(t-k) reads Psi M = Y, where the
    (ell + 1) n_u x n_y matrix M is m.reshape(-1, n_y) under the
    vectorization fixed by ``indexing``.  The stacked regression
    Phi m ~ Yvec of the same problem has Phi = Psi (x) I_{n_y}: column c
    of Phi is column c // n_y of Psi on the rows of output c % n_y.
    ``Phi`` and ``Yvec`` are derived on each read, for oracles and tests;
    no solver reads them.  A regression with no rows is refused.
    """

    Psi: np.ndarray
    Y: np.ndarray
    indexing: MarkovIndexing
    Ts: float

    def __post_init__(self) -> None:
        idx, rows = self.indexing, len(self.Y)
        if np.shape(self.Psi) != (rows, (idx.ell + 1) * idx.n_u) or np.shape(self.Y) != (
            rows, idx.n_y
        ):
            raise ValueError(
                f"Psi {np.shape(self.Psi)} and Y {np.shape(self.Y)} do not fit {idx}: "
                f"expected (rows, {(idx.ell + 1) * idx.n_u}) and (rows, {idx.n_y})"
            )
        if rows == 0:
            raise ValueError("empty regression: no usable time samples")

    @property
    def Phi(self) -> np.ndarray:
        """The dense regressor Psi (x) I_{n_y}, formed anew on each read."""
        n_y = self.indexing.n_y
        Phi = np.zeros((self.Psi.shape[0], n_y, self.Psi.shape[1], n_y))
        out = np.arange(n_y)
        Phi[:, out, :, out] = self.Psi
        return Phi.reshape(self.Y.size, self.indexing.size)

    @property
    def Yvec(self) -> np.ndarray:
        """The stacked outputs [y(ell); y(ell + 1); ...], a view of ``Y``."""
        return self.Y.reshape(-1)


@dataclass(frozen=True)
class EstimateResult:
    """Estimated Markov sequence plus fit and conditioning diagnostics."""

    markov: MarkovSequence
    residual_norm: float
    constraint_residual: float
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)


def build_fir_regression(data: IdentDataset, ell: int) -> FirRegression:
    """The windowed input Psi and the outputs Y it regresses.

    Needs N > ell samples; each of the N - ell usable times t contributes
    the row [u(t)^T, u(t-1)^T, ..., u(t-ell)^T] of Psi, copied once, in
    C order, from one sliding-window view of U, and the row y(t)^T of Y,
    a view of the dataset's outputs.  The dense stacked regressor
    Phi = Psi (x) I_{n_y} is not formed.
    """
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    N, n_u, n_y = data.n_samples, data.n_u, data.n_y
    if N <= ell:
        raise ValueError(f"need more samples than lags: N={N} <= ell={ell}")
    indexing = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
    # Psi[t - ell, k * n_u + j] = u_j(t - k)
    windows = sliding_window_view(data.U, ell + 1, axis=0)[:, :, ::-1].transpose(0, 2, 1)
    Psi = np.ascontiguousarray(windows).reshape(N - ell, (ell + 1) * n_u)
    return FirRegression(Psi=Psi, Y=data.Y[ell:], indexing=indexing, Ts=data.Ts)


def _lstsq_diagnostics(columns: int, s: np.ndarray, rank: int) -> dict[str, Any]:
    cond = float(s[0] / s[-1]) if s.size and s[-1] > 0 else float("inf")
    return {
        "rank": int(rank),
        "columns": int(columns),
        "rank_deficient": bool(rank < columns),
        "cond": cond if s.size else float("nan"),  # nan: no column to solve for
    }


def _result(
    reg: FirRegression,
    m_hat: np.ndarray,
    method: str,
    diagnostics: dict[str, Any],
    cs: EqualityConstraintSet | None = None,
) -> EstimateResult:
    """The estimate m_hat with its data residual and, given ``cs``, its constraint residual."""
    constraint_residual = 0.0 if cs is None else np.linalg.norm(cs.residual(m_hat))
    fit = reg.Psi @ m_hat.reshape(-1, reg.indexing.n_y)  # Phi m_hat, one row per time
    return EstimateResult(
        markov=reg.indexing.unvec(m_hat, reg.Ts),
        residual_norm=float(np.linalg.norm(fit - reg.Y)),
        constraint_residual=float(constraint_residual),
        method=method,
        diagnostics=diagnostics,
    )


def _check_constrained(reg: FirRegression, cs: EqualityConstraintSet) -> None:
    if cs.indexing != reg.indexing:
        raise ValueError(
            f"constraint indexing {cs.indexing} does not match regression "
            f"indexing {reg.indexing}"
        )


def ls_unconstrained(reg: FirRegression) -> EstimateResult:
    """Minimum-norm least-squares estimate of the Markov vector.

    Rank deficiency (the classic symptom of poor excitation) is reported in
    the diagnostics, never raised.  One lstsq of Psi on the n_y columns of
    Y: the singular values of Phi = Psi (x) I_{n_y} are Psi's, each n_y
    times, so Phi's rank is n_y rank(Psi), and the cutoff is the one
    lstsq(Phi, Yvec, rcond=None) would apply, eps max(Phi.shape).
    """
    n_y = reg.indexing.n_y
    rcond = np.finfo(float).eps * n_y * max(reg.Psi.shape)
    M, _, rank, s = np.linalg.lstsq(reg.Psi, reg.Y, rcond=rcond)
    diagnostics = _lstsq_diagnostics(reg.indexing.size, s, n_y * rank)
    return _result(reg, M.reshape(-1), "unconstrained", diagnostics)


def _block_coordinates(reg: FirRegression, cs: EqualityConstraintSet, with_G1: bool = False):
    """Phi in the coordinates m = V1 a + V2 z of the block SVDs of ``cs``.

    V1 gathers each block's leading ``rank`` right singular vectors of
    ``cs.consistency.blocks``; V2 gathers each block's remaining ones, then
    the identity on the channels no row touches.  Returns G1 = Phi V1
    (None unless ``with_G1``), G2 = Phi V2, d = Yvec - Phi V1 a0, the kept
    singular values s1, the blocks' a0 joined, and lift(a, z) = V1 a + V2 z.
    Phi itself is never formed.  Its column c is column c // n_y of Psi on
    the rows of output c % n_y, so on the rows of output a a block gives
    Psi[:, cols_a // n_y] Vt^T[cols_a], cols_a being the block's columns of
    output a, and an untouched channel (j, a) gives Psi[:, j::n_u]; all
    other rows are zero.  d takes each block's share of Phi V1 a0 from the
    same products.
    """
    n_y, n_u, size = reg.indexing.n_y, reg.indexing.n_u, reg.indexing.size
    n_data, n_ch, rank = reg.Y.size, n_y * n_u, cs.consistency.rank
    G1 = np.zeros((n_data, rank)) if with_G1 else None
    G2 = np.zeros((n_data, size - rank))
    d = reg.Yvec.copy()
    s1, a0 = np.empty(rank), np.empty(rank)
    free = np.ones(n_ch, dtype=bool)
    spans = []
    at1 = at2 = 0
    for _, cols, s, Vt, r, block_a0 in cs.consistency.blocks:
        span1, span2 = slice(at1, at1 + r), slice(at2, at2 + len(cols) - r)
        psi_cols, out = np.divmod(cols, n_y)
        outputs = np.flatnonzero(np.bincount(out))
        for a in outputs:
            on_a = out == a if len(outputs) > 1 else slice(None)  # no copies for one output
            G = reg.Psi[:, psi_cols[on_a]] @ Vt[:, on_a].T
            if with_G1:
                G1[a::n_y, span1] = G[:, :r]
            G2[a::n_y, span2] = G[:, r:]
            d[a::n_y] -= G[:, :r] @ block_a0
        s1[span1], a0[span1] = s[:r], block_a0
        free[cols % n_ch] = False
        spans.append((cols, Vt, span1, span2))
        at1, at2 = span1.stop, span2.stop
    free_ch = np.flatnonzero(free)
    for i, ch in enumerate(free_ch):  # channel ch is input ch // n_y on output ch % n_y
        G2[ch % n_y :: n_y, at2 + i :: len(free_ch)] = reg.Psi[:, ch // n_y :: n_u]

    def lift(a: np.ndarray, z: np.ndarray) -> np.ndarray:
        m = np.empty(size)
        for cols, Vt, span1, span2 in spans:
            m[cols] = Vt.T @ np.concatenate([a[span1], z[span2]])
        m.reshape(-1, n_ch)[:, free] = z[at2:].reshape(reg.indexing.ell + 1, -1)
        return m

    return G1, G2, d, s1, a0, lift


def ls_equality_exact(reg: FirRegression, cs: EqualityConstraintSet) -> EstimateResult:
    """Constrained least squares by null-space elimination.

    Solves min ||Phi m - Yvec|| subject to A_eq m = b_eq in the block
    coordinates m = V1 a + V2 z of :func:`_block_coordinates`.  The
    constraints fix a = a0 = S1^-1 U1^T b_eq, and z is the least-squares
    solution of Phi V2 z = Yvec - Phi V1 a0: the weighted solution with no
    slack, its limit as the weight grows.  ``columns`` is the column count
    of V2, the size less the rank of ``cs.consistency``.  An empty set has
    V2 = I and gives the unconstrained estimate.  The returned estimate
    satisfies the constraints to roughly machine precision.

    Raises:
        InfeasibleConstraintsError: if the constraint set is inconsistent.
    """
    _check_constrained(reg, cs)
    report = cs.consistency
    if report.infeasible:
        raise InfeasibleConstraintsError(
            f"the compiled constraint set is infeasible (rank {report.rank} of "
            f"{cs.n_rows} rows, redundant rows {list(report.redundant_rows)}); "
            "fix the priors or use the weighted mode"
        )
    _, G2, d, _, a0, lift = _block_coordinates(reg, cs)
    if G2.shape[1] == 0:
        warnings.warn(
            "constraints fully determine the Markov vector; the data were not used",
            EstimationWarning,
            stacklevel=2,
        )
    z, _, rank, s = np.linalg.lstsq(G2, d, rcond=None)
    diagnostics = _lstsq_diagnostics(G2.shape[1], s, rank)
    return _result(reg, lift(a0, z), "exact", diagnostics, cs)


def default_weight(reg: FirRegression, cs: EqualityConstraintSet) -> float:
    """Scale-invariant default for the method of weighting.

    1e6 sigma_max(Phi) / s_min, where s_min is the smallest singular value
    that any block of A_eq keeps (``s[rank - 1]`` over the blocks of
    ``cs.consistency``).  Along a constraint direction of singular value s
    a data misfit leaves a constraint residual of order 1 / (w^2 s), so
    the weight is set by the weakest kept direction: every constraint then
    dominates the data, while the stacked problem stays solvable in double
    precision.  sigma_max(Phi) = sigma_max(Psi), since Phi = Psi (x) I_{n_y};
    it is the square root of the largest eigenvalue (``eigvalsh``) of the
    smaller Gram matrix, X X^T when Psi is wide and X^T X otherwise, of
    X = 2^-e Psi with max |X| in [0.5, 1), scaled back by 2^e; the exact
    power of 2 keeps the Gram matrix from overflowing or underflowing.
    """
    smax_phi = 0.0
    if reg.Psi.size:
        e = int(np.frexp(np.abs(reg.Psi).max())[1])
        X = np.ldexp(reg.Psi, -e)
        gram = X @ X.T if X.shape[0] < X.shape[1] else X.T @ X
        smax_phi = math.ldexp(math.sqrt(np.linalg.eigvalsh(gram)[-1]), e)
    s_min = min((b.s[b.rank - 1] for b in cs.consistency.blocks if b.rank), default=0.0)
    w = 1e6 * smax_phi / max(s_min, np.finfo(float).eps)
    return w if w > 0 else 1.0


def ls_equality_weighted(
    reg: FirRegression, cs: EqualityConstraintSet, weight: float | None = None
) -> EstimateResult:
    """Constrained least squares by the method of weighting.

    Minimizes ||Phi m - Yvec||^2 + weight^2 ||A_eq m - b_eq||^2, the
    least-squares problem of the stacked matrix [Phi; weight A_eq], from
    the block SVDs A_b = U_b S_b V_b^T of ``cs.consistency.blocks``; no
    stacked matrix is formed.  Let V1, S and U1 gather the blocks' leading
    ``rank`` singular triplets and V2 the remaining directions, which
    include the columns no row touches.  With m = V1 a + V2 z and
    a = a0 + S^-1 e / weight, a0 = S^-1 U1^T b_eq, the objective is
    ||K e + G2 z - d||^2 + ||e||^2 up to a constant, where G = Phi V,
    K = G1 S^-1 / weight and d = Yvec - G1 a0 (Van Loan 1985).  The best
    e for a given z is K^T (I + K K^T)^-1 (d - G2 z), which leaves
    (d - G2 z)^T (I + K K^T)^-1 (d - G2 z) to minimize over z: z solves
    the least squares of W (G2 z - d) for any W with
    W^T W = (I + K K^T)^-1.

    * K wide (fewer data rows than the constraint rank, as with short
      data): one symmetric eigensolve K K^T = V diag(lam) V^T, with
      rounding's negative lam clipped to 0, gives W = diag(h) V^T,
      h = (1 + lam)^-1/2, and e = K^T V diag(h) (W d - W G2 z).
      Only the data-space matrix is factored, never K itself.
    * K tall: the thin SVD K = Uk diag(sk) Vk^T gives
      W = I - Uk diag(1 - (1 + sk^2)^-1/2) Uk^T, formed in place of G2,
      and e = Vk diag(sk / (1 + sk^2)) Uk^T (d - G2 z).

    Both W are orthogonally equivalent to (I + K K^T)^-1/2, so W G2 has
    the same singular values either way.  Diagnostics: ``rank`` is the
    sum of the block ranks plus the rank of W G2; ``cond`` is the
    largest over the smallest of weight * S and the singular values of
    W G2, which at the default weight agrees with the condition number
    of the stacked matrix.  Contradictory priors do not abort: the
    solver blends them and reports the leftover constraint residual with
    a warning.  ``weight=None`` applies :func:`default_weight`.
    """
    _check_constrained(reg, cs)
    if weight is None:
        weight = default_weight(reg, cs)
    weight = _require_positive("weight", weight)
    if cs.consistency.infeasible:
        warnings.warn(
            "equality constraints are contradictory; the weighted solution blends "
            "them and leaves a nonzero constraint residual",
            EstimationWarning,
            stacklevel=2,
        )
    K, G2, d, s1, a0, lift = _block_coordinates(reg, cs, with_G1=True)  # K is G1 until scaled
    K /= weight * s1
    if K.shape[0] < K.shape[1]:
        lam, V = np.linalg.eigh(K @ K.T)
        h = 1.0 / np.sqrt(1.0 + np.maximum(lam, 0.0))
        W = h[:, None] * V.T
        G2, Wd = W @ G2, W @ d  # now W G2
        z, _, rank_z, sz = np.linalg.lstsq(G2, Wd, rcond=None)
        e = K.T @ (V @ (h * (Wd - G2 @ z)))
    else:
        Uk, sk, Vkt = np.linalg.svd(K, full_matrices=False)
        del K  # K, Uk and G2 go as soon as they are used: they set the memory peak
        KtU = np.multiply(Vkt.T, sk, out=Vkt.T)  # Vk diag(sk), in Vkt's memory
        hk = np.hypot(1.0, sk)
        shrink = sk**2 / (hk * (hk + 1.0))  # 1 - 1 / hk without cancellation
        P, q = Uk.T @ G2, Uk.T @ d
        G2 -= Uk @ (shrink[:, None] * P)  # now W G2
        Wd = d - Uk @ (shrink * q)
        del Uk
        z, _, rank_z, sz = np.linalg.lstsq(G2, Wd, rcond=None)
        e = KtU @ ((q - P @ z) / hk**2)  # Uk^T (d - G2 z) = q - P z
    del G2
    m_hat = lift(a0 + e / (weight * s1), z)
    singular_values = np.sort(np.concatenate([weight * s1, sz]))[::-1]
    diagnostics = _lstsq_diagnostics(reg.indexing.size, singular_values, len(s1) + rank_z)
    diagnostics["weight"] = weight
    if diagnostics["cond"] > 1e14:
        warnings.warn(
            f"weighted system is badly conditioned (cond={diagnostics['cond']:.3g}); "
            "consider a smaller weight or the exact mode",
            EstimationWarning,
            stacklevel=2,
        )
    return _result(reg, m_hat, f"weighted(w={weight:g})", diagnostics, cs)


def estimate_markov(
    reg: FirRegression, cs: EqualityConstraintSet, mode: str, weight: float | None = None
) -> EstimateResult:
    """Run the solver of ``mode``, one of ``MODES``, with the constraints ``cs``.

    A set with no rows is solved by :func:`ls_unconstrained` in every mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "unconstrained" or not cs.n_rows:
        return ls_unconstrained(reg)
    if mode == "exact":
        return ls_equality_exact(reg, cs)
    return ls_equality_weighted(reg, cs, weight)
