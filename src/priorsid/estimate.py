"""FIR least-squares estimation of Markov parameters, with equality constraints.

Over a horizon of ell lags the model output is approximated by the
truncated convolution y(t) = sum_k M_k u(t-k), which is linear in the
stacked Markov vector m.  Three solvers are provided:

* :func:`ls_unconstrained` - plain least squares, minimum-norm when the
  regressor is rank deficient (short or poorly exciting data never aborts,
  it just gets flagged).
* :func:`ls_equality_exact` - null-space elimination: a particular solution
  of A_eq m = b_eq plus an unconstrained solve in the null-space
  coordinates, so the constraints hold to machine precision.
* :func:`ls_equality_weighted` - the method of weighting: the constraint
  rows are appended with a large weight and solved as one ordinary
  least-squares problem, which tolerates (and reports) inconsistent priors.
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
    _rank,
)
from .statespace import MarkovSequence

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
]


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
        if not (math.isfinite(self.Ts) and self.Ts > 0):
            raise ValueError(f"Ts must be a positive real, got {self.Ts}")
        U = U.copy()
        Y = Y.copy()
        U.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Ts", float(self.Ts))

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
    """Stacked regression Phi m ~ Yvec for the truncated impulse response.

    The block row of time t (one row per output channel) encodes
    y(t) = sum_{k=0}^{ell} M_k u(t-k) for t = ell .. N-1 under the
    vectorization fixed by ``indexing``.  :func:`build_fir_regression`
    gives Phi the structure Psi (x) I_{n_y} up to a fixed column order;
    the solvers take any dense Phi.
    """

    Phi: np.ndarray
    Yvec: np.ndarray
    indexing: MarkovIndexing
    Ts: float


@dataclass(frozen=True)
class EstimateResult:
    """Estimated Markov sequence plus fit and conditioning diagnostics."""

    markov: MarkovSequence
    residual_norm: float
    constraint_residual: float
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)


def build_fir_regression(data: IdentDataset, ell: int) -> FirRegression:
    """Assemble the FIR regressor matrix and stacked output vector.

    Needs N > ell samples; each of the N - ell usable times contributes one
    block row [u(t)^T (x) I, u(t-1)^T (x) I, ..., u(t-ell)^T (x) I] where
    (x) is the Kronecker product with the n_y identity.  Up to the fixed
    column order Phi is therefore Psi (x) I_{n_y}, with Psi the windowed
    input whose row t is [u(t)^T, u(t-1)^T, ..., u(t-ell)^T]; it is built
    from one sliding-window view of U, written along the diagonal where
    the output row of the block equals the output index of the column.
    """
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    N, n_u, n_y = data.n_samples, data.n_u, data.n_y
    if N <= ell:
        raise ValueError(f"need more samples than lags: N={N} <= ell={ell}")
    indexing = MarkovIndexing(n_y=n_y, n_u=n_u, ell=ell)
    rows = N - ell
    # Psi[t - ell, k, j] = u_j(t - k)
    Psi = sliding_window_view(data.U, ell + 1, axis=0)[:, :, ::-1].transpose(0, 2, 1)
    # Phi[(t - ell) * n_y + a, k * n_y * n_u + j * n_y + c] = u_j(t - k) [a == c]
    Phi = np.zeros((rows, n_y, ell + 1, n_u, n_y))
    out = np.arange(n_y)
    Phi[:, out, :, :, out] = Psi
    Yvec = data.Y[ell:].reshape(-1)
    return FirRegression(
        Phi=Phi.reshape(rows * n_y, indexing.size), Yvec=Yvec, indexing=indexing, Ts=data.Ts
    )


def _lstsq_diagnostics(matrix: np.ndarray, s: np.ndarray, rank: int) -> dict[str, Any]:
    cond = float(s[0] / s[-1]) if s.size and s[-1] > 0 else float("inf")
    return {
        "rank": int(rank),
        "columns": int(matrix.shape[1]),
        "rank_deficient": bool(rank < matrix.shape[1]),
        "cond": cond,
    }


def _null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of A, one column per direction.

    Same rule as scipy.linalg.null_space: singular values at or below
    sigma_max * max(A.shape) * eps count as zero.
    """
    _, s, Vh = np.linalg.svd(A, full_matrices=True)
    return Vh[_rank(s, A.shape) :].T


def _check_constrained(reg: FirRegression, cs: EqualityConstraintSet) -> None:
    if reg.Phi.shape[0] == 0:
        raise ValueError("empty regression: no usable time samples")
    if cs.indexing != reg.indexing:
        raise ValueError(
            f"constraint indexing {cs.indexing} does not match regression "
            f"indexing {reg.indexing}"
        )


def ls_unconstrained(reg: FirRegression) -> EstimateResult:
    """Minimum-norm least-squares estimate of the Markov vector.

    Rank deficiency (the classic symptom of poor excitation) is reported in
    the diagnostics, never raised.
    """
    if reg.Phi.shape[0] == 0:
        raise ValueError("empty regression: no usable time samples")
    m_hat, _, rank, s = np.linalg.lstsq(reg.Phi, reg.Yvec, rcond=None)
    residual = float(np.linalg.norm(reg.Phi @ m_hat - reg.Yvec))
    return EstimateResult(
        markov=reg.indexing.unvec(m_hat, reg.Ts),
        residual_norm=residual,
        constraint_residual=0.0,
        method="unconstrained",
        diagnostics=_lstsq_diagnostics(reg.Phi, s, rank),
    )


def ls_equality_exact(reg: FirRegression, cs: EqualityConstraintSet) -> EstimateResult:
    """Constrained least squares by null-space elimination.

    Solves min ||Phi m - Yvec|| subject to A_eq m = b_eq: a minimum-norm
    particular solution of the constraints plus an unconstrained solve for
    the null-space coordinates.  The returned estimate satisfies the
    constraints to roughly machine precision.

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
    if cs.n_rows == 0:
        base = ls_unconstrained(reg)
        diagnostics = dict(base.diagnostics)
        diagnostics.update({"constraint_rows": 0, "constraint_rank": 0, "null_dim": reg.indexing.size})
        return EstimateResult(
            markov=base.markov,
            residual_norm=base.residual_norm,
            constraint_residual=0.0,
            method="exact",
            diagnostics=diagnostics,
        )

    m_particular, _, _, _ = np.linalg.lstsq(cs.A_eq, cs.b_eq, rcond=None)
    Z = _null_space(cs.A_eq)
    if Z.shape[1] == 0:
        warnings.warn(
            "constraints fully determine the Markov vector; the data were not used",
            EstimationWarning,
            stacklevel=2,
        )
        m_hat = m_particular
        diagnostics: dict[str, Any] = {
            "rank": 0,
            "columns": 0,
            "rank_deficient": False,
            "cond": float("nan"),
        }
    else:
        reduced = reg.Phi @ Z
        rhs = reg.Yvec - reg.Phi @ m_particular
        zeta, _, rank, s = np.linalg.lstsq(reduced, rhs, rcond=None)
        m_hat = m_particular + Z @ zeta
        diagnostics = _lstsq_diagnostics(reduced, s, rank)
    diagnostics.update(
        {
            "constraint_rows": cs.n_rows,
            "constraint_rank": report.rank,
            "null_dim": int(Z.shape[1]),
        }
    )
    return EstimateResult(
        markov=reg.indexing.unvec(m_hat, reg.Ts),
        residual_norm=float(np.linalg.norm(reg.Phi @ m_hat - reg.Yvec)),
        constraint_residual=float(np.linalg.norm(cs.A_eq @ m_hat - cs.b_eq)),
        method="exact",
        diagnostics=diagnostics,
    )


def default_weight(reg: FirRegression, cs: EqualityConstraintSet) -> float:
    """Scale-invariant default for the method of weighting.

    1e6 times the ratio of the largest singular values of Phi and A_eq:
    large enough that the constraints dominate, small enough to keep the
    stacked problem solvable in double precision.  sigma_max(A_eq) is read
    from ``cs.singular_values``, the SVD the consistency check also uses.
    """
    smax_phi = float(np.linalg.norm(reg.Phi, 2)) if reg.Phi.size else 0.0
    smax_a = float(cs.singular_values[0]) if cs.A_eq.size else 0.0
    w = 1e6 * smax_phi / max(smax_a, np.finfo(float).eps)
    return w if w > 0 else 1.0


def ls_equality_weighted(
    reg: FirRegression, cs: EqualityConstraintSet, weight: float | None = None
) -> EstimateResult:
    """Constrained least squares by the method of weighting.

    Minimizes ||Phi m - Yvec||^2 + weight^2 ||A_eq m - b_eq||^2 as one
    stacked least-squares problem.  Contradictory priors do not abort:
    the solver blends them and reports the leftover constraint residual
    with a warning.  ``weight=None`` applies :func:`default_weight`.
    """
    _check_constrained(reg, cs)
    if weight is None:
        weight = default_weight(reg, cs)
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError(f"weight must be a positive real, got {weight}")
    if cs.consistency.infeasible:
        warnings.warn(
            "equality constraints are contradictory; the weighted solution blends "
            "them and leaves a nonzero constraint residual",
            EstimationWarning,
            stacklevel=2,
        )
    n_data = reg.Phi.shape[0]
    stacked = np.empty((n_data + cs.n_rows, reg.Phi.shape[1]))
    stacked[:n_data] = reg.Phi
    np.multiply(weight, cs.A_eq, out=stacked[n_data:])
    rhs = np.concatenate([reg.Yvec, weight * cs.b_eq])
    m_hat, _, rank, s = np.linalg.lstsq(stacked, rhs, rcond=None)
    diagnostics = _lstsq_diagnostics(stacked, s, rank)
    diagnostics["weight"] = float(weight)
    if diagnostics["cond"] > 1e14:
        warnings.warn(
            f"weighted system is badly conditioned (cond={diagnostics['cond']:.3g}); "
            "consider a smaller weight or the exact mode",
            EstimationWarning,
            stacklevel=2,
        )
    return EstimateResult(
        markov=reg.indexing.unvec(m_hat, reg.Ts),
        residual_norm=float(np.linalg.norm(reg.Phi @ m_hat - reg.Yvec)),
        constraint_residual=float(np.linalg.norm(cs.A_eq @ m_hat - cs.b_eq)),
        method=f"weighted(w={weight:g})",
        diagnostics=diagnostics,
    )
