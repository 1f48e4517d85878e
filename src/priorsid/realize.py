"""Kung's realization: from Markov parameters back to a state-space model.

The block Hankel matrix of the impulse-response coefficients factors as
(extended observability) x (extended controllability); an SVD provides that
factorization, its singular values reveal the order, and the shift
structure of the observability factor yields A.  The balanced square-root
split makes the factors equally scaled.  The realized model is only
determined up to a similarity transformation, so comparisons should use
invariants (Markov parameters, eigenvalues), never raw matrices.

:func:`identify_pipeline` chains the whole artifact: compile priors, build
the FIR regression, solve the (possibly constrained) least squares, then
realize.  Constraints act at the Markov-estimation stage only; the SVD
truncation may reintroduce small violations, which are quantified in the
result rather than corrected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimate import (
    EstimateResult,
    EstimationWarning,
    IdentDataset,
    build_fir_regression,
    estimate_markov,
)
from .priors import (
    EqualityConstraintSet,
    MarkovIndexing,
    PriorSpec,
    compile_priors,
    constraint_residual,
)
from .statespace import MarkovSequence, StateSpaceModel, markov_sequence

__all__ = [
    "RealizationResult",
    "block_hankel",
    "kung_realize",
    "identify_pipeline",
    "default_hankel_shape",
]

# Auto order selection keeps singular values above this fraction of the largest.
DEFAULT_ORDER_TOL = 1e-8


@dataclass(frozen=True)
class RealizationResult:
    """Realized model with order-selection and reconstruction diagnostics.

    ``order_saturated`` is true when the automatic order rule kept every
    state the Hankel allows, min(q n_y, p n_u): the estimate then shows no
    low-rank structure at the cutoff.  ``q`` and ``p`` are the Hankel block
    shape the model was realized from, and ``realized`` is the model's
    Markov sequence over the horizon of the sequence it was realized from.
    :func:`identify_pipeline` also attaches the estimate, the compiled
    constraint set and the constraint residual of the realized model.
    """

    model: StateSpaceModel
    singular_values: np.ndarray
    order: int
    order_saturated: bool
    reconstruction_error: float
    q: int
    p: int
    realized: MarkovSequence
    estimate: EstimateResult | None = None
    constraints: EqualityConstraintSet | None = None
    realized_constraint_residual: float | None = None


def _check_hankel_shape(q: int, p: int, ell: int) -> None:
    """Reject a q x p Hankel layout that M_0 .. M_ell cannot fill.

    Block (r, c) holds M_{r+c-1} (1-based blocks), so the layout needs
    M_1 .. M_{q+p-1}, i.e. ell >= q + p - 1; M_0 is reserved for the
    feedthrough D.
    """
    if q < 1 or p < 1:
        raise ValueError(f"q and p must be >= 1, got (q={q}, p={p})")
    if q + p - 1 > ell:
        raise ValueError(
            f"insufficient ell: blocks M_1..M_{q + p - 1} needed "
            f"but only ell={ell} available"
        )


def _check_realization_settings(q: int, tol: float) -> None:
    """Reject a Hankel with one block row, or an order cutoff outside [0, 1)."""
    if q < 2:
        raise ValueError(f"q must be at least 2 for the shift equation, got {q}")
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must be in [0, 1), got {tol}")


def default_hankel_shape(ell: int) -> tuple[int, int]:
    """Square-ish Hankel blocks q = max(2, h), p = max(1, h), h = floor((ell + 1) / 2).

    q >= 2 keeps the shift equation nonempty; below ell = 2 nothing fits.
    """
    half = (ell + 1) // 2
    return max(2, half), max(1, half)


def block_hankel(markov: MarkovSequence, q: int, p: int) -> np.ndarray:
    """Block Hankel matrix H of size (q n_y) x (p n_u) with H[r,c] = M_{r+c-1}."""
    _check_hankel_shape(q, p, markov.ell)
    n_y, n_u = markov.n_y, markov.n_u
    H = np.empty((q * n_y, p * n_u))
    # window[r, :, :, c] = M_{r+c+1}
    window = sliding_window_view(markov.blocks[1 : q + p], p, axis=0)
    H.reshape(q, n_y, p, n_u)[...] = window.transpose(0, 1, 3, 2)
    return H


def kung_realize(
    markov: MarkovSequence,
    q: int,
    p: int,
    order: int | None = None,
    tol: float = DEFAULT_ORDER_TOL,
) -> RealizationResult:
    """Realize a state-space model from a Markov sequence via SVD of the Hankel.

    The Hankel matrix is factored H = U S V^T; after truncating to order n
    the balanced factors are O = U_n S_n^{1/2} (extended observability) and
    Ctr = S_n^{1/2} V_n^T (extended controllability).  Then C is the first
    block row of O, B the first block column of Ctr, D = M_0, and A solves
    the observability shift equation O(up) = O(down) A in least squares.

    Args:
        markov: source sequence providing M_0 .. M_ell.
        q: Hankel block rows; must be >= 2 so the shift equation is nonempty.
        p: Hankel block columns.
        order: fixed model order, or None to choose the smallest n with
            sigma_{n+1} <= tol * sigma_1.
        tol: relative singular-value cutoff for the automatic order rule, in [0, 1).

    Returns:
        RealizationResult; ``realized`` holds the model's M_0 .. M_ell, and
        ``reconstruction_error`` is the Frobenius norm of its mismatch with
        the given M_1 .. M_{q+p-1}.  When the automatic rule keeps all
        min(q n_y, p n_u) states, the result is flagged ``order_saturated``
        and an EstimationWarning is issued.
    """
    _check_realization_settings(q, tol)
    H = block_hankel(markov, q, p)
    n_y, n_u = markov.n_y, markov.n_u
    U, s, Vt = np.linalg.svd(H, full_matrices=False)

    max_order = min(q * n_y, p * n_u)
    if order is None:  # a zero Hankel keeps no state
        n = int(np.count_nonzero(s > tol * s[0])) if s.size else 0
    else:
        n = int(order)
        if n < 0 or n > max_order:
            raise ValueError(
                f"order {n} exceeds the Hankel rank bound min(q*n_y, p*n_u) = {max_order}"
            )
    saturated = order is None and n == max_order
    if saturated:
        warnings.warn(
            f"automatic order selection kept all {n} states of the {q}x{p} block Hankel: "
            f"no singular value falls below tol={tol:g} of the largest",
            EstimationWarning,
            stacklevel=2,
        )

    sqrt_s = np.sqrt(s[:n])  # n = 0 gives the static model D = M_0
    obs = U[:, :n] * sqrt_s
    ctr = sqrt_s[:, None] * Vt[:n]
    A, _, _, _ = np.linalg.lstsq(obs[:-n_y], obs[n_y:], rcond=None)
    model = StateSpaceModel(A=A, B=ctr[:, :n_u], C=obs[:n_y], D=markov.blocks[0], Ts=markov.Ts)

    realized = markov_sequence(model, markov.ell)
    error = float(np.linalg.norm(realized.blocks[1 : q + p] - markov.blocks[1 : q + p]))
    return RealizationResult(
        model=model, singular_values=s, order=n, order_saturated=saturated,
        reconstruction_error=error, q=q, p=p, realized=realized,
    )


def identify_pipeline(
    data: IdentDataset,
    priors: list[PriorSpec],
    ell: int,
    q: int | None = None,
    p: int | None = None,
    mode: str = "exact",
    weight: float | None = None,
    order: int | None = None,
    tol: float = DEFAULT_ORDER_TOL,
) -> RealizationResult:
    """Full identification: priors -> FIR estimate -> Kung realization.

    Args:
        data: input/output records.
        priors: prior-knowledge declarations (may be empty).
        ell: Markov horizon; the FIR model truncates the impulse response
            here, so choose ell * Ts comfortably past the dominant settling
            time (ell * Ts >= 5 tau_dominant is a reasonable rule of thumb).
        q, p: Hankel block shape; default :func:`default_hankel_shape`.
        mode: "unconstrained", "exact" or "weighted", run by
            :func:`estimate_markov`; with no priors every mode is unconstrained.
        weight: weighting factor for the weighted mode (None = default rule).
        order, tol: passed to :func:`kung_realize`.

    Returns:
        RealizationResult with the resolved (q, p), the estimation result
        and the compiled constraint set attached and, when constraints were
        active, the constraint residual re-evaluated on the realized
        model's Markov sequence.
    """
    q_default, p_default = default_hankel_shape(ell)
    q = q_default if q is None else q
    p = p_default if p is None else p
    _check_hankel_shape(q, p, ell)
    _check_realization_settings(q, tol)  # before any regressor is built

    cs = compile_priors(priors, MarkovIndexing(n_y=data.n_y, n_u=data.n_u, ell=ell), data.Ts)
    est = estimate_markov(build_fir_regression(data, ell), cs, mode, weight)
    result = kung_realize(est.markov, q, p, order=order, tol=tol)
    realized_residual = constraint_residual(cs, result.realized) if cs.n_rows else None
    return replace(
        result, estimate=est, constraints=cs, realized_constraint_residual=realized_residual
    )
