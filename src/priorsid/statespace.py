"""Discrete-time LTI state-space models, simulation and Markov parameters.

The model convention is

    x(t+1) = A x(t) + B u(t)
    y(t)   = C x(t) + D u(t)

with ``n`` states, ``n_u`` inputs and ``n_y`` outputs, sampled every ``Ts``
seconds.  The Markov parameters of such a model are ``M_0 = D`` and
``M_i = C A^(i-1) B`` for ``i >= 1``; they coincide with the pulse-response
coefficients, i.e. the outputs observed when a unit discrete impulse is
applied at one input and zeros at the others.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateSpaceModel",
    "MarkovSequence",
    "simulate",
    "markov_sequence",
    "pulse_response",
    "dc_gain",
    "apply_similarity",
    "spectral_radius",
]

# Spectral radii at or above this bound are rejected by dc_gain: the Markov
# series no longer converges fast enough to trust the closed form.
STABILITY_MARGIN = 1.0 - 1e-9

# Similarity transforms with a 2-norm condition number above this bound are
# rejected as effectively singular.
SIMILARITY_COND_LIMIT = 1e12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete-time LTI quadruple (A, B, C, D) with sampling period Ts.

    ``A`` must be square (n x n); ``B`` is n x n_u, ``C`` is n_y x n and
    ``D`` is n_y x n_u.  ``n = 0`` is legal and represents a pure
    feedthrough model whose Markov sequence is ``D, 0, 0, ...``.

    Construction conveniences: scalars become 1x1 matrices, a 1-D ``B``
    becomes a column, a 1-D ``C`` becomes a row, and ``D=None`` becomes the
    zero matrix of the right shape.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None
    Ts: float

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim <= 1:
            B = B.reshape(-1, 1)
        C = np.asarray(self.C, dtype=float)
        if C.ndim <= 1:
            C = C.reshape(1, -1)

        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows but A is {n}x{n}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns but A is {n}x{n}")

        n_y, n_u = C.shape[0], B.shape[1]
        if self.D is None:
            D = np.zeros((n_y, n_u))
        else:
            D = np.atleast_2d(np.asarray(self.D, dtype=float))
        if D.shape != (n_y, n_u):
            raise ValueError(
                f"D has shape {D.shape}, expected ({n_y}, {n_u}) from C and B"
            )

        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            if mat.size and not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} contains non-finite entries")
        if not (np.isfinite(self.Ts) and self.Ts > 0):
            raise ValueError(f"Ts must be a positive real, got {self.Ts}")

        object.__setattr__(self, "A", _freeze(A.copy()))
        object.__setattr__(self, "B", _freeze(B.copy()))
        object.__setattr__(self, "C", _freeze(C.copy()))
        object.__setattr__(self, "D", _freeze(D.copy()))
        object.__setattr__(self, "Ts", float(self.Ts))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class MarkovSequence:
    """Ordered impulse-response coefficient matrices M_0 .. M_ell.

    ``blocks`` is stored as an array of shape (ell+1, n_y, n_u); a flat
    sequence of scalars is accepted and treated as a SISO sequence.
    """

    blocks: np.ndarray
    Ts: float

    def __post_init__(self) -> None:
        try:
            blocks = np.array(self.blocks, dtype=float)
        except ValueError as exc:
            raise ValueError(f"Markov blocks have inconsistent shapes: {exc}") from exc
        if blocks.ndim == 1:
            blocks = blocks.reshape(-1, 1, 1)
        if blocks.ndim != 3:
            raise ValueError(
                f"blocks must stack to a (ell+1, n_y, n_u) array, got shape {blocks.shape}"
            )
        if blocks.shape[0] < 1:
            raise ValueError("a Markov sequence needs at least the M_0 block")
        if blocks.size and not np.all(np.isfinite(blocks)):
            raise ValueError("Markov blocks contain non-finite entries")
        if not (np.isfinite(self.Ts) and self.Ts > 0):
            raise ValueError(f"Ts must be a positive real, got {self.Ts}")
        object.__setattr__(self, "blocks", _freeze(blocks))
        object.__setattr__(self, "Ts", float(self.Ts))

    @property
    def ell(self) -> int:
        return self.blocks.shape[0] - 1

    @property
    def n_y(self) -> int:
        return self.blocks.shape[1]

    @property
    def n_u(self) -> int:
        return self.blocks.shape[2]


def simulate(model: StateSpaceModel, U, x0=None) -> np.ndarray:
    """Run the state recursion over an input trajectory.

    Args:
        model: the discrete-time model.
        U: input samples, shape (N, n_u); a 1-D array is read as SISO.
        x0: initial state of length n; defaults to zero.

    Returns:
        Output samples Y of shape (N, n_y) with
        ``Y[t] = C x(t) + D U[t]`` and ``x(t+1) = A x(t) + B U[t]``.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    if U.ndim != 2 or U.shape[1] != model.n_u:
        raise ValueError(
            f"input has shape {U.shape} but the model has n_u={model.n_u} inputs"
        )
    if x0 is None:
        x = np.zeros(model.n)
    else:
        x = np.asarray(x0, dtype=float).reshape(-1)
        if x.shape[0] != model.n:
            raise ValueError(f"x0 has length {x.shape[0]} but the model has n={model.n} states")
    A, B, C, D = model.A, model.B, model.C, model.D
    Y = np.empty((U.shape[0], model.n_y))
    for t in range(U.shape[0]):
        u = U[t]
        Y[t] = C @ x + D @ u
        x = A @ x + B @ u
    return Y


def markov_sequence(model: StateSpaceModel, ell: int) -> MarkovSequence:
    """Markov parameters M_0 = D, M_i = C A^(i-1) B for i = 1 .. ell.

    The blocks are produced by the running product (C A^(i-1)) B with one
    matrix multiply per lag; A is never raised to an explicit power.
    """
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    blocks = np.empty((ell + 1, model.n_y, model.n_u))
    blocks[0] = model.D
    G = model.C
    for i in range(1, ell + 1):
        blocks[i] = G @ model.B
        G = G @ model.A
    return MarkovSequence(blocks=blocks, Ts=model.Ts)


def pulse_response(model: StateSpaceModel, input_index: int, ell: int) -> np.ndarray:
    """Response to a unit impulse at one input channel (1-based index).

    Returns an (ell+1) x n_y matrix whose row k is y(k) for the input that
    is 1 at t=0 on channel ``input_index`` and zero everywhere else.  Row k
    equals column ``input_index`` of the k-th Markov block.
    """
    if not 1 <= input_index <= model.n_u:
        raise ValueError(
            f"input index {input_index} out of range for a model with n_u={model.n_u}"
        )
    U = np.zeros((ell + 1, model.n_u))
    U[0, input_index - 1] = 1.0
    return simulate(model, U)


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue modulus of A (0 for an empty matrix)."""
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def dc_gain(model: StateSpaceModel) -> np.ndarray:
    """Steady-state gain D + C (I - A)^(-1) B of a strictly stable model.

    This is the limit of the Markov-parameter sum; it is only defined when
    the spectral radius of A is strictly below 1.

    Raises:
        ValueError: if the spectral radius is at or above
            ``STABILITY_MARGIN`` (unstable or marginally stable model).
    """
    rho = spectral_radius(model.A)
    if rho >= STABILITY_MARGIN:
        raise ValueError(
            f"dc gain needs a strictly stable model: spectral radius {rho:.9g} "
            f">= {STABILITY_MARGIN}"
        )
    if model.n == 0:
        return model.D.copy()
    X = np.linalg.solve(np.eye(model.n) - model.A, model.B)
    return model.D + model.C @ X


def apply_similarity(model: StateSpaceModel, T) -> StateSpaceModel:
    """Change of state basis x -> T x, returning (T A T^-1, T B, C T^-1, D).

    The input-output behavior (hence the Markov sequence) is unchanged.

    Raises:
        ValueError: if T is not n x n, or its condition number exceeds
            ``SIMILARITY_COND_LIMIT``.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    n = model.n
    if T.shape != (n, n):
        raise ValueError(f"T has shape {T.shape}, expected ({n}, {n})")
    if n == 0:
        return model
    cond = np.linalg.cond(T)
    if not np.isfinite(cond) or cond > SIMILARITY_COND_LIMIT:
        raise ValueError(
            f"similarity transform is singular or ill-conditioned "
            f"(cond={cond:.3g}, limit={SIMILARITY_COND_LIMIT:.0e})"
        )
    # Right-multiplication by T^-1 done as a solve against T^T.
    A_new = np.linalg.solve(T.T, (T @ model.A).T).T
    C_new = np.linalg.solve(T.T, model.C.T).T
    return StateSpaceModel(A=A_new, B=T @ model.B, C=C_new, D=model.D, Ts=model.Ts)
