"""Plain-numpy reference solutions the benchmark checks each op against.

Nothing here calls ``priorsid``: the regressor, the constraint rows, the
simulation and the solve are rebuilt from their definitions, so a fast path
in the library that drifts from the mathematics shows up as a failed op.

Vector layout matches the library's stacking: entry (i, j) of lag k sits at
``k * n_y * n_u + (j - 1) * n_y + (i - 1)`` (1-based channels).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def fir_regression(U: np.ndarray, Y: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense FIR regressor and stacked outputs for times ell .. N-1.

    Rows are time-major with the output channel inner; the block row of time
    t is [u(t)^T, u(t-1)^T, ..., u(t-ell)^T] (x) I_{n_y}.
    """
    windows = sliding_window_view(U, ell + 1, axis=0)  # (N - ell, n_u, ell + 1), oldest first
    psi = windows[:, :, ::-1].transpose(0, 2, 1).reshape(windows.shape[0], -1)
    phi = np.kron(psi, np.eye(Y.shape[1]))
    return phi, Y[ell:].reshape(-1)


def constraint_rows(
    priors: list[dict], n_y: int, n_u: int, ell: int, Ts: float
) -> tuple[np.ndarray, np.ndarray]:
    """Equality rows A m = b for the prior kinds the workloads declare."""
    size = (ell + 1) * n_y * n_u

    def idx(k: int, i: int, j: int) -> int:
        return k * n_y * n_u + (j - 1) * n_y + (i - 1)

    def gain_row(i: int, j: int) -> np.ndarray:
        row = np.zeros(size)
        row[[idx(k, i, j) for k in range(ell + 1)]] = 1.0
        return row

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for prior in priors:
        kind, i, j = prior["type"], prior["i"], prior["j"]
        if kind == "zero_channel":
            for k in range(ell + 1):
                row = np.zeros(size)
                row[idx(k, i, j)] = 1.0
                rows.append(row)
                rhs.append(0.0)
        elif kind == "first_order_decay" and prior.get("gain") is None:
            a = math.exp(-Ts / prior["tau"])
            row = np.zeros(size)
            row[idx(0, i, j)] = 1.0
            rows.append(row)
            rhs.append(0.0)
            for k in range(2, ell + 1):
                row = np.zeros(size)
                row[idx(k, i, j)] = 1.0
                row[idx(k - 1, i, j)] = -a
                rows.append(row)
                rhs.append(0.0)
        elif kind == "dc_gain":
            rows.append(gain_row(i, j))
            rhs.append(prior["value"])
        elif kind == "gain_ratio":
            rows.append(gain_row(i, j) - prior["ratio"] * gain_row(prior["p"], prior["q"]))
            rhs.append(0.0)
        else:
            raise ValueError(f"no reference rows for prior {prior!r}")
    return np.array(rows).reshape(-1, size), np.array(rhs)


def kkt_solve(phi: np.ndarray, y: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min ||phi m - y|| subject to A m = b, from the dense KKT system.

    Needs A of full row rank and phi of full column rank on the null space
    of A; the workloads declare priors that satisfy both.
    """
    n, r = phi.shape[1], A.shape[0]
    kkt = np.zeros((n + r, n + r))
    kkt[:n, :n] = phi.T @ phi
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    return np.linalg.solve(kkt, np.concatenate([phi.T @ y, b]))[:n]


def simulate(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray, U: np.ndarray) -> np.ndarray:
    """y(t) = C x(t) + D u(t), x(t+1) = A x(t) + B u(t), from x(0) = 0."""
    x = np.zeros(A.shape[0])
    Y = np.empty((U.shape[0], C.shape[0]))
    for t, u in enumerate(U):
        Y[t] = C @ x + D @ u
        x = A @ x + B @ u
    return Y


def add_noise(Y: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """White output noise scaled per channel to the given SNR in dB."""
    sigma = np.sqrt(np.mean(Y**2, axis=0) / 10.0 ** (snr_db / 10.0))
    return Y + rng.standard_normal(Y.shape) * sigma


def vec(blocks: np.ndarray) -> np.ndarray:
    """Stack Markov blocks of shape (ell + 1, n_y, n_u) in the library's order."""
    return blocks.transpose(0, 2, 1).reshape(-1)


def rel_err(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
