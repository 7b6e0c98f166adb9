"""Eigenvalues of the adjacency matrix with verified residuals.

Two routes share one contract, and n alone picks between them. The dense route
diagonalizes the full symmetric matrix (LAPACK via numpy) for n up to
`DENSE_LIMIT`. The iterative route, used above that limit, is a Lanczos
iteration with full reorthogonalization for the largest eigenpair, followed by
a rank-one deflation shift and a second Lanczos run for the second largest.
Every reported eigenvalue comes with an explicitly computed residual
||A v - lambda v||_2, checked against DEFAULT_TOL * max(1, lambda1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CapacityError, ConvergenceError
from .graph import Graph, _splitmix64_outputs

DENSE_LIMIT = 2048
DEFAULT_TOL = 1e-9
MATVEC_CAP_FACTOR = 50

# Start-vector seed for the deflated Lanczos stage; arbitrary but frozen, since
# iterative results must be reproducible across runs and worker processes.
_START_SEED = 0x5EED0FB17C0DE


@dataclass(frozen=True)
class SpectralSummary:
    """Top two adjacency eigenvalues with their residual certificates."""

    lambda1: float
    lambda2: float
    residual1: float
    residual2: float
    method: str  # "dense" or "iterative"


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense float64 adjacency matrix built from the bit rows."""
    nbytes = (g.n + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in g.rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(g.n, nbytes)
    bits = np.unpackbits(packed, axis=1, bitorder="little")[:, : g.n]
    return bits.astype(np.float64)


def _dense_eigh(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All eigenpairs (ascending) plus per-pair residual norms."""
    a = adjacency_matrix(g)
    w, v = np.linalg.eigh(a)
    residuals = np.linalg.norm(a @ v - v * w, axis=0)
    return w, v, residuals


def full_spectrum(g: Graph) -> list[float]:
    """All n adjacency eigenvalues, sorted descending, residual-checked.

    The spectrum satisfies sum(w) = trace = 0 and sum(w**2) = 2 e(G) up to
    rounding; tests pin both.
    """
    if g.n > DENSE_LIMIT:
        raise CapacityError(f"n={g.n} exceeds DENSE_LIMIT={DENSE_LIMIT}")
    w, _, residuals = _dense_eigh(g)
    bound = DEFAULT_TOL * max(1.0, float(w[-1]))
    worst = float(residuals.max())
    if worst > bound:
        raise ConvergenceError("dense eigensolver residual above tolerance", worst)
    return [float(x) for x in w[::-1]]


def _pseudo_random_unit(n: int, seed: int) -> np.ndarray:
    """Deterministic start vector: splitmix64 stream mapped into [-0.5, 0.5)."""
    u = _splitmix64_outputs(seed, n).astype(np.float64) / 2.0**64 - 0.5
    return u / np.linalg.norm(u)


def _lanczos_largest(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    start: np.ndarray,
    tol_abs: float,
    budget: int,
) -> tuple[float, np.ndarray, float, int]:
    """Algebraically largest eigenpair of a symmetric operator.

    Lanczos with full reorthogonalization (two classical Gram-Schmidt passes
    per step) to suppress ghost copies. Returns (theta, y, residual, matvecs).
    A breakdown (beta ~ 0) means the Krylov space closed on an invariant
    subspace, where the Ritz pair is exact. Raises ConvergenceError with the
    best residual if the matvec budget runs out first.
    """
    basis = np.empty((min(budget, n) + 1, n))
    alphas: list[float] = []
    betas: list[float] = []
    q = start / np.linalg.norm(start)
    basis[0] = q
    used = 0
    best_theta = 0.0
    best_res = np.inf
    best_y = q
    while used < budget:
        k = len(alphas)
        w = matvec(basis[k])
        used += 1
        alpha = float(basis[k] @ w)
        alphas.append(alpha)
        w -= alpha * basis[k]
        if k > 0:
            w -= betas[-1] * basis[k - 1]
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        beta = float(np.linalg.norm(w))

        theta_all, s = eigh_tridiagonal(
            np.asarray(alphas), np.asarray(betas), select="i", select_range=(k, k)
        )
        theta = float(theta_all[0])
        ritz = s[:, 0]
        scale = max(1.0, abs(theta))
        breakdown = beta <= 1e-14 * scale * n
        est = abs(beta * ritz[-1])
        if breakdown or est <= tol_abs:
            y = basis[: k + 1].T @ ritz
            y /= np.linalg.norm(y)
            res = float(np.linalg.norm(matvec(y) - theta * y))
            used += 1
            if res < best_res:
                best_theta, best_res, best_y = theta, res, y
            if breakdown or res <= tol_abs:
                return best_theta, best_y, best_res, used
        if breakdown or k + 1 >= n:
            return best_theta, best_y, best_res, used
        basis[k + 1] = w / beta
        betas.append(beta)
    raise ConvergenceError("Lanczos matvec budget exhausted", best_res)


def _top_two_iterative(g: Graph, tol: float, max_matvecs: int) -> SpectralSummary:
    n = g.n
    a = adjacency_matrix(g)

    def mv(x: np.ndarray) -> np.ndarray:
        return a @ x

    ones = np.full(n, 1.0 / np.sqrt(n))
    # The all-ones vector always overlaps a Perron eigenvector of a top
    # component, so the first stage cannot miss lambda1. It runs at the
    # unscaled tol, which is at least as tight as the final contract.
    lam1, v1, res1, used = _lanczos_largest(mv, n, ones, tol, max_matvecs)
    tol_abs = tol * max(1.0, lam1)

    # Rank-one shift pushes the lambda1 direction below the whole spectrum
    # (adjacency eigenvalues lie in [-(n-1), n-1]), so the deflated operator's
    # largest eigenvalue is exactly lambda2.
    shift = lam1 + n

    def mv_deflated(x: np.ndarray) -> np.ndarray:
        return a @ x - (shift * (v1 @ x)) * v1

    start2 = _pseudo_random_unit(n, _START_SEED)
    lam2, v2, _, _ = _lanczos_largest(mv_deflated, n, start2, tol_abs, max_matvecs - used)
    v2 -= (v1 @ v2) * v1
    v2 /= np.linalg.norm(v2)
    res2 = float(np.linalg.norm(a @ v2 - lam2 * v2))
    if res2 > tol_abs:
        raise ConvergenceError("deflated Lanczos residual above tolerance", res2)
    lam2 = min(lam2, lam1)
    return SpectralSummary(lam1, lam2, res1, res2, "iterative")


def top_two(g: Graph) -> SpectralSummary:
    """The two algebraically largest adjacency eigenvalues with residuals.

    Dense route for n <= DENSE_LIMIT (agrees with `full_spectrum` exactly),
    Lanczos-with-deflation route above it, same residual contract either way.
    """
    if g.n < 2:
        raise ValueError("top_two needs n >= 2 (lambda2 must exist)")
    if g.n <= DENSE_LIMIT:
        w, _, residuals = _dense_eigh(g)
        lam1, lam2 = float(w[-1]), float(w[-2])
        res1, res2 = float(residuals[-1]), float(residuals[-2])
        bound = DEFAULT_TOL * max(1.0, lam1)
        if max(res1, res2) > bound:
            raise ConvergenceError("dense eigensolver residual above tolerance", max(res1, res2))
        return SpectralSummary(lam1, lam2, res1, res2, "dense")
    return _top_two_iterative(g, DEFAULT_TOL, MATVEC_CAP_FACTOR * g.n)
