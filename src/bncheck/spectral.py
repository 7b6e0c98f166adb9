"""Eigenvalues of the adjacency matrix with verified residuals.

Two routes share one contract, and n alone picks between them. The dense route,
for n up to `DENSE_LIMIT`, reduces the symmetric matrix to tridiagonal form
once and computes only its top two eigenpairs (LAPACK dsyevr with RANGE='I'
from the OpenBLAS bundled with numpy; the top two of numpy's full `eigh` when
numpy bundles none, or when dsyevr returns no pair). The iterative route, used
above that limit, is a Lanczos iteration with full reorthogonalization for the
largest eigenpair, followed by a rank-one deflation shift and a second Lanczos
run for the second largest. Each step takes the top Ritz pair from LAPACK
dstebz and dstein of the same OpenBLAS (numpy's `eigh` of the tridiagonal
without it), and multiplies by an int32 CSR pattern of A (the kernel's
matvec). Both routes end in one certificate step, which computes each
residual ||A v - lambda v||_2 from the two pairs returned, on the route's own
operator, and checks it against DEFAULT_TOL * max(1, lambda1).

Both routes run on one OpenBLAS thread, so their results do not depend on the
BLAS thread count and pool workers do not compete for cores.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import _kernel
from .errors import ConvergenceError
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


@dataclass(frozen=True)
class CsrPattern:
    """An n x n 0/1 matrix as CSR with no data array: the ones of row i sit in
    columns indices[indptr[i]:indptr[i + 1]], ascending. `pattern @ x` is the
    float64 product with a vector, with the bits of scipy's CSR product."""

    indptr: np.ndarray  # int32, n + 1 entries
    indices: np.ndarray  # int32

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = len(self.indptr) - 1
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (n,):  # the kernel reads x[indices[k]] unchecked
            raise ValueError(f"an n = {n} CsrPattern needs a vector of length {n}, not {x.shape}")
        y = np.empty(n)
        _kernel.library().bn_csr_matvec(self.indptr, self.indices, n, x, y)
        return y


def adjacency_matrix(g: Graph, sparse: bool = False):
    """The graph's adjacency matrix: a dense float64 ndarray, or with `sparse`
    its `CsrPattern`."""
    if sparse:
        # One scan of the flat bool view, about 6x faster than a 2-D nonzero:
        # entry k is row k // n and column k % n, so row i starts at the first
        # entry >= i * n.
        n = g.n
        flat = np.flatnonzero(g.matrix.view(bool))
        indptr = np.searchsorted(flat, np.arange(0, n * n + 1, n)).astype(np.int32)
        # searchsorted has read flat, so the column indices may overwrite it
        return CsrPattern(indptr, np.remainder(flat, n, out=flat).astype(np.int32))
    return g.matrix.astype(np.float64)


@dataclass(frozen=True)
class _OpenBLAS:
    """Entry points of the OpenBLAS bundled with numpy."""

    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    dsyevr: Callable[..., int]  # LAPACKE_dsyevr
    dstebz: Callable[..., int]  # LAPACKE_dstebz
    dstein: Callable[..., int]  # LAPACKE_dstein
    lapack_int: type  # c_int64 in the 64-bit integer builds, else c_int


@cache
def _openblas() -> _OpenBLAS | None:
    """The thread count get/set pair and LAPACKE_dsyevr, _dstebz and _dstein
    of numpy's OpenBLAS.

    numpy wheels ship it in numpy.libs (numpy/.dylibs on macOS); its symbols
    carry a "scipy_" prefix and a "64_" suffix in the 64-bit integer builds.
    None when numpy bundles no OpenBLAS (another BLAS, or a system build).
    """
    numpy_dir = Path(np.__file__).parent
    bundled = [
        *numpy_dir.parent.glob("numpy.libs/*openblas*"),
        *numpy_dir.glob(".dylibs/*openblas*"),
    ]
    for path in bundled:
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                dsyevr, dstebz, dstein = (getattr(lib, f"{prefix}LAPACKE_{name}{suffix}", None)
                                          for name in ("dsyevr", "dstebz", "dstein"))
                if None in (get, set_, dsyevr, dstebz, dstein):
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                lapack_int = ctypes.c_int64 if suffix else ctypes.c_int
                doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
                ints = np.ctypeslib.ndpointer(np.dtype(lapack_int), flags="C_CONTIGUOUS")
                int_ptr = ctypes.POINTER(lapack_int)
                dsyevr.restype = dstebz.restype = dstein.restype = lapack_int
                dsyevr.argtypes = [
                    ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,  # layout, jobz, range, uplo
                    lapack_int, doubles, lapack_int,  # n, a, lda
                    ctypes.c_double, ctypes.c_double, lapack_int, lapack_int,  # vl, vu, il, iu
                    ctypes.c_double, int_ptr, doubles, doubles, lapack_int,  # abstol, m, w, z, ldz
                    int_ptr,  # isuppz
                ]
                dstebz.argtypes = [
                    ctypes.c_char, ctypes.c_char, lapack_int,  # range, order, n
                    ctypes.c_double, ctypes.c_double, lapack_int, lapack_int,  # vl, vu, il, iu
                    ctypes.c_double, doubles, doubles,  # abstol, d, e
                    int_ptr, int_ptr, doubles, ints, ints,  # m, nsplit, w, iblock, isplit
                ]
                dstein.argtypes = [
                    ctypes.c_int, lapack_int, doubles, doubles,  # layout, n, d, e
                    lapack_int, doubles, ints, ints,  # m, w, iblock, isplit
                    doubles, lapack_int, ints,  # z, ldz, ifailv
                ]
                return _OpenBLAS(get, set_, dsyevr, dstebz, dstein, lapack_int)
    return None


# The thread count is process-wide: one pinned section at a time, so a second
# Python thread can neither restore it under the first nor save the pinned 1.
# Reentrant, so a pinned section may run inside another on the same thread.
_PIN_LOCK = threading.RLock()


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body on one OpenBLAS thread, then restore the count found."""
    blas = _openblas()
    if blas is None:
        yield
        return
    with _PIN_LOCK:
        found = blas.get_threads()
        blas.set_threads(1)
        try:
            yield
        finally:
            blas.set_threads(found)


_LAPACK_COL_MAJOR = 102


def _dsyevr_top_two(blas: _OpenBLAS, a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Top two eigenvalues (ascending) of symmetric `a` and their eigenvectors
    as the columns of an n x 2 array, from one LAPACKE_dsyevr call.

    None when dsyevr reports success but returns fewer than two pairs: its
    bisection for the index boundary can land inside a cluster of equal
    eigenvalues, as on K_31 (lambda = -1 thirty times), and then finds none.
    """
    n = a.shape[0]
    work = a.copy()  # dsyevr overwrites it; symmetric, so row- and column-major agree
    w = np.empty(n)
    z = np.empty((2, n))  # column-major n x 2, leading dimension n
    m = blas.lapack_int()
    isuppz = (blas.lapack_int * 4)()
    info = blas.dsyevr(_LAPACK_COL_MAJOR, b"V", b"I", b"U", n, work, n,
                       0.0, 0.0, n - 1, n, 0.0, m, w, z, n, isuppz)
    if info != 0:
        raise ConvergenceError(f"LAPACKE_dsyevr failed with info {info}", math.inf)
    return (w[:2], z.T) if m.value == 2 else None


def _pseudo_random_unit(n: int, seed: int) -> np.ndarray:
    """Deterministic start vector: splitmix64 stream mapped into [-0.5, 0.5)."""
    u = _splitmix64_outputs(seed, n).astype(np.float64) / 2.0**64 - 0.5
    return u / np.linalg.norm(u)


def _top_tridiagonal_pair(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of the symmetric tridiagonal
    matrix with diagonal `d` and off-diagonal `e`.

    These are the LAPACK calls that scipy's eigh_tridiagonal(select="i") makes,
    bisection (dstebz) then inverse iteration (dstein), through LAPACKE of the
    OpenBLAS bundled with numpy; the top pair of numpy's `eigh` of the k x k
    matrix when numpy bundles none.
    """
    k = len(d)
    if k == 1:
        return float(d[0]), np.ones(1)
    blas = _openblas()
    if blas is None:
        w, v = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        return float(w[-1]), v[:, -1]
    m, nsplit = blas.lapack_int(), blas.lapack_int()
    w = np.zeros(k)  # dstein NaN-checks all k entries, not only the m found
    iblock, isplit = np.empty(k, blas.lapack_int), np.empty(k, blas.lapack_int)
    info = blas.dstebz(b"I", b"B", k, 0.0, 1.0, k, k, 0.0, d, e, m, nsplit, w, iblock, isplit)
    if info != 0:
        raise ConvergenceError(f"LAPACKE_dstebz failed with info {info}", math.inf)
    z = np.empty((m.value, k))  # column-major k x m, leading dimension k
    info = blas.dstein(_LAPACK_COL_MAJOR, k, d, e, m.value, w, iblock, isplit, z, k,
                       np.empty(m.value, blas.lapack_int))
    if info != 0:
        raise ConvergenceError(f"LAPACKE_dstein failed with info {info}", math.inf)
    return float(w[0]), z[0]


def _lanczos_largest(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    start: np.ndarray,
    tol_abs: float,
    budget: int,
) -> tuple[float, np.ndarray, int]:
    """Algebraically largest eigenpair of a symmetric operator.

    Lanczos with full reorthogonalization (two classical Gram-Schmidt passes
    per step) to suppress ghost copies. Returns (theta, y, matvecs), the last
    Ritz pair: once its residual is at most tol_abs, on a breakdown (beta ~ 0,
    an invariant subspace, where the pair is exact) or on a full Krylov space;
    top_two's certificate decides. Raises ConvergenceError with the smallest
    residual seen if the matvec budget runs out first.
    """
    basis = np.empty((min(budget, n) + 1, n))
    alphas: list[float] = []
    betas: list[float] = []
    basis[0] = start / np.linalg.norm(start)
    used = 0
    best_res = np.inf
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

        theta, ritz = _top_tridiagonal_pair(np.asarray(alphas), np.asarray(betas))
        done = beta <= 1e-14 * max(1.0, abs(theta)) * n or k + 1 >= n
        if done or abs(beta * ritz[-1]) <= tol_abs:
            y = basis[: k + 1].T @ ritz
            y /= np.linalg.norm(y)
            if done:
                return theta, y, used
            res = float(np.linalg.norm(matvec(y) - theta * y))
            used += 1
            if res <= tol_abs:
                return theta, y, used
            best_res = min(best_res, res)
        basis[k + 1] = w / beta
        betas.append(beta)
    raise ConvergenceError("Lanczos matvec budget exhausted", best_res)


def _certified(a, w, v: np.ndarray, tol: float, method: str) -> SpectralSummary:
    """Top two eigenvalues `w` (ascending) and eigenvectors (columns of `v`)
    with residuals ||a v - lambda v||_2 on the route's operator `a`; raises
    ConvergenceError if either is above tol * max(1, lambda1)."""
    lam2, lam1 = (float(x) + 0.0 for x in w)  # + 0.0 turns -0.0 into 0.0
    res2, res1 = (float(np.linalg.norm(a @ x - lam * x)) for lam, x in zip((lam2, lam1), v.T))
    if max(res1, res2) > tol * max(1.0, lam1):
        raise ConvergenceError(f"{method} eigensolver residual above tolerance", max(res1, res2))
    return SpectralSummary(lam1, lam2, res1, res2, method)


def _top_two_iterative(g: Graph, tol: float, max_matvecs: int) -> SpectralSummary:
    """Lanczos route, multiplying by the graph's CsrPattern (top_two runs it on
    one OpenBLAS thread)."""
    n = g.n
    a = adjacency_matrix(g, sparse=True)
    ones = np.full(n, 1.0 / np.sqrt(n))
    # The all-ones vector always overlaps a Perron eigenvector of a top
    # component, so the first stage cannot miss lambda1. It runs at the
    # unscaled tol, which is at least as tight as the final contract.
    lam1, v1, used = _lanczos_largest(a.__matmul__, n, ones, tol, max_matvecs)
    tol_abs = tol * max(1.0, lam1)

    # Rank-one shift pushes the lambda1 direction below the whole spectrum
    # (adjacency eigenvalues lie in [-(n-1), n-1]), so the deflated operator's
    # largest eigenvalue is exactly lambda2.
    shift = lam1 + n

    def mv_deflated(x: np.ndarray) -> np.ndarray:
        return a @ x - (shift * (v1 @ x)) * v1

    start2 = _pseudo_random_unit(n, _START_SEED)
    lam2, v2, _ = _lanczos_largest(mv_deflated, n, start2, tol_abs, max_matvecs - used)
    v2 -= (v1 @ v2) * v1
    v2 /= np.linalg.norm(v2)
    return _certified(a, (min(lam2, lam1), lam1), np.column_stack([v2, v1]), tol, "iterative")


def top_two(g: Graph) -> SpectralSummary:
    """The two algebraically largest adjacency eigenvalues with residuals.

    Dense route for n <= DENSE_LIMIT, Lanczos-with-deflation route above it;
    both end in the same residual certificate.
    """
    if g.n < 2:
        raise ValueError("top_two needs n >= 2 (lambda2 must exist)")
    with _one_blas_thread():
        if g.n > DENSE_LIMIT:
            return _top_two_iterative(g, DEFAULT_TOL, MATVEC_CAP_FACTOR * g.n)
        a = adjacency_matrix(g)
        blas = _openblas()
        pairs = _dsyevr_top_two(blas, a) if blas is not None else None
        w, v = pairs if pairs is not None else np.linalg.eigh(a)
        return _certified(a, w[-2:], v[:, -2:], DEFAULT_TOL, "dense")
