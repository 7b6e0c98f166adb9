"""Exact maximum clique via branch-and-bound, plus a brute-force oracle.

The solver is the classic color-bound scheme: vertices are relabeled in
smallest-last order (lowest label on ties), candidate sets are bitsets, and
each search node greedily partitions its candidates into color classes. A
clique can take at most one vertex per class, so size + color is a pruning
bound. An optional wall-clock budget turns the result into a
certified-or-lower-bound answer.

The order is computed here in numpy; the search runs in C (_clique_kernel.c,
loaded through ctypes), which builds its own relabelled 64-bit bit rows from
the graph's matrix, so no other module knows the bitset layout. The C file is
compiled with `cc` on the first search and cached in $XDG_CACHE_HOME/bncheck
(default ~/.cache/bncheck); there is no other implementation. Ctrl-C during a
search takes effect only when the search returns; a time budget bounds that.
"""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import threading
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError
from .graph import Graph

BRUTE_FORCE_LIMIT = 20
_KERNEL_SOURCE = Path(__file__).with_name("_clique_kernel.c")
_KERNEL_CFLAGS = ("-O2", "-shared", "-fPIC")


@dataclass(frozen=True)
class CliqueResult:
    omega: int
    witness: tuple[int, ...]
    nodes_explored: int
    time_limited: bool

    @property
    def certified(self) -> bool:
        return not self.time_limited


def is_clique(g: Graph, vertices: Sequence[int]) -> bool:
    """Every pair in `vertices` adjacent (a repeated vertex fails: the diagonal is 0)."""
    if min(vertices, default=0) < 0:  # numpy would read -1 as vertex n - 1
        raise ValueError(f"negative vertex in {tuple(vertices)}")
    a = g.matrix
    return all(a[v, w] for v, w in combinations(vertices, 2))


def _degeneracy_order(a: np.ndarray) -> np.ndarray:
    """Smallest-last order of the n x n 0/1 matrix `a`: repeatedly remove a
    minimum-degree vertex, the lowest label on ties."""
    n = len(a)
    deg = a.sum(axis=1, dtype=np.int32)  # int32 halves the update cost of int64
    order = np.empty(n, dtype=np.int64)
    for k in range(n):
        v = deg.argmin()
        order[k] = v
        deg -= a[v]
        # Loses at most n - 1 more, so stays above every live degree (< n).
        deg[v] = 2 * n
    return order


@cache
def _kernel() -> Callable[..., int]:
    """`bn_max_clique` from _clique_kernel.c, compiled on first use into the
    user's cache directory under a name that hashes the source and flags.

    Each process (and thread) compiles to a temporary name of its own and
    renames it into place, so callers that meet an empty cache at once all
    load a whole file.
    """
    # hashlib loads OpenSSL's libcrypto, 3.6 MB of RSS (a tenth of a G(200, 1/2)
    # worker's peak); the builtin module that hashlib falls back to does not.
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    source = _KERNEL_SOURCE.read_bytes()
    digest = sha256(source + " ".join(_KERNEL_CFLAGS).encode()).hexdigest()
    cache_dir = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bncheck"
    library = cache_dir / f"clique_kernel-{digest}.so"
    if not library.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        partial = cache_dir / f".{library.name}.{os.getpid()}.{threading.get_ident()}"
        command = ["cc", *_KERNEL_CFLAGS, "-o", str(partial), str(_KERNEL_SOURCE)]
        try:
            subprocess.run(command, check=True, capture_output=True, text=True)
            os.replace(partial, library)
        except FileNotFoundError:
            raise RuntimeError(
                f"exact clique search needs a C compiler: no `cc` on PATH to build "
                f"{_KERNEL_SOURCE.name} into {cache_dir}"
            ) from None
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(
                f"`cc` failed to build {_KERNEL_SOURCE.name} into {cache_dir}:\n{exc.stderr}"
            ) from None
        finally:
            partial.unlink(missing_ok=True)
    search = ctypes.CDLL(str(library)).bn_max_clique
    search.argtypes = [
        np.ctypeslib.ndpointer(np.uint8, ndim=2, flags="C_CONTIGUOUS"),
        ctypes.c_int64,
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS"),
        ctypes.c_double,
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE")),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_int32),
    ]
    search.restype = ctypes.c_int64
    return search


def max_clique(g: Graph, time_budget: float | None = None) -> CliqueResult:
    """Exact omega(G) with a witness clique.

    With a time budget the search may stop early; the result then carries
    time_limited=True and omega is only a lower bound (not certified), with a
    maximal witness. A budget must be positive and finite; None means no budget.
    """
    if time_budget is not None and not 0 < time_budget < math.inf:
        raise ValueError(f"time_budget must be None or positive and finite, got {time_budget}")
    search = _kernel()
    order = _degeneracy_order(g.matrix)
    witness = np.empty(g.n, dtype=np.int64)
    nodes, timed_out = ctypes.c_int64(), ctypes.c_int32()
    size = search(
        g.matrix, g.n, order, time_budget or 0.0, witness, ctypes.byref(nodes), ctypes.byref(timed_out)
    )
    if size < 0:
        raise MemoryError(f"clique search on {g.n} vertices ran out of memory")
    return CliqueResult(size, tuple(sorted(witness[:size].tolist())), nodes.value, bool(timed_out.value))


def max_clique_bruteforce(g: Graph) -> int:
    """Oracle omega(G) by subset enumeration in increasing size.

    A (k+1)-clique contains a k-clique, so the first size with no clique ends
    the search. Capped at n <= BRUTE_FORCE_LIMIT.
    """
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise CapacityError(f"brute force capped at n={BRUTE_FORCE_LIMIT}, got {n}")
    omega = 1
    for k in range(2, n + 1):
        if not any(is_clique(g, combo) for combo in combinations(range(n), k)):
            break
        omega = k
    return omega
