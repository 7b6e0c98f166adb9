"""Exact maximum clique via branch-and-bound.

The solver is the classic color-bound scheme: vertices are relabeled in
smallest-last order (lowest label on ties), candidate sets are bitsets, and
each search node greedily partitions its candidates into color classes. A
clique can take at most one vertex per class, so size + color is a pruning
bound. An optional wall-clock budget turns the result into a
certified-or-lower-bound answer.

The order and the search run in C (_kernel.c, loaded by `_kernel`); the
search builds its own relabelled 64-bit bit rows from the graph's matrix, so
no other module knows the bitset layout. Ctrl-C during a search takes effect
only when the search returns; a time budget bounds that.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from . import _kernel
from .graph import Graph


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


def max_clique(g: Graph, time_budget: float | None = None) -> CliqueResult:
    """Exact omega(G) with a witness clique.

    With a time budget the search may stop early; the result then carries
    time_limited=True and omega is only a lower bound (not certified), with a
    maximal witness. A budget must be positive and finite; None means no budget.
    """
    if time_budget is not None and not 0 < time_budget < math.inf:
        raise ValueError(f"time_budget must be None or positive and finite, got {time_budget}")
    kernel = _kernel.library()
    order = np.empty(g.n, dtype=np.int64)
    witness = np.empty(g.n, dtype=np.int64)
    nodes, timed_out = ctypes.c_int64(), ctypes.c_int32()
    size = -1
    if kernel.bn_degeneracy_order(g.matrix, g.n, order) == 0:
        size = kernel.bn_max_clique(
            g.matrix, g.n, order, time_budget or 0.0, witness, ctypes.byref(nodes), ctypes.byref(timed_out)
        )
    if size < 0:
        raise MemoryError(f"clique search on {g.n} vertices ran out of memory")
    return CliqueResult(size, tuple(sorted(witness[:size].tolist())), nodes.value, bool(timed_out.value))
