"""Exact maximum clique via branch-and-bound, plus a brute-force oracle.

The solver is the classic color-bound scheme: vertices are relabeled in
smallest-last order (lowest label on ties), candidate sets live in int bit
masks, and each search node greedily partitions its candidates into color
classes. A clique can take at most one vertex per class, so size + color is a
pruning bound. An optional wall-clock budget turns the result into a
certified-or-lower-bound answer.

The bit rows (one Python int per vertex, bit j of row i set iff {i, j} is an
edge) are the search's private working layout, built by `_bit_rows` from the
relabelled adjacency matrix; no other module knows how a row maps to bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError
from .graph import Graph

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class CliqueResult:
    omega: int
    witness: tuple[int, ...]
    nodes_explored: int
    time_limited: bool

    @property
    def certified(self) -> bool:
        return not self.time_limited


def _bit_rows(matrix: np.ndarray) -> list[int]:
    """One bit-row int per row of a 0/1 or bool matrix: bit j of row i is
    entry (i, j) (little endian: vertex 8k + b is bit b of byte k)."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_clique(g: Graph, vertices: Sequence[int]) -> bool:
    """Every pair in `vertices` adjacent (a repeated vertex fails: the diagonal is 0)."""
    if min(vertices, default=0) < 0:  # numpy would read -1 as vertex n - 1
        raise ValueError(f"negative vertex in {tuple(vertices)}")
    a = g.matrix
    return all(a[v, w] for v, w in combinations(vertices, 2))


def _degeneracy_order(a: np.ndarray) -> list[int]:
    """Smallest-last order of the n x n 0/1 matrix `a`: repeatedly remove a
    minimum-degree vertex, the lowest label on ties."""
    n = len(a)
    deg = a.sum(axis=1, dtype=np.int32)  # int32 halves the update cost of int64
    order = []
    for _ in range(n):
        v = int(deg.argmin())
        order.append(v)
        deg -= a[v]
        # Loses at most n - 1 more, so stays above every live degree (< n).
        deg[v] = 2 * n
    return order


def _greedy_clique(adj: Sequence[int], n: int, starts: int = 8) -> int:
    """Cheap initial lower bound: grow a clique by max degree-in-candidates."""
    best_mask = 0
    best = 0
    by_degree = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    for s in by_degree[:starts]:
        mask = 1 << s
        cand = adj[s]
        while cand:
            pick, score = -1, -1
            for v in _bits(cand):
                sc = (adj[v] & cand).bit_count()
                if sc > score:
                    score, pick = sc, v
            mask |= 1 << pick
            cand &= adj[pick]
        if mask.bit_count() > best:
            best, best_mask = mask.bit_count(), mask
    return best_mask


def _greedy_coloring(cand: int, adj: Sequence[int]) -> tuple[list[int], list[int]]:
    """Partition candidates into independent color classes.

    Returns vertices grouped by ascending color and the color number of each;
    a clique inside `cand` has at most `color` vertices, which is the bound.
    """
    order: list[int] = []
    bound: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append(v)
            bound.append(color)
            rest ^= low
            avail = (avail ^ low) & ~adj[v]
    return order, bound


class _Search:
    __slots__ = ("adj", "best_size", "best_mask", "nodes", "deadline", "timed_out")

    def __init__(self, adj: Sequence[int], seed_mask: int, deadline: float | None):
        self.adj = adj
        self.best_size = seed_mask.bit_count()
        self.best_mask = seed_mask
        self.nodes = 0
        self.deadline = deadline
        self.timed_out = False

    def expand(self, size: int, members: int, cand: int) -> None:
        self.nodes += 1
        if self.deadline is not None and perf_counter() > self.deadline:
            self.timed_out = True
            return
        adj = self.adj
        order, bound = _greedy_coloring(cand, adj)
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= self.best_size:
                return
            v = order[i]
            bit = 1 << v
            sub = cand & adj[v]
            if sub:
                self.expand(size + 1, members | bit, sub)
                if self.timed_out:
                    return
            elif size + 1 > self.best_size:
                self.best_size = size + 1
                self.best_mask = members | bit
            cand ^= bit


def max_clique(g: Graph, time_budget: float | None = None) -> CliqueResult:
    """Exact omega(G) with a witness clique.

    With a time budget the search may stop early; the result then carries
    time_limited=True and omega is only a lower bound (not certified). A budget
    must be positive and finite; None means no budget.
    """
    if time_budget is not None and not 0 < time_budget < math.inf:
        raise ValueError(f"time_budget must be None or positive and finite, got {time_budget}")
    n = g.n
    a = g.matrix
    order = _degeneracy_order(a)
    # Relabel so the degeneracy order is 0..n-1; tightens early color bounds.
    # `take` gathers about twice as fast as `np.ix_` indexing at the vertex cap.
    adj = _bit_rows(a.take(order, axis=0).take(order, axis=1))
    deadline = perf_counter() + time_budget if time_budget is not None else None
    search = _Search(adj, _greedy_clique(adj, n), deadline)
    search.expand(0, 0, (1 << n) - 1)
    mask = search.best_mask
    # An interrupted search can leave an extendable clique (tried vertices are
    # dropped from candidate sets); grow it to maximal so even a lower-bound
    # witness is never trivially improvable. Certified maxima never extend.
    for v in range(n):
        if not (mask >> v) & 1 and adj[v] & mask == mask:
            mask |= 1 << v
    witness = tuple(sorted(order[v] for v in _bits(mask)))
    return CliqueResult(mask.bit_count(), witness, search.nodes, search.timed_out)


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
