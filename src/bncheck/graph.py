"""Graph representation, seeded G(n,p) sampling, named families, and edge-list I/O.

Vertices are 0-indexed. Adjacency is stored as one Python int per vertex, bit j
of row i set iff {i, j} is an edge; intersections and popcounts on these bit
rows are what make clique search and edge counting word-parallel.

Randomness contract
-------------------
All sampling is driven by the splitmix64 stream (Steele/Lea mixing constants):
output t of the stream seeded with s is ``mix64(s + (t+1) * GAMMA) mod 2**64``.
``sample_gnp`` consumes one 64-bit draw per vertex pair in row-major order over
the strict upper triangle ((0,1), (0,2), ..., (0,n-1), (1,2), ...), and the pair
is an edge iff the draw is below ``floor(p * 2**64)``. ``derive_trial_seed`` is
output ``trial`` of the stream seeded with the master seed. The generator
identity is part of the output contract: changing it is a breaking change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, ParseError

MAX_VERTICES = 4096

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mixer on 64-bit ints."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive_trial_seed(master: int, trial: int) -> int:
    """Per-trial seed: output `trial` of the splitmix64 stream seeded with `master`.

    Pure and injective over `trial` for a fixed master (the state map is a
    bijection mod 2**64), so parallel trials are reproducible independently of
    scheduling order.
    """
    if trial < 0:
        raise ValueError("trial index must be >= 0")
    return _mix64((master + (trial + 1) * _GAMMA) & _MASK64)


def _splitmix64_outputs(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the splitmix64 stream, vectorized (uint64 wraps)."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    x = np.uint64(seed & _MASK64) + idx * np.uint64(_GAMMA)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph; immutable after construction.

    `rows[i]` is the neighbor set of vertex i as a bit mask. Construction
    verifies symmetry and a zero diagonal, so every Graph in the system is a
    valid simple undirected graph.
    """

    __slots__ = ("n", "rows", "edge_count")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        total_bits = 0
        upper = 0
        for i, mask in enumerate(rows):
            if mask < 0 or mask >> n:
                raise ValueError(f"row {i} has bits outside 0..{n - 1}")
            if (mask >> i) & 1:
                raise ValueError(f"self-loop at vertex {i}")
            total_bits += mask.bit_count()
            for j in _bits(mask >> (i + 1)):
                if not (rows[i + 1 + j] >> i) & 1:
                    raise ValueError(f"asymmetric adjacency at pair ({i}, {i + 1 + j})")
                upper += 1
        if total_bits != 2 * upper:
            raise ValueError("asymmetric adjacency: unmatched lower-triangle bits")
        self.n = n
        self.rows = tuple(rows)
        self.edge_count = upper

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, rows)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (i, j) with i < j, row-major over the strict upper triangle."""
        for i in range(self.n):
            for j in _bits(self.rows[i] >> (i + 1)):
                yield i, i + 1 + j

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class GnpParams:
    """Parameters of one G(n,p) draw.

    p = 0 and p = 1 are accepted for test convenience but are degenerate: the
    random-graph model behind the bounds assumes 0 < p < 1.
    """

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        object.__setattr__(self, "seed", self.seed & _MASK64)

    @property
    def degenerate_p(self) -> bool:
        """True when p is an endpoint, outside the 0 < p < 1 random model."""
        return self.p in (0.0, 1.0)


def _gnp_edge_mask(n: int, p: float, seed: int) -> np.ndarray:
    """Boolean edge indicators for the n(n-1)/2 pairs in canonical order."""
    m = n * (n - 1) // 2
    if m == 0:
        return np.zeros(0, dtype=bool)
    # p is a double, so p * 2**64 is an exact scaling; the comparison below
    # realizes probability floor(p * 2**64) / 2**64.
    threshold = int(p * 2.0**64)
    if threshold <= 0:
        return np.zeros(m, dtype=bool)
    if threshold >= 1 << 64:
        return np.ones(m, dtype=bool)
    return _splitmix64_outputs(seed, m) < np.uint64(threshold)


def sample_gnp(params: GnpParams) -> Graph:
    """Draw G(n,p): each pair {i,j} is an edge independently with probability p.

    Deterministic in `params`: identical parameters give bit-identical graphs.
    """
    n = params.n
    if n > MAX_VERTICES:
        raise CapacityError(f"n={n} exceeds the vertex cap {MAX_VERTICES}")
    mask = _gnp_edge_mask(n, params.p, params.seed)
    upper = np.zeros((n, n), dtype=bool)
    upper[np.triu_indices(n, k=1)] = mask
    full = upper | upper.T
    packed = np.packbits(full, axis=1, bitorder="little")
    rows = [int.from_bytes(packed[i].tobytes(), "little") for i in range(n)]
    return Graph(n, rows)


def make_named(kind: str, n: int, a: int | None = None, b: int | None = None) -> Graph:
    """Canonical test-fixture graph of a named family on vertices 0..n-1.

    Kinds: empty, complete, cycle (n >= 3), path, complete_bipartite (requires
    a + b = n with a, b >= 1; part A is vertices 0..a-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "empty":
        return Graph(n, [0] * n)
    if kind == "complete":
        all_bits = (1 << n) - 1
        return Graph(n, [all_bits ^ (1 << i) for i in range(n)])
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "complete_bipartite":
        if a is None or b is None:
            raise ValueError("complete_bipartite needs part sizes a and b")
        if a < 1 or b < 1 or a + b != n:
            raise ValueError("complete_bipartite needs a, b >= 1 with a + b = n")
        return Graph.from_edges(n, [(i, a + j) for i in range(a) for j in range(b)])
    raise ValueError(f"unknown graph kind {kind!r}")


def read_edge_list(text: str) -> Graph:
    """Parse the DIMACS-style edge-list format.

    Format: optional "c ..." comment lines, one "p edge <n> <m>" header, then m
    lines "e <i> <j>" with 1-based endpoints. Self-loops, duplicate edges, and
    out-of-range indices are errors naming the line. Reversed endpoints (i > j)
    are accepted and normalized.
    """
    n = None
    declared = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate 'p' header")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(line_no, "header must be 'p edge <n> <m>'")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(line_no, "header counts must be integers") from None
            if n < 1:
                raise ParseError(line_no, "vertex count must be >= 1")
            if declared < 0:
                raise ParseError(line_no, "edge count must be >= 0")
            if n > MAX_VERTICES:
                raise CapacityError(f"n={n} exceeds the vertex cap {MAX_VERTICES}")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(line_no, "edge line before 'p' header")
            if len(parts) != 3:
                raise ParseError(line_no, "edge line must be 'e <i> <j>'")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(line_no, "edge endpoints must be integers") from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(line_no, f"vertex index out of range 1..{n}")
            if i == j:
                raise ParseError(line_no, f"self-loop at vertex {i}")
            pair = (min(i, j) - 1, max(i, j) - 1)
            if pair in seen:
                raise ParseError(line_no, f"duplicate edge ({i}, {j})")
            seen.add(pair)
            edges.append(pair)
        else:
            raise ParseError(line_no, f"unrecognized line type {parts[0]!r}")
    if n is None:
        raise ParseError(0, "no 'p edge' header found")
    if len(edges) != declared:
        raise ParseError(0, f"header declares {declared} edges, file has {len(edges)}")
    return Graph.from_edges(n, edges)


def write_edge_list(g: Graph) -> str:
    """Serialize to the canonical form: sorted edges, 1-based, i < j."""
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {i + 1} {j + 1}" for i, j in g.edges())
    return "\n".join(lines) + "\n"
