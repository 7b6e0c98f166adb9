"""Graph representation, seeded G(n,p) sampling, and edge-list I/O.

Vertices are 0-indexed. A graph is stored as its read-only n x n uint8
adjacency matrix, entry (i, j) = 1 iff {i, j} is an edge: the matrix whose
eigenvalues, half-sum and all-ones principal submatrices the inequality is
about. The clique search keeps its own bit-row working layout (see `clique`).

Randomness contract
-------------------
All sampling is driven by the splitmix64 stream (Steele/Lea mixing constants):
output t of the stream seeded with s is ``mix64(s + (t+1) * GAMMA) mod 2**64``.
``sample_gnp`` consumes one 64-bit draw per vertex pair in row-major order over
the strict upper triangle ((0,1), (0,2), ..., (0,n-1), (1,2), ...), and the pair
is an edge iff the draw is below ``floor(p * 2**64)``. The compiled kernel
(``_kernel.c``) draws the stream one output at a time straight into the upper
triangle of the adjacency matrix; ``_splitmix64_outputs`` is the same stream in
numpy. ``derive_trial_seed`` is output ``trial`` of the stream seeded with the
master seed. The generator identity is part of the output contract: changing it
is a breaking change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernel
from .errors import CapacityError, ParseError

MAX_VERTICES = 4096
_TILE = 256  # symmetry is checked and mirrored tile by tile, never by a full transpose

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


def _splitmix64_outputs(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs start .. start + count - 1 of the splitmix64 stream, vectorized
    (uint64 wraps)."""
    x = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x *= np.uint64(_GAMMA)
    x += np.uint64(seed & _MASK64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def _upper_tiles(n: int) -> Iterator[tuple[slice, slice]]:
    """(rows, cols) of the _TILE x _TILE tiles on and above the diagonal of an n x n matrix."""
    for r in range(0, n, _TILE):
        for c in range(r, n, _TILE):
            yield slice(r, r + _TILE), slice(c, c + _TILE)


class Graph:
    """Simple undirected graph; immutable after construction.

    `matrix` is the read-only n x n uint8 0/1 adjacency matrix. Construction
    copies and verifies it (square, n >= 1, 0/1 entries, zero diagonal,
    symmetric), so every Graph in the system is a valid simple undirected graph.
    """

    __slots__ = ("n", "matrix", "edge_count")

    def __init__(self, matrix):
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        n = len(a)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        # Compare, never cast: 2, -1, 0.5 and NaN must not pass as 0 or 1.
        if a.dtype != bool and not ((a == 0) | (a == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        a = a.astype(np.uint8)  # a copy, so the caller's array cannot change the graph
        if a.diagonal().any():
            raise ValueError(f"self-loop at vertex {a.diagonal().argmax()}")
        # Upper-triangle tiles against their mirrors: no transposed copy of a.
        for rows, cols in _upper_tiles(n):
            block, mirror = a[rows, cols], a[cols, rows].T
            if not np.array_equal(block, mirror):
                i, j = np.argwhere(block != mirror)[0]  # i < j on a diagonal tile
                i, j = rows.start + i, cols.start + j
                raise ValueError(f"asymmetric adjacency at pair ({i}, {j})")
        a.setflags(write=False)
        self.n = n
        self.matrix = a
        self.edge_count = int(np.count_nonzero(a)) // 2

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        a = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            a[i, j] = a[j, i] = True
        return cls(a)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (i, j) with i < j, row-major over the strict upper triangle."""
        flat = np.flatnonzero(self.matrix.view(bool))  # both halves, row-major
        i, j = np.divmod(flat, self.n)
        upper = i < j
        return zip(i[upper].tolist(), j[upper].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(self.matrix.tobytes())  # n^2 bytes, so the length fixes n

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


def sample_gnp(params: GnpParams) -> Graph:
    """Draw G(n,p): each pair {i,j} is an edge independently with probability p.

    Deterministic in `params`: identical parameters give bit-identical graphs.
    """
    n = params.n
    if n > MAX_VERTICES:
        raise CapacityError(f"n={n} exceeds the vertex cap {MAX_VERTICES}")
    # p is a double, so p * 2**64 is an exact scaling; the comparison realizes
    # probability floor(p * 2**64) / 2**64.
    threshold = int(params.p * 2.0**64)
    if threshold >= 1 << 64:
        return Graph(~np.eye(n, dtype=bool))
    a = np.zeros((n, n), dtype=bool)  # bool: Graph skips its 0/1 comparison
    if threshold > 0:
        _kernel.library().bn_draw_gnp(a.view(np.uint8), n, params.seed, threshold)
        for rows, cols in _upper_tiles(n):
            a[cols, rows] |= a[rows, cols].T
    return Graph(a)


def read_edge_list(text: str) -> Graph:
    """Parse the DIMACS-style edge-list format.

    Format: optional "c ..." comment lines, one "p edge <n> <m>" header, then m
    lines "e <i> <j>" with 1-based endpoints. Self-loops, duplicate edges, and
    out-of-range indices are errors naming the line. Reversed endpoints (i > j)
    are accepted and normalized.
    """
    n = None
    declared = 0
    edges: set[tuple[int, int]] = set()
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
            if pair in edges:
                raise ParseError(line_no, f"duplicate edge ({i}, {j})")
            edges.add(pair)
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
