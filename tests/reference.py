"""References for the tests.

Each of the first group is the same computation as a part of the C kernel: the
G(n,p) draw and the smallest-last order in numpy, and the clique search in pure
Python. The rest are independent oracles and fixtures: the full spectrum from
numpy's eigh, omega by subset enumeration, and the named graph families."""

from itertools import combinations

import numpy as np

from bncheck import CapacityError, ConvergenceError, Graph, is_clique
from bncheck.graph import _splitmix64_outputs
from bncheck.spectral import DEFAULT_TOL, DENSE_LIMIT, _one_blas_thread, adjacency_matrix

BRUTE_FORCE_LIMIT = 20


def gnp_edge_mask(n, p, seed):
    """Boolean edge indicators for the n(n-1)/2 pairs in canonical order."""
    m = n * (n - 1) // 2
    threshold = int(p * 2.0**64)
    if threshold <= 0:
        return np.zeros(m, dtype=bool)
    if threshold >= 1 << 64:
        return np.ones(m, dtype=bool)
    return _splitmix64_outputs(seed, m) < np.uint64(threshold)


def gnp_matrix(n, p, seed):
    """Adjacency matrix of G(n,p): the whole stream scattered through triu_indices."""
    upper = np.zeros((n, n), dtype=bool)
    upper[np.triu_indices(n, k=1)] = gnp_edge_mask(n, p, seed)
    return upper | upper.T


def degeneracy_order(a):
    """Smallest-last order of the n x n 0/1 matrix `a`: repeatedly remove a
    minimum-degree vertex, the lowest label on ties."""
    n = len(a)
    deg = a.sum(axis=1, dtype=np.int32)
    order = np.empty(n, dtype=np.int64)
    for k in range(n):
        v = deg.argmin()
        order[k] = v
        deg -= a[v]
        # Loses at most n - 1 more, so stays above every live degree (< n).
        deg[v] = 2 * n
    return order


# Pure-Python clique search: the algorithm of bncheck's C kernel on Python int
# bit rows, kept to check that the kernel returns the same omega, witness and
# node count. No time budget.


def bit_rows(matrix):
    """One bit-row int per row of a 0/1 or bool matrix: bit j of row i is
    entry (i, j) (little endian: vertex 8k + b is bit b of byte k)."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def greedy_clique(adj, n, starts=8):
    """Cheap initial lower bound: grow a clique by max degree-in-candidates."""
    best_mask = 0
    best = 0
    by_degree = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    for s in by_degree[:starts]:
        mask = 1 << s
        cand = adj[s]
        while cand:
            pick, score = -1, -1
            for v in bits(cand):
                sc = (adj[v] & cand).bit_count()
                if sc > score:
                    score, pick = sc, v
            mask |= 1 << pick
            cand &= adj[pick]
        if mask.bit_count() > best:
            best, best_mask = mask.bit_count(), mask
    return best_mask


def greedy_coloring(cand, adj):
    """Partition candidates into independent color classes.

    Returns vertices grouped by ascending color and the color number of each;
    a clique inside `cand` has at most `color` vertices, which is the bound.
    """
    order = []
    bound = []
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


class Search:
    def __init__(self, adj, seed_mask):
        self.adj = adj
        self.best_size = seed_mask.bit_count()
        self.best_mask = seed_mask
        self.nodes = 0

    def expand(self, size, members, cand):
        self.nodes += 1
        adj = self.adj
        order, bound = greedy_coloring(cand, adj)
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= self.best_size:
                return
            v = order[i]
            bit = 1 << v
            sub = cand & adj[v]
            if sub:
                self.expand(size + 1, members | bit, sub)
            elif size + 1 > self.best_size:
                self.best_size = size + 1
                self.best_mask = members | bit
            cand ^= bit


def max_clique(g):
    """(omega, witness, nodes_explored) of the search on Python int bit rows."""
    n = g.n
    order = degeneracy_order(g.matrix)
    adj = bit_rows(g.matrix.take(order, axis=0).take(order, axis=1))
    search = Search(adj, greedy_clique(adj, n))
    search.expand(0, 0, (1 << n) - 1)
    mask = search.best_mask
    for v in range(n):
        if not (mask >> v) & 1 and adj[v] & mask == mask:
            mask |= 1 << v
    witness = tuple(sorted(int(order[v]) for v in bits(mask)))
    return mask.bit_count(), witness, search.nodes


def full_spectrum(g):
    """All n adjacency eigenvalues, sorted descending, residual-checked.

    The spectrum satisfies sum(w) = trace = 0 and sum(w**2) = 2 e(G) up to
    rounding; tests pin both.
    """
    if g.n > DENSE_LIMIT:
        raise CapacityError(f"n={g.n} exceeds DENSE_LIMIT={DENSE_LIMIT}")
    a = adjacency_matrix(g)
    with _one_blas_thread():
        w, v = np.linalg.eigh(a)
        residuals = np.linalg.norm(a @ v - v * w, axis=0)
    bound = DEFAULT_TOL * max(1.0, float(w[-1]))
    worst = float(residuals.max())
    if worst > bound:
        raise ConvergenceError("dense eigensolver residual above tolerance", worst)
    return [float(x) for x in w[::-1]]


def max_clique_bruteforce(g):
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


def make_named(kind, n, a=None, b=None):
    """Canonical test-fixture graph of a named family on vertices 0..n-1.

    Kinds: empty, complete, cycle (n >= 3), path, complete_bipartite (requires
    a + b = n with a, b >= 1; part A is vertices 0..a-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "empty":
        return Graph(np.zeros((n, n), dtype=bool))
    if kind == "complete":
        return Graph(~np.eye(n, dtype=bool))
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
