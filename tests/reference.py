"""Whole-stream reference for the G(n,p) draw, which sample_gnp takes in blocks."""

import numpy as np

from bncheck.graph import _splitmix64_outputs


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
