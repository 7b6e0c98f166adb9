"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st


@st.composite
def symmetric_matrices(draw, min_n=1):
    """Symmetric 0/1 uint8 adjacency matrix of a random simple graph on at most
    40 vertices, with its edge count."""
    n = draw(st.integers(min_n, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    a = np.zeros((n, n), dtype=np.uint8)
    for (i, j), edge in zip(pairs, chosen):
        if edge:
            a[i, j] = a[j, i] = 1
    return a, sum(chosen)
