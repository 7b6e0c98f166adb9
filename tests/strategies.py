"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st


@st.composite
def symmetric_rows(draw, min_n=1):
    """Bit rows of a random simple graph on at most 40 vertices."""
    n = draw(st.integers(min_n, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows = [0] * n
    for (i, j), edge in zip(pairs, chosen):
        if edge:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return n, rows, sum(chosen)
