"""Connected components of an undirected graph given as an edge list."""

from __future__ import annotations

import numpy as np


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label each of nodes 0..n-1 with the lowest node index in its component.

    Edges are the pairs (a[i], b[i]) of two integer index arrays;
    self-loops and repeated edges are allowed. Each round hooks the larger
    root of every edge whose ends lie in different trees under the smaller
    one, then pointer-jumps until every node points at its root (the simple
    labeling family analysed by Liu & Tarjan, SOSA 2019). Every pointer
    goes to a lower index, so each root is the lowest index of its tree,
    and every round with a split edge removes at least one root, so the
    loop ends.
    """
    labels = np.arange(n)
    while True:
        la, lb = labels[a], labels[b]
        split = la != lb
        if not split.any():
            return labels
        # An edge whose ends share a root stays that way, so it is dropped.
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
