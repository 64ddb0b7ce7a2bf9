"""Connected components of an undirected graph given as an edge list, and the
members of each label of a labelling."""

from __future__ import annotations

from typing import Iterator

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


def members(labels: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Indices of each of labels 0..k-1 in ``labels``, ascending within each.

    A stable sort by label puts each label's indices in one run, in index
    order; the runs' bounds come from one ``searchsorted``. The runs are
    yielded one at a time, so a caller that skips most labels holds no
    array per label.
    """
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    for j in range(k):
        yield order[bounds[j] : bounds[j + 1]]
