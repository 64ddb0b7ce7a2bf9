import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from d4kit.graph import components

from oracles import OracleUnionFind


def _oracle_labels(n, a, b) -> list[int]:
    """Each node's label: the lowest index of its union-find group."""
    uf = OracleUnionFind()
    for x in range(n):
        uf.find(x)
    for x, y in zip(a, b):
        uf.union(int(x), int(y))
    labels = [0] * n
    for group in uf.groups():
        low = min(group)
        for x in group:
            labels[x] = low
    return labels


def _check(n, a, b):
    labels = components(n, np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))
    assert labels.shape == (n,)
    assert labels.tolist() == _oracle_labels(n, a, b)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(0, 40))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=80)) if n else []
    # Repeat some edges, reversed or not, so duplicates are common.
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    flip = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(y, x) if f else (x, y) for (x, y), f in zip(edges, flip)]
    return n, [x for x, _ in edges], [y for _, y in edges]


@given(_edge_lists())
@example((0, [], []))
@example((5, [3, 3, 1, 1, 4], [3, 1, 3, 1, 1]))  # self-loops, duplicates, isolated 0 and 2
def test_labels_match_union_find_oracle(case):
    _check(*case)


def test_long_path_in_random_index_order():
    n = 100_000
    order = np.random.default_rng(0).permutation(n)
    _check(n, order[:-1], order[1:])


def test_star_centre_has_highest_index():
    n = 10_000
    leaves = np.arange(n - 1)
    _check(n, leaves, np.full(n - 1, n - 1))
    _check(n, np.full(n - 1, n - 1), leaves)


def test_random_tree_and_forest():
    rng = np.random.default_rng(1)
    n = 50_000
    child = np.arange(1, n)
    parent = (rng.random(n - 1) * child).astype(np.intp)  # a uniform earlier node
    relabel = rng.permutation(n)
    _check(n, relabel[child], relabel[parent])
    # Cutting every tenth edge leaves a forest of many trees.
    keep = np.arange(n - 1) % 10 != 0
    _check(n, relabel[child][keep], relabel[parent][keep])
