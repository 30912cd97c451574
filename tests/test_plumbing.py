import pytest

from twistbench import plumbing as pl, topology as tp
from twistbench.errors import UnrecognizedPattern
from twistbench.plumbing import DiscBundleNode, TrivialDiscNode
from twistbench.topology import EulerClass, ZERO_CLASS

from generators import suspension_graph as star


def test_two_node_pattern_is_suspension():
    g = star(tp.smale(2), ZERO_CLASS, 1)
    b = pl.boundary(pl.reduce(g))
    assert b == tp.suspend(tp.smale(2), ZERO_CLASS)


def test_two_node_chain_already_minimal():
    g = star(tp.lens(3, 5), ZERO_CLASS, 1)
    assert pl.reduce(g).edges == g.edges


def test_star_reduces_to_pair_plus_free_nodes():
    g = star(tp.sphere(3), ZERO_CLASS, 3)
    reduced = pl.reduce(g)
    assert len(reduced.edges) == 1
    b = pl.boundary(pl.reduce(g))
    # suspension plus two trivial S^2 x S^2 boundaries
    expected = tp.connected_sum(
        [tp.suspend(tp.sphere(3), ZERO_CLASS)] + [tp.sphere_product(2, 2)] * 2
    )
    assert tp.homology(b) == tp.homology(expected)


def test_chain_splits_into_pairs():
    # bundle-disc chain with three bundle nodes: the connected-sum pattern
    ms = [tp.smale(2), tp.smale(3), tp.smale(5)]
    nodes = []
    edges = []
    for m in ms:
        b = len(nodes)
        nodes.append(DiscBundleNode(m, ZERO_CLASS))
        nodes.append(TrivialDiscNode(5))
        edges.append((b, b + 1, "+"))
        if b > 0:
            edges.append((b - 1, b, "+"))
    g = pl.graph(nodes, edges)
    reduced = pl.reduce(g)
    assert len(reduced.edges) == 3
    b = pl.boundary(pl.reduce(g))
    expected = tp.connected_sum([tp.suspend(m, ZERO_CLASS) for m in ms])
    assert tp.homology(b) == tp.homology(expected)


def test_free_disc_node_boundary():
    g = pl.graph([TrivialDiscNode(4)], [])
    assert pl.boundary(pl.reduce(g)) == tp.sphere_product(2, 3)


def test_isolated_bundle_node_unrecognized():
    g = pl.graph([DiscBundleNode(tp.sphere(3), ZERO_CLASS)], [])
    with pytest.raises(UnrecognizedPattern):
        pl.boundary(pl.reduce(g))


def test_minus_edges_rejected():
    g = pl.graph(
        [DiscBundleNode(tp.sphere(3), ZERO_CLASS), TrivialDiscNode(3)],
        [(0, 1, "-")],
    )
    with pytest.raises(UnrecognizedPattern):
        pl.reduce(g)


def test_bundle_bundle_edge_rejected():
    g = pl.graph(
        [
            DiscBundleNode(tp.sphere(3), ZERO_CLASS),
            DiscBundleNode(tp.sphere(3), ZERO_CLASS),
        ],
        [(0, 1, "+")],
    )
    with pytest.raises(UnrecognizedPattern):
        pl.reduce(g)


def test_circle_bundle_chain_unrecognized():
    # bundle-disc-bundle: the total-space pattern, not a suspension
    g = pl.graph(
        [
            DiscBundleNode(tp.sphere(3), ZERO_CLASS),
            TrivialDiscNode(3),
            DiscBundleNode(tp.sphere(3), ZERO_CLASS),
        ],
        [(0, 1, "+"), (1, 2, "+")],
    )
    with pytest.raises(UnrecognizedPattern):
        pl.reduce(g)


def test_rank_mismatch_rejected():
    g = pl.graph(
        [DiscBundleNode(tp.smale(2), ZERO_CLASS), TrivialDiscNode(4)],
        [(0, 1, "+")],
    )
    with pytest.raises(UnrecognizedPattern):
        pl.boundary(pl.reduce(g))


def test_reduce_preserves_boundary_homology():
    cases = [
        star(tp.sphere(3), ZERO_CLASS, 4),
        star(tp.smale(2), ZERO_CLASS, 2),
        star(tp.lens(3, 5), EulerClass(1), 3),
    ]
    for g in cases:
        # The normal form is a fixed point: reducing it again keeps its edges.
        reduced = pl.reduce(g)
        assert set(pl.reduce(reduced).edges) == set(reduced.edges)
        assert tp.homology(pl.boundary(reduced)) == tp.homology(pl.boundary(pl.reduce(reduced)))


STAR_CASES = [
    (tp.sphere(3), ZERO_CLASS),
    (tp.smale(2), ZERO_CLASS),
    (tp.lens(3, 5), ZERO_CLASS),
    (tp.lens(3, 5), EulerClass(1)),
]


@pytest.mark.parametrize("base,euler", STAR_CASES,
                         ids=[f"{tp.render(b)}-{e.render()}" for b, e in STAR_CASES])
@pytest.mark.parametrize("leaves", [1, 2, 3, 4, 5])
def test_star_boundary_formula(base, euler, leaves):
    """l-star boundary = susp(M, e) # (l-1) copies of S^2 x S^{n-1}."""
    n = tp.dim(base)
    g = star(base, euler, leaves)
    b = pl.boundary(pl.reduce(g))
    parts = [tp.suspend(base, euler)] + [tp.sphere_product(2, n - 1)] * (leaves - 1)
    expected = tp.connected_sum(parts)
    assert tp.homology(b) == tp.homology(expected)
    assert tp.spin(b) == tp.spin(expected)


def test_parse_graph_roundtrip():
    text = """
    # a 3-leaf star over the lens space
    bundle b0 lens(3,5) prim
    disc d1 5
    disc d2 5
    disc d3 5
    edge b0 d1 +
    edge b0 d2
    edge b0 d3 +
    """
    g = pl.parse_graph(text)
    assert len(g.nodes) == 4
    assert len(g.edges) == 3
    b = pl.boundary(pl.reduce(g))
    expected = tp.connected_sum(
        [tp.suspend(tp.lens(3, 5), EulerClass(1))]
        + [tp.sphere_product(2, 4)] * 2
    )
    assert tp.homology(b) == tp.homology(expected)
