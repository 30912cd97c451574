"""Plumbing graphs and their boundary calculus.

Nodes are either a D^2-bundle over a catalog manifold M^n (with a
twisting class) or the trivial D^n-bundle over S^2.  The rewrite moves
proved for these graphs are treated as axioms: an edge incident to a
trivial node can be cut, so every tree built from bundle nodes and
trivial nodes reduces to a disjoint union of two-node suspension
patterns and free trivial nodes.  The boundary of the whole plumbing is
the connected sum over components (non-connected graphs mean boundary
connected sum of the pieces).
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from . import topology
from .errors import InputError, UnrecognizedPattern
from .topology import EulerClass, ManifoldExpr


class DiscBundleNode(NamedTuple):
    """D^2-bundle over ``base`` with twisting class ``euler``."""

    base: ManifoldExpr
    euler: EulerClass


class TrivialDiscNode(namedtuple("TrivialDiscNode", "disc_rank")):
    """Trivial D^n-bundle over S^2, n = ``disc_rank``."""

    __slots__ = ()

    def __new__(cls, disc_rank: int):
        if disc_rank < 3:
            raise InputError("trivial disc nodes need rank >= 3")
        return tuple.__new__(cls, (disc_rank,))


class PlumbingGraph(namedtuple("PlumbingGraph", "nodes edges")):
    """Nodes, and edges (i, j, sign) with sign in {+, -}."""

    __slots__ = ()

    def __new__(cls, nodes: tuple, edges: tuple):
        for i, j, sign in edges:
            if i == j:
                raise InputError("edge endpoints must be distinct nodes")
            if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
                raise InputError("edge endpoint out of range")
            if sign not in ("+", "-"):
                raise InputError(f"bad edge sign {sign!r}")
        return tuple.__new__(cls, (nodes, edges))

    def is_bundle(self, i: int) -> bool:
        return isinstance(self.nodes[i], DiscBundleNode)


def graph(nodes, edges) -> PlumbingGraph:
    return PlumbingGraph(tuple(nodes), tuple((i, j, s) for (i, j, s) in edges))


def _components(g: PlumbingGraph):
    n = len(g.nodes)
    adj = {i: [] for i in range(n)}
    for i, j, _ in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps, adj


def reduce(g: PlumbingGraph) -> PlumbingGraph:
    """Cut edges at trivial nodes until only the normal form remains.

    Each tree component becomes a matching of bundle nodes with trivial
    nodes plus leftover free trivial nodes.  Raises UnrecognizedPattern
    when a component is not a tree of the recognized shape, when an edge
    joins two bundle nodes or two trivial nodes, when a minus-signed
    edge appears, or when some bundle node cannot keep a trivial node.
    """
    for i, j, sign in g.edges:
        if sign != "+":
            raise UnrecognizedPattern("only plus-signed plumbings are recognized")
        if g.is_bundle(i) == g.is_bundle(j):
            raise UnrecognizedPattern("edges must join a bundle node to a trivial node")
    comps, adj = _components(g)
    kept_edges = []
    for comp in comps:
        edge_count = sum(1 for i, j, _ in g.edges if i in comp and j in comp)
        if edge_count != len(comp) - 1:
            raise UnrecognizedPattern("component is not a tree")
        if len(comp) == 1:
            if g.is_bundle(comp[0]):
                raise UnrecognizedPattern("isolated bundle node has no suspension pattern")
            continue
        kept_edges.extend(_match_tree(g, comp, adj))
    return PlumbingGraph(g.nodes, tuple(kept_edges))


def _match_tree(g: PlumbingGraph, comp, adj):
    """Greedy leaf matching pairing every bundle node with a trivial node."""
    alive = set(comp)
    degree = {v: sum(1 for w in adj[v] if w in alive) for v in comp}
    neighbors = {v: set(w for w in adj[v] if w in alive) for v in comp}
    matching = []

    def remove(v):
        alive.discard(v)
        for w in list(neighbors[v]):
            neighbors[w].discard(v)
            degree[w] -= 1
        neighbors[v].clear()

    while True:
        leaves = sorted(v for v in alive if degree[v] <= 1)
        if not leaves:
            if alive:
                raise UnrecognizedPattern("cycle left after matching")
            break
        v = leaves[0]
        if degree[v] == 0:
            if g.is_bundle(v):
                raise UnrecognizedPattern("bundle node left without a trivial node")
            remove(v)  # free trivial node
            continue
        w = next(iter(neighbors[v]))
        if g.is_bundle(v):
            matching.append((v, w, "+"))
            remove(v)
            remove(w)
        else:
            # Trivial leaf: give it to its bundle neighbour.
            matching.append((w, v, "+"))
            remove(v)
            remove(w)
    return matching


def boundary(g: PlumbingGraph) -> ManifoldExpr:
    """Boundary manifold of the plumbing, as a catalog expression.

    Two-node components give twisted suspensions; free trivial nodes
    give S^2 x S^{n-1}; the result is the connected sum over components.
    """
    reduced = reduce(g)
    matched = {}
    for i, j, _ in reduced.edges:
        b, d = (i, j) if reduced.is_bundle(i) else (j, i)
        matched[b] = d
    parts = []
    used = set()
    for b, d in sorted(matched.items()):
        bundle = reduced.nodes[b]
        disc = reduced.nodes[d]
        if disc.disc_rank != topology.dim(bundle.base):
            raise UnrecognizedPattern("disc rank does not match the base dimension")
        parts.append(topology.suspend(bundle.base, bundle.euler))
        used.update((b, d))
    for k, node in enumerate(reduced.nodes):
        if k in used:
            continue
        if isinstance(node, TrivialDiscNode):
            parts.append(topology.sphere_product(2, node.disc_rank - 1))
        else:
            raise UnrecognizedPattern("isolated bundle node has no suspension pattern")
    if not parts:
        raise UnrecognizedPattern("empty plumbing graph")
    return topology.connected_sum(parts)


# ---------------------------------------------------------------------------
# Text format (the CLI's plumb command)
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> PlumbingGraph:
    """Parse the adjacency-list format.

    One declaration per line::

        bundle <name> <manifold-expr> <euler>
        disc <name> <rank>
        edge <name> <name> [+|-]

    Blank lines and ``#`` comments are ignored.  Every error names its
    line.
    """
    from .grammar import parse_euler, parse_manifold

    forms = {"bundle": "<name> <manifold-expr> <euler>", "disc": "<name> <rank>",
             "edge": "<name> <name> [+|-]"}  # the fields after each kind
    names = {}
    nodes = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        form = forms.get(kind)
        if form is None:
            raise InputError(f"line {lineno}: unknown declaration {kind!r}")
        if len(fields) < form.count("<"):
            raise InputError(f"line {lineno}: {kind} needs {form}")
        if len(fields) > len(form.split()):
            raise InputError(f"line {lineno}: {kind} takes {form}")
        try:
            if kind == "bundle":
                name, expr_text, euler_text = fields
                node = DiscBundleNode(parse_manifold(expr_text), parse_euler(euler_text))
            elif kind == "disc":
                name, rank = fields
                node = TrivialDiscNode(int(rank))
            else:
                a, b = fields[:2]
                sign = fields[2] if len(fields) > 2 else "+"
                if sign not in ("+", "-"):
                    raise InputError(f"bad edge sign {sign!r}")
                edges.append((names[a], names[b], sign))
                continue
        except (ValueError, InputError) as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        except KeyError as exc:
            raise InputError(f"line {lineno}: unknown node name {exc}") from exc
        if name in names:
            raise InputError(f"line {lineno}: duplicate node name {name!r}")
        names[name] = len(nodes)
        nodes.append(node)
    return graph(nodes, edges)
