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

import heapq
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


def graph(nodes, edges) -> PlumbingGraph:
    return PlumbingGraph(tuple(nodes), tuple((i, j, s) for (i, j, s) in edges))


def reduce(g: PlumbingGraph) -> PlumbingGraph:
    """Cut edges at trivial nodes until only the normal form remains.

    Each tree component becomes a matching of bundle nodes with trivial
    nodes plus leftover free trivial nodes: components in the order of
    their least node, each matched from its least live leaf up.  Raises
    UnrecognizedPattern when a component is not a tree of the recognized
    shape, when an edge joins two bundle nodes or two trivial nodes, when
    a minus-signed edge appears, or when some bundle node cannot keep a
    trivial node.  One pass: O(n log n) in the node count.
    """
    bundle = [isinstance(node, DiscBundleNode) for node in g.nodes]
    adj = [[] for _ in g.nodes]
    for i, j, sign in g.edges:
        if sign != "+":
            raise UnrecognizedPattern("only plus-signed plumbings are recognized")
        if bundle[i] == bundle[j]:
            raise UnrecognizedPattern("edges must join a bundle node to a trivial node")
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(a) for a in adj]  # live neighbours
    seen, alive = [False] * len(adj), [True] * len(adj)
    kept_edges = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [], [start]
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        # A tree has one edge fewer than nodes, and each edge adds 2 to the
        # degree sum.
        if sum(degree[v] for v in comp) != 2 * len(comp) - 2:
            raise UnrecognizedPattern("component is not a tree")
        if len(comp) == 1 and bundle[start]:
            raise UnrecognizedPattern("isolated bundle node has no suspension pattern")
        # Greedy leaf matching pairs every bundle node with a trivial node.
        leaves = [v for v in comp if degree[v] <= 1]
        heapq.heapify(leaves)
        while leaves:
            v = heapq.heappop(leaves)
            if not alive[v]:
                continue
            alive[v] = False
            w = next((u for u in adj[v] if alive[u]), None)
            if w is None:
                if bundle[v]:
                    raise UnrecognizedPattern("bundle node left without a trivial node")
                continue  # a free trivial node
            # A trivial leaf goes to its bundle neighbour.
            kept_edges.append((v, w, "+") if bundle[v] else (w, v, "+"))
            alive[w] = False
            for u in adj[w]:
                if alive[u]:
                    degree[u] -= 1
                    if degree[u] <= 1:
                        heapq.heappush(leaves, u)
    return PlumbingGraph(g.nodes, tuple(kept_edges))


def boundary(reduced: PlumbingGraph) -> ManifoldExpr:
    """Boundary manifold of a plumbing, read off ``reduce``'s normal form,
    as a catalog expression.

    Matched pairs give twisted suspensions, in the order of their bundle
    node; free trivial nodes give S^2 x S^{n-1}; the result is the
    connected sum over components.
    """
    parts = []
    used = set()
    for b, d, _ in sorted(reduced.edges):  # each edge is (bundle, disc, +)
        bundle = reduced.nodes[b]
        if reduced.nodes[d].disc_rank != topology.dim(bundle.base):
            raise UnrecognizedPattern("disc rank does not match the base dimension")
        parts.append(topology.suspend(bundle.base, bundle.euler))
        used.update((b, d))
    parts += [topology.sphere_product(2, node.disc_rank - 1)
              for k, node in enumerate(reduced.nodes) if k not in used]
    if not parts:
        raise UnrecognizedPattern("empty plumbing graph")
    return topology.connected_sum(parts)


# ---------------------------------------------------------------------------
# Text format (the CLI's plumb command)
# ---------------------------------------------------------------------------

# The fields after each declaration kind, with their least count (the
# required <...> fields) and most count.
_FORMS = {kind: (form, form.count("<"), len(form.split())) for kind, form in (
    ("bundle", "<name> <manifold-expr> <euler>"), ("disc", "<name> <rank>"),
    ("edge", "<name> <name> [+|-]"))}


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

    names = {}
    nodes = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        if kind not in _FORMS:
            raise InputError(f"line {lineno}: unknown declaration {kind!r}")
        form, least, most = _FORMS[kind]
        if len(fields) < least:
            raise InputError(f"line {lineno}: {kind} needs {form}")
        if len(fields) > most:
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
