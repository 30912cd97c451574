"""Test-input generators that no command needs: random valid gon
labellings, star-shaped plumbing graphs and manifold expressions, and
the matrix product."""

import random

from twistbench import intlat, topology
from twistbench.intlat import IntMatrix
from twistbench.orbitgon import GonLabelling, validate
from twistbench.plumbing import DiscBundleNode, PlumbingGraph, TrivialDiscNode, graph
from twistbench.topology import EulerClass, ManifoldExpr


def random_valid_labelling(rng: random.Random, n: int, m: int) -> GonLabelling:
    """Random valid gon for property tests.

    Builds a valid cyclic pattern of standard basis vectors (with the
    all-ones-compatible vector e_0 + e_1 patching odd wraparounds), then
    applies a random unimodular change of basis and random sign flips,
    both of which preserve validity.
    """
    d = n - 2
    if m < d:
        raise ValueError("m must be at least n - 2")
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    seq = list(range(d))
    toggle = [0, 1] if d >= 2 else [0]
    while len(seq) < m:
        seq.append(toggle[(len(seq) - d) % len(toggle)])
    labels = [basis[i] for i in seq]
    if d >= 2 and seq[-1] == seq[0]:
        labels[-1] = tuple(basis[0][i] + basis[1][i] for i in range(d))
    g = GonLabelling(n, tuple(labels))
    report = validate(g)
    assert report.valid, report.failures
    # Random unimodular transform: a few shear/swap/negate moves.
    u = intlat.identity_lists(d)
    for _ in range(4 * d):
        move = rng.randrange(3)
        i = rng.randrange(d)
        j = rng.randrange(d)
        if move == 0 and i != j:
            q = rng.randint(-2, 2)
            for k in range(d):
                u[i][k] += q * u[j][k]
        elif move == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif move == 2:
            u[i] = [-x for x in u[i]]
    umat = IntMatrix.from_rows(u)
    assert abs(umat.det()) == 1
    cols = [matmul(umat, IntMatrix.from_rows([[x] for x in a], cols=1)) for a in g.labels]
    new_labels = []
    for c in cols:
        vec = tuple(c[i, 0] for i in range(d))
        if rng.random() < 0.3:
            vec = tuple(-x for x in vec)
        new_labels.append(vec)
    out = GonLabelling(n, tuple(new_labels))
    assert validate(out).valid
    return out


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b."""
    assert a.cols == b.rows
    columns = [b.entries[j::b.cols] for j in range(b.cols)]
    return IntMatrix(a.rows, b.cols, tuple(sum(x * y for x, y in zip(a.row(i), column))
                                           for i in range(a.rows) for column in columns))


def suspension_graph(base: ManifoldExpr, euler: EulerClass, leaves: int) -> PlumbingGraph:
    """Star graph: one bundle node over ``base`` with ``leaves`` >= 1 trivial nodes."""
    assert leaves >= 1
    n = topology.dim(base)
    nodes = [DiscBundleNode(base, euler)] + [TrivialDiscNode(n)] * leaves
    edges = [(0, k, "+") for k in range(1, leaves + 1)]
    return graph(nodes, edges)


# The twisting classes of random expressions: 0, prim, div(2) and div(3).
CLASSES = tuple(EulerClass(k) for k in range(4))


def random_atom(rng: random.Random, n: int) -> ManifoldExpr:
    """A catalogue atom of dimension n >= 3, drawn from every row that has one."""
    rows = [("sphere", (n,))]
    rows.append(("cp", (n // 2,)) if n % 2 == 0 else ("lens", (rng.randint(2, 6), n)))
    if n == 3:
        rows.append(("poincare", ()))
    if n == 5:
        rows += [("smale", (rng.randint(2, 6),)), ("wu", ())]
    if n >= 4:
        p = rng.randint(2, n - 2)
        rows.append(("product", (p, n - p)))
    if n >= 5:
        rows.append(("twisted_s2", (n - 2,)))
    name, params = rng.choice(rows)
    return topology.ATOMS[name].make(*params)


def random_expression(rng: random.Random, n: int, depth: int = 3) -> ManifoldExpr:
    """An expression of dimension n >= 3 nested at most ``depth`` deep: an
    atom, a sum of two or three expressions, or a suspension by one of
    ``CLASSES`` or, of a sum, by a split class of them."""
    roll = rng.random() if depth and n >= 4 else 1.0
    if roll < 0.3:
        return topology.connected_sum(
            [random_expression(rng, n, depth - 1) for _ in range(rng.randint(2, 3))])
    if roll < 0.6:
        base = random_expression(rng, n - 1, depth - 1)
        e = rng.choice(CLASSES)
        if base.kind == "connected_sum" and rng.random() < 0.5:
            e = EulerClass(0, [rng.choice(CLASSES) for _ in base.children])
        return topology.suspend(base, e)
    return random_atom(rng, n)
