import random

import pytest

from twistbench import grammar, topology as tp
from twistbench.errors import DimensionTooSmall
from twistbench.grammar import ExprSyntaxError
from twistbench.topology import EulerClass


ROUNDTRIP = [
    "S(4)",
    "CP(3)",
    "lens(3,5)",
    "N(7)",
    "Wu",
    "Poincare",
    "S(2)xS(3)",
    "S(3)xS(3)",
    "S2~S(4)",
    "csum(N(2),S(2)xS(3))",
    "susp(0,N(2))",
    "susp(prim,lens(3,5))",
    "susp(div(4),CP(3))",
    "susp([prim,0],csum(CP(2),S(2)xS(2)))",
]


@pytest.mark.parametrize("text", ROUNDTRIP)
def test_parse_render_roundtrip(text):
    x = grammar.parse_manifold(text)
    assert tp.render(x) == text
    assert grammar.parse_manifold(tp.render(x)) == x


# Parameters from each catalogue row's valid range.
VALID_PARAMS = {
    "sphere": lambda rng: (rng.randint(2, 60),),
    "cp": lambda rng: (rng.randint(1, 30),),
    "lens": lambda rng: (rng.randint(2, 99), 2 * rng.randint(1, 30) + 1),
    "smale": lambda rng: (rng.randint(2, 99),),
    "wu": lambda rng: (),
    "poincare": lambda rng: (),
    "twisted_s2": lambda rng: (rng.randint(3, 60),),
    "product": lambda rng: (rng.randint(2, 60), rng.randint(2, 60)),
}


def test_every_catalogue_row_has_valid_params():
    assert VALID_PARAMS.keys() == tp.ATOMS.keys()


@pytest.mark.parametrize("name", sorted(VALID_PARAMS))
def test_catalogue_row_roundtrip(name):
    rng = random.Random(f"catalogue row {name}")
    for _ in range(20):
        x = tp.ATOMS[name].make(*VALID_PARAMS[name](rng))
        text = tp.render(x)
        assert grammar.parse_manifold(text) == x
        assert tp.render(grammar.parse_manifold(text)) == text


def test_parse_euler():
    assert grammar.parse_euler("0") == EulerClass(0)
    assert grammar.parse_euler("prim") == EulerClass(1)
    assert grammar.parse_euler("div(6)") == EulerClass(6)
    assert grammar.parse_euler("div(1)") == EulerClass(1)
    assert grammar.parse_euler("div(0)") == EulerClass(0)
    e = grammar.parse_euler("[0,prim,div(3)]")
    assert e == EulerClass(0, (EulerClass(0), EulerClass(1), EulerClass(3)))


def test_class_is_its_divisibility_and_round_trips():
    # A class is the number k: div(0) and div(1) are 0 and prim.
    rng = random.Random("class round trip")
    singles = ["0", "prim"] + [f"div({rng.randint(2, 10**30)})" for _ in range(20)]
    for text in singles:
        e = grammar.parse_euler(text)
        assert e.parts == () and e.render() == text
        assert grammar.parse_euler(e.render()) == e
    assert [grammar.parse_euler(f"div({k})") for k in (0, 1, 7)] == [
        EulerClass(0), EulerClass(1), EulerClass(7)]
    assert grammar.parse_euler("div(0)").render() == "0"
    assert grammar.parse_euler("div(1)").render() == "prim"
    for _ in range(20):
        text = "[" + ",".join(rng.choice(singles) for _ in range(rng.randint(1, 5))) + "]"
        e = grammar.parse_euler(text)
        assert e.k == 0 and e.render() == text and grammar.parse_euler(text) == e


@pytest.mark.parametrize("bad", [
    "S(3",
    "S()",
    "frob(2)",
    "csum()",
    "susp(0)",
    "S(3))",
    "susp(blah,S(3))",
    "lens(3)",
])
def test_parse_errors(bad):
    with pytest.raises(ExprSyntaxError):
        grammar.parse_manifold(bad)


# Malformed and edge inputs around the sphere product, with the exception
# and message each raises.
REFUSED = [
    ("S(2)xS", ExprSyntaxError, "unexpected end of input"),
    ("S(2)x", ExprSyntaxError, "trailing input: ['x']"),
    ("S(1)xS(3)", DimensionTooSmall, "sphere factors of dimension >= 2 only"),
    ("S(2)xS(1)", DimensionTooSmall, "sphere factors of dimension >= 2 only"),
    ("S(2)xS(3)xS(4)", ExprSyntaxError, "trailing input: ['xS', '(', '4', ')']"),
    ("SxS(3)", ExprSyntaxError, "unknown token 'SxS'"),
    ("xS(3)", ExprSyntaxError, "unknown token 'xS'"),
    ("S2xS(3)", ExprSyntaxError, "unknown token 'S2xS'"),
    ("S(2)xS(3", ExprSyntaxError, "unexpected end of input"),
    ("S(2)xS()", ExprSyntaxError, "expected an integer, found ')'"),
    ("S(2)xS(x)", ExprSyntaxError, "expected an integer, found 'x'"),
    ("S(2)xs(3)", ExprSyntaxError, "trailing input: ['xs', '(', '3', ')']"),
    ("S(2)XS(3)", ExprSyntaxError, "trailing input: ['XS', '(', '3', ')']"),
    ("S(2)x S(3)", ExprSyntaxError, "trailing input: ['x', 'S', '(', '3', ')']"),
    ("S(2)xCP(3)", ExprSyntaxError, "trailing input: ['xCP', '(', '3', ')']"),
    ("S(2)xS(3)x", ExprSyntaxError, "trailing input: ['x']"),
    ("S(2)xS(3),", ExprSyntaxError, "trailing input: [',']"),
    ("csum(S(2)xS,S(5))", ExprSyntaxError, "expected '(', found ','"),
    ("S(0)", DimensionTooSmall, "spheres of dimension >= 2 only"),
]


@pytest.mark.parametrize("text, kind, message", REFUSED, ids=[t for t, _, _ in REFUSED])
def test_refusal_keeps_its_type_and_message(text, kind, message):
    with pytest.raises(kind) as info:
        grammar.parse_manifold(text)
    assert type(info.value) is kind and str(info.value) == message


def test_space_before_the_second_factor_is_allowed():
    assert grammar.parse_manifold("S(2) xS(3)") == tp.sphere_product(2, 3)
