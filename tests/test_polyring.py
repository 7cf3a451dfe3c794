import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mustafin.coeffs import DomainError, GF, PiRing, QQ
from mustafin.polyring import (
    Block,
    DegRevLex,
    Ideal,
    Lex,
    MPoly,
    Substitution,
    UniverseError,
    VarUniverse,
    WeightedOrder,
    WeightedPiOrder,
    default_order,
    format_poly,
    from_pi_coefficients,
    from_pi_element,
    grid_universe,
    multidegree,
    parse_poly,
    pi_content,
    to_pi_coefficients,
)
from order_oracle import compare, key
from substitution_oracle import substitute

F = GF(32003)
U = VarUniverse(("x", "y"))
X = MPoly.var(U, F, "x")
Y = MPoly.var(U, F, "y")


def test_universe_uniqueness_and_lookup():
    with pytest.raises(UniverseError):
        VarUniverse(("x", "x"))
    g = grid_universe(2, 1)
    assert g.index("x[1][0]") == 0 and g.index("pi") == g.nvars - 1
    assert g.grid_indices() == [[0, 1], [2, 3]]
    with pytest.raises(UniverseError):
        g.index("nope")


def test_compare_examples():
    lex = Lex()
    # x vs y^2 under lex with x > y
    assert compare(lex, (1, 0), (0, 2)) == 1
    assert compare(lex, (1, 1), (1, 1)) == 0
    # 1 vs x: the empty monomial is minimal
    assert compare(lex, (0, 0), (1, 0)) == -1
    with pytest.raises(UniverseError):
        compare(lex, (1, 0), (1, 0, 0))


def test_leading_term_examples():
    # pi x + y over L[pi] coefficients, lex x > y
    R = PiRing(QQ)
    xr = MPoly.var(U, R, "x")
    yr = MPoly.var(U, R, "y")
    f = xr.scale(R.pi) + yr
    c, m = f.leading_term(Lex())
    assert m == (1, 0) and c == R.pi
    # x^2 + xy under degrevlex
    f2 = X * X + X * Y
    c2, m2 = (f2).leading_term(DegRevLex())
    assert m2 == (2, 0)
    # constants
    c3, m3 = MPoly.const(U, F, F.from_int(5)).leading_term(DegRevLex())
    assert m3 == (0, 0) and c3 == 5
    with pytest.raises(DomainError):
        MPoly.zero(U, F).leading_term(DegRevLex())


def test_substitute_examples():
    UA = VarUniverse(("A[1][1][0]", "A[2][1][0]", "x", "y"))
    A1 = MPoly.var(UA, F, "A[1][1][0]")
    A2 = MPoly.var(UA, F, "A[2][1][0]")
    x = MPoly.var(UA, F, "x")
    y = MPoly.var(UA, F, "y")
    f = A1 * x + A2 * y
    values = {"A[1][1][0]": F.from_int(2), "A[2][1][0]": F.from_int(3)}
    g = Substitution(UA, F, values)(f)
    assert g == x.scale(F.from_int(2)) + y.scale(F.from_int(3)) == substitute(f, values)
    assert Substitution(UA, F, {})(x) == x


def test_multidegree():
    g = grid_universe(2, 1, pi=False)
    blocks = g.grid_indices()
    m_x10_x21 = (1, 0, 0, 1)
    assert multidegree(m_x10_x21, blocks) == (1, 1)
    assert multidegree((0, 0, 0, 0), blocks) == (0, 0)
    assert multidegree((2, 1, 0, 0), blocks) == (3, 0)


mono3 = st.tuples(*[st.integers(0, 5)] * 3)
orders = st.sampled_from(
    [
        Lex(),
        Lex(perm=(2, 0, 1)),
        DegRevLex(),
        Block((((0,), Lex()), ((1, 2), DegRevLex()))),
        WeightedPiOrder((3, 1, 1), 2),
        WeightedPiOrder((0, 2, 1), 2),
        WeightedOrder((2, 0, 1)),
    ]
)


@given(orders, mono3, mono3, mono3)
def test_order_axioms(order, a, b, c):
    assert compare(order, a, b) == -compare(order, b, a)
    if compare(order, a, b) >= 0 and compare(order, b, c) >= 0:
        assert compare(order, a, c) >= 0
    shift = tuple(x + y for x, y in zip(a, c))
    shift2 = tuple(x + y for x, y in zip(b, c))
    assert compare(order, a, b) == compare(order, shift, shift2)
    if a != (0, 0, 0):
        assert compare(order, a, (0, 0, 0)) == 1
    # every order here keys by a flat tuple of ints of one length
    ka, kb = key(order, a), key(order, b)
    assert all(type(x) is int for x in ka + kb) and len(ka) == len(kb)


coeffs = st.integers(0, 32002)
polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs),
    max_size=5,
).map(lambda items: MPoly(U, F, dict(items)))


@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == MPoly.zero(U, F)


@given(polys, polys)
@settings(max_examples=40)
def test_substitute_is_a_homomorphism(f, g):
    plan = Substitution(U, F, {"x": Y + MPoly.const(U, F, F.one)})
    assert plan(f + g) == plan(f) + plan(g)
    assert plan(f * g) == plan(f) * plan(g)
    assert plan(f) == substitute(f, {"x": Y + MPoly.const(U, F, F.one)})


@given(polys)
@settings(max_examples=60)
def test_text_roundtrip(f):
    text = format_poly(f)
    assert parse_poly(text, U, F) == f


def test_parse_pi_coefficient_text():
    R = PiRing(QQ)
    f = parse_poly("(3 + 5*pi^2)*x + y", U, R)
    assert f.terms[(1, 0)] == R.element([Fraction(3), Fraction(0), Fraction(5)])
    assert parse_poly(format_poly(f), U, R) == f


def test_leading_term_multiplicative_over_domain():
    order = DegRevLex()
    f = X * X + Y
    g = X + Y
    cf, mf = f.leading_term(order)
    cg, mg = g.leading_term(order)
    cfg, mfg = (f * g).leading_term(order)
    assert mfg == tuple(a + b for a, b in zip(mf, mg))
    assert cfg == F.mul(cf, cg)


def test_pi_representation_roundtrip():
    big = VarUniverse(("x", "y", "pi"))
    f = parse_poly("x*pi^2 + 3*x + y*pi", big, F)
    ring_form = to_pi_coefficients(f)
    assert ring_form.universe.names == ("x", "y")
    back = from_pi_coefficients(ring_form, big)
    assert back == f


def test_pi_element_as_a_polynomial():
    big = VarUniverse(("x", "pi"))
    ring = PiRing(F)
    c = ring.parse("3 + 2*pi^2")
    assert from_pi_element(c, big, F) == parse_poly("3 + 2*pi^2", big, F)
    # a constant needs no pi variable; a pi-polynomial does
    assert from_pi_element(ring.parse("5"), U, F) == MPoly.const(U, F, F.from_int(5))
    assert not from_pi_element(ring.zero, U, F)
    with pytest.raises(DomainError, match="needs a pi variable"):
        from_pi_element(c, U, F)


UPI = VarUniverse(("x", "y", "pi"))


def test_pi_content_of_zero_and_of_content_free_polynomials():
    # the quotient by pi^c in general: test_groebner's
    # test_recorded_leading_terms_survive_scaling_and_content_division
    for f in (X * Y + X, MPoly.zero(UPI, F), parse_poly("x*pi + y", UPI, F)):
        c, q = pi_content(f)
        assert c == 0 and q is f
    assert pi_content(parse_poly("x*pi^2 + y*pi^3", UPI, F)) == (2, parse_poly("x + y*pi", UPI, F))


def test_default_order_puts_pi_last():
    uni = VarUniverse(("x", "pi"))
    order = default_order(uni)
    # x beats any power of pi
    assert compare(order, (1, 0), (0, 5)) == 1


def test_ideal_cache_is_per_order():
    I = Ideal([X + Y, X])
    gb1 = I.groebner_basis(Lex())
    gb2 = I.groebner_basis(Lex())
    assert gb1 is gb2  # cached, single assignment
    assert {g.leading_term(Lex())[1] for g in gb1} == {(1, 0), (0, 1)}


def test_ideal_rejects_mixed_universes():
    other = MPoly.var(VarUniverse(("x", "z")), F, "z")
    with pytest.raises(UniverseError):
        Ideal([X, other])


@given(mono3, mono3)
def test_multidegree_additive(a, b):
    blocks = [[0, 1], [2]]
    prod = tuple(x + y for x, y in zip(a, b))
    assert multidegree(prod, blocks) == tuple(
        x + y for x, y in zip(multidegree(a, blocks), multidegree(b, blocks))
    )


def weight_homogeneous_by_definition(f, weights):
    return len({sum(w * e for w, e in zip(weights, m)) for m in f.terms}) <= 1


def multihomogeneous_by_definition(f, blocks):
    return len({tuple(sum(m[i] for i in blk) for blk in blocks) for m in f.terms}) <= 1


U4 = VarUniverse(("a", "b", "c", "d"))
mono4 = st.tuples(*[st.integers(0, 3)] * 4)


@st.composite
def homogeneity_cases(draw):
    """A polynomial in four variables, blocks of them (any may be empty or
    one variable long, and a variable may lie in no block) and weights.
    Half the time the terms are filtered to the first term's multidegree or
    weight, so both verdicts come up."""
    monos = draw(st.lists(mono4, max_size=6))
    blocks = draw(st.lists(st.lists(st.integers(0, 3), max_size=3, unique=True), max_size=3))
    weights = draw(st.lists(st.integers(-2, 3), min_size=4, max_size=4))
    keep = draw(st.sampled_from(["all", "multidegree", "weight"]))
    if monos and keep == "multidegree":
        first = multidegree(monos[0], blocks)
        monos = [m for m in monos if multidegree(m, blocks) == first]
    elif monos and keep == "weight":
        first = sum(w * e for w, e in zip(weights, monos[0]))
        monos = [m for m in monos if sum(w * e for w, e in zip(weights, m)) == first]
    return MPoly(U4, F, {m: F.one for m in monos}), blocks, weights


@given(homogeneity_cases())
@settings(max_examples=300, deadline=None)
def test_homogeneity_verdicts_match_the_definitions(case):
    from mustafin.groebner import weight_homogeneous

    f, blocks, weights = case
    assert f.is_multihomogeneous(blocks) == multihomogeneous_by_definition(f, blocks)
    assert weight_homogeneous(f, weights) == weight_homogeneous_by_definition(f, weights)


def test_homogeneity_of_the_zero_polynomial_and_of_edge_blocks():
    from mustafin.groebner import weight_homogeneous

    zero = MPoly.zero(U4, F)
    a, b, c = (MPoly.var(U4, F, v) for v in "abc")
    assert zero.is_multihomogeneous([[0, 1], [2]]) and weight_homogeneous(zero, (1, 2, 3, 4))
    assert (a + b).is_multihomogeneous([[0, 1], [], [3]])
    assert not (a + b).is_multihomogeneous([[0], [1]])  # one-variable blocks
    assert (a + b).is_multihomogeneous([[2]]) and (a + b).is_multihomogeneous([])
    assert (a * a + b * c).is_multihomogeneous([[0, 1, 2]])
    assert weight_homogeneous(a * a + b, (1, 2, 0, 0)) and not weight_homogeneous(a + b, (1, 2, 0, 0))
