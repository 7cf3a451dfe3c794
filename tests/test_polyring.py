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
    UniverseError,
    VarUniverse,
    WeightedOrder,
    WeightedPiOrder,
    default_order,
    format_poly,
    from_pi_coefficients,
    grid_universe,
    multidegree,
    order_eliminates,
    parse_poly,
    to_pi_coefficients,
)

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
    assert lex.compare((1, 0), (0, 2)) == 1
    assert lex.compare((1, 1), (1, 1)) == 0
    # 1 vs x: the empty monomial is minimal
    assert lex.compare((0, 0), (1, 0)) == -1
    with pytest.raises(UniverseError):
        lex.compare((1, 0), (1, 0, 0))


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
    g = f.substitute({"A[1][1][0]": F.from_int(2), "A[2][1][0]": F.from_int(3)})
    assert g == x.scale(F.from_int(2)) + y.scale(F.from_int(3))
    assert x.substitute({}) == x


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
    assert order.compare(a, b) == -order.compare(b, a)
    if order.compare(a, b) >= 0 and order.compare(b, c) >= 0:
        assert order.compare(a, c) >= 0
    shift = tuple(x + y for x, y in zip(a, c))
    shift2 = tuple(x + y for x, y in zip(b, c))
    assert order.compare(a, b) == order.compare(shift, shift2)
    if a != (0, 0, 0):
        assert order.compare(a, (0, 0, 0)) == 1
    # every order here keys by a flat tuple of ints of one length
    ka, kb = order.key(a), order.key(b)
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
    target = {"x": Y + MPoly.const(U, F, F.one)}
    assert (f + g).substitute(target) == f.substitute(target) + g.substitute(target)
    assert (f * g).substitute(target) == f.substitute(target) * g.substitute(target)


@given(polys)
@settings(max_examples=60)
def test_text_roundtrip(f):
    text = format_poly(f)
    assert parse_poly(text, U, F) == f


def test_parse_pi_coefficient_text():
    R = PiRing(QQ)
    f = parse_poly("(3 + 5*pi^2)*x + y", U, R)
    assert f.coeff_of((1, 0)) == R.element([Fraction(3), Fraction(0), Fraction(5)])
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


def test_order_eliminates():
    uni = VarUniverse(("a", "b", "c"))
    order = Block((((0,), DegRevLex()), ((1, 2), DegRevLex())))
    assert order_eliminates(order, uni, ["a"])
    assert not order_eliminates(order, uni, ["b"])
    assert order_eliminates(Lex(), uni, ["a"])
    assert not order_eliminates(DegRevLex(), uni, ["a"])


def test_default_order_puts_pi_last():
    uni = VarUniverse(("x", "pi"))
    order = default_order(uni)
    # x beats any power of pi
    assert order.compare((1, 0), (0, 5)) == 1


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
