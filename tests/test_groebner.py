import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mustafin.coeffs import DomainError, GF, PiRing, QQ
import re

from mustafin.groebner import (
    ReductionStep,
    ReductionTrace,
    buchberger,
    eliminate,
    hilbert_function,
    ideal_membership,
    interreduce,
    intersect_monomial_ideals,
    is_groebner,
    minimalize_monomials,
    normal_form,
    radical_membership,
    reduce_one_step,
    ResourceCapExceeded,
    saturate,
    _Packing,
    _Reducers,
)
from mustafin.polyring import (
    Block,
    DegRevLex,
    Ideal,
    Lex,
    MPoly,
    TermOrder,
    VarUniverse,
    WeightedPiOrder,
    grid_universe,
    parse_poly,
)

F = GF(32003)
R = PiRing(QQ)
U = VarUniverse(("x", "y"))
X = MPoly.var(U, F, "x")
Y = MPoly.var(U, F, "y")
XR = MPoly.var(U, R, "x")
YR = MPoly.var(U, R, "y")
LEX = Lex()


def test_reduce_one_step_field():
    # x^2 against {x}: one step to zero
    out = reduce_one_step(X * X, [X], LEX)
    assert out is not None
    h, step = out
    assert not h and step.reducers == (0,) and step.quotients == ((1, 0),)


def test_reduce_one_step_valuation_obstruction():
    # pi*x against {pi^2 x}: pi is not a multiple of pi^2
    f = XR.scale(R.pi)
    g = XR.scale(R.mul(R.pi, R.pi))
    assert reduce_one_step(f, [g], LEX) is None


def test_reduce_one_step_gcd_combination():
    # lc 2 reduced against lcs pi, 1+pi whose gcd is 1
    f = XR.scale(R.from_int(2))
    e1 = XR.scale(R.pi)
    e2 = XR.scale(R.element([Fraction(1), Fraction(1)]))
    out = reduce_one_step(f, [e1, e2], LEX)
    assert out is not None
    h, step = out
    assert not h
    assert set(step.reducers) <= {0, 1} and len(step.reducers) == 2


def test_normal_form_examples():
    assert normal_form(X * X + Y, [X], LEX) == Y
    f = X * Y + X
    assert normal_form(f, [], LEX) == f
    # ring coefficients: (pi x + y) mod {x + y} -> y - pi y
    nf = normal_form(XR.scale(R.pi) + YR, [XR + YR], LEX)
    assert nf == YR.scale(R.element([Fraction(1), Fraction(-1)]))


def test_normal_form_trace_replays():
    f = X * X * Y + X * Y + Y
    basis = [X * Y + Y, X + Y]
    nf, trace = normal_form(f, basis, LEX, want_trace=True)
    replay_nf, leads = trace.replay(f, basis, LEX)
    assert replay_nf == nf
    assert isinstance(trace, ReductionTrace)


def test_buchberger_examples():
    # monomial generators are already a basis
    gb = buchberger([X, Y], LEX)
    assert {g.leading_term(LEX)[1] for g in gb} == {(1, 0), (0, 1)}
    # {x+y, x} needs y
    gb2 = buchberger([X + Y, X], LEX)
    assert {g.leading_term(LEX)[1] for g in gb2} == {(1, 0), (0, 1)}
    # euclidean coefficients: {2x, 3x} keeps a generator with unit lc, and
    # x itself is a member since gcd(2, 3) = 1
    two_x = XR.scale(R.from_int(2))
    three_x = XR.scale(R.from_int(3))
    gbr = buchberger([two_x, three_x], LEX, ring_mode=True)
    assert any(
        g.leading_term(LEX)[1] == (1, 0) and R.is_okunit(g.leading_term(LEX)[0])
        for g in gbr
    )
    assert ideal_membership(XR, Ideal([two_x, three_x]), LEX, ring_mode=True)
    # non-unit leading coefficients with unit gcd: x reduces to zero through
    # the Bezout combination, so the pair is already a basis
    one_pi = R.element([Fraction(1), Fraction(1)])
    pair = [XR.scale(R.pi), XR.scale(one_pi)]
    assert is_groebner(pair, LEX, ring_mode=True)[0]
    assert ideal_membership(XR, Ideal(pair), LEX, ring_mode=True)


def test_is_groebner_witness():
    ok, wit = is_groebner([X, Y], LEX)
    assert ok and wit is None
    ok2, wit2 = is_groebner([X + Y, X], LEX)
    assert not ok2 and wit2 == Y
    ok3, _ = is_groebner([X * X + Y], LEX)
    assert ok3


def test_ideal_membership_examples():
    assert ideal_membership(X * X, Ideal([X]), LEX)
    assert not ideal_membership(Y, Ideal([X]), LEX)
    assert ideal_membership(Y, Ideal([X + Y, X]), LEX)


def test_saturate_examples():
    UP = VarUniverse(("x", "y", "pi"))
    x = MPoly.var(UP, F, "x")
    y = MPoly.var(UP, F, "y")
    pi = MPoly.var(UP, F, "pi")
    # sat(<pi x>, pi) = <x>
    S1 = saturate(Ideal([pi * x]), [pi])
    assert sorted(g.text() for g in S1.generators) == ["x"]
    # already saturated
    S2 = saturate(Ideal([x]), [pi])
    assert sorted(g.text() for g in S2.generators) == ["x"]
    # sat(<x + pi y, pi x>, pi) = <x, y>
    S3 = saturate(Ideal([x + pi * y, pi * x]), [pi])
    assert sorted(g.text() for g in S3.generators) == ["x", "y"]
    with pytest.raises(DomainError):
        saturate(Ideal([x]), [MPoly.const(UP, F, F.one)])


def test_eliminate_examples():
    # <x - y^2> eliminate x: nothing survives
    E1 = eliminate(Ideal([X - Y * Y]), ["x"])
    assert E1.is_zero()
    E2 = eliminate(Ideal([X - Y, X]), ["x"])
    assert sorted(g.text() for g in E2.generators) == ["y"]
    # <1 - pi*y> in L[pi][y], eliminating y: pi is not invertible
    UY = VarUniverse(("y", "pi"))
    yv = MPoly.var(UY, F, "y")
    piv = MPoly.var(UY, F, "pi")
    one = MPoly.const(UY, F, F.one)
    E3 = eliminate(Ideal([one - piv * yv]), ["y"])
    assert E3.is_zero()
    with pytest.raises(DomainError):
        eliminate(Ideal([X - Y]), ["x"], order=DegRevLex())


def test_radical_membership_examples():
    assert radical_membership(X, Ideal([X * X]))
    assert not radical_membership(Y, Ideal([X]))
    assert radical_membership(X + Y, Ideal([X * X, Y * Y]))
    with pytest.raises(DomainError):
        radical_membership(XR, Ideal([XR]))


def test_intersect_monomial_ideals_examples():
    assert [g.text() for g in intersect_monomial_ideals(
        [Ideal([X]), Ideal([Y])]
    ).generators] == ["x*y"]
    got = intersect_monomial_ideals([Ideal([X, Y]), Ideal([X])])
    assert [g.text() for g in got.generators] == ["x"]
    with pytest.raises(DomainError):
        intersect_monomial_ideals([Ideal([X + Y])])


def test_intersect_three_column_ideals_matches_brute_force():
    # d=3, n=1 instance: <x10,x20> ∩ <x10,x11> ∩ <x11,x21>
    g = grid_universe(3, 1, pi=False)

    def var(name):
        return MPoly.var(g, F, name)

    I1 = Ideal([var("x[1][0]"), var("x[2][0]")])
    I2 = Ideal([var("x[1][0]"), var("x[1][1]")])
    I3 = Ideal([var("x[1][1]"), var("x[2][1]")])
    got = sorted(p.text() for p in intersect_monomial_ideals([I1, I2, I3]).generators)

    # independent oracle: enumerate monomials of degree <= 2 and keep the
    # divisibility-minimal ones lying in all three ideals
    import itertools

    def in_ideal(mono, gens):
        return any(all(a <= b for a, b in zip(gm, mono)) for gm in gens)

    gens1 = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]
    gens2 = [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    gens3 = [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)]
    members = []
    for mono in itertools.product(range(3), repeat=6):
        if sum(mono) <= 2 and all(in_ideal(mono, gg) for gg in (gens1, gens2, gens3)):
            members.append(mono)
    minimal = [
        m
        for m in members
        if not any(
            all(a <= b for a, b in zip(o, m)) and o != m for o in members
        )
    ]
    expected = sorted(
        MPoly.term(g, F, F.one, m).text() for m in minimal
    )
    assert got == expected == sorted(
        ["x[1][0]*x[1][1]", "x[1][0]*x[2][1]", "x[2][0]*x[1][1]"]
    )


def test_hilbert_function_examples():
    # I = <x> in k[x, y], single block: one standard monomial per degree
    hf = hilbert_function(Ideal([X]), [[0, 1]], (3,))
    assert hf == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    # zero ideal: t+1 monomials in degree t
    hf0 = hilbert_function(Ideal((), U, F), [[0, 1]], (3,))
    assert hf0 == {(0,): 1, (1,): 2, (2,): 3, (3,): 4}
    # bidegree (1,1) count for <x10 x11> at d=2, n=1
    g = grid_universe(2, 1, pi=False)
    I = Ideal([MPoly.var(g, F, "x[1][0]") * MPoly.var(g, F, "x[1][1]")])
    hf2 = hilbert_function(I, g.grid_indices(), (1, 1))
    assert hf2[(1, 1)] == 3
    with pytest.raises(DomainError):
        hilbert_function(Ideal([X + MPoly.const(U, F, F.one)]), [[0, 1]], (1,))


def test_groebner_over_q_content_normalized():
    UQ = VarUniverse(("x", "y"))
    xq = MPoly.var(UQ, QQ, "x")
    yq = MPoly.var(UQ, QQ, "y")
    gb = buchberger([xq.scale(Fraction(2)) + yq.scale(Fraction(4)), yq.scale(Fraction(3))], LEX)
    assert sorted(g.text(LEX) for g in gb) == ["x", "y"]


def test_parse_poly_in_tests_helper():
    f = parse_poly("x^2 + 3*y", U, F)
    assert f == X * X + Y.scale(F.from_int(3))


def test_groebner_basis_record_and_verify():
    from mustafin.groebner import groebner_basis_of

    I = Ideal([X + Y, X])
    gb = groebner_basis_of(I, LEX)
    ok, wit = gb.verify()
    assert ok and wit is None
    assert gb.domain == F and not gb.ring_mode
    # a cached basis regenerates the ideal: every generator reduces to zero
    for g in I.generators:
        assert not normal_form(g, list(gb.elements), LEX)


# ---------------------------------------------------------------------------
# the field-mode kernel against textbook division


def textbook_division(f, basis, order):
    """Slow reference: rewrite the largest remaining term by the first basis
    element whose leading monomial divides it, else move it to the
    remainder; plain MPoly arithmetic throughout."""
    uni, dom = f.universe, f.domain
    work, remainder, steps = f, MPoly.zero(uni, dom), []
    while work:
        lc, lm = work.leading_term(order)
        for j, g in enumerate(basis):
            glc, glm = g.leading_term(order)
            if all(a <= b for a, b in zip(glm, lm)):
                q = tuple(b - a for a, b in zip(glm, lm))
                c = dom.div(lc, glc)
                work = work - g * MPoly.term(uni, dom, c, q)
                steps.append(ReductionStep((j,), (c,), (q,)))
                break
        else:
            t = MPoly.term(uni, dom, lc, lm)
            remainder, work = remainder + t, work - t
            steps.append(ReductionStep((), (), (lm,)))
    return remainder, steps


U3 = VarUniverse(("x", "y", "pi"))
F7 = GF(7)
KERNEL_ORDERS = [
    DegRevLex(),
    Block((((0,), DegRevLex()), ((1, 2), DegRevLex())), name="elim-x"),
    WeightedPiOrder((2, 1, 1), 2),
]
terms3 = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 6)), max_size=6
)
polys3 = terms3.map(lambda items: MPoly(U3, F7, dict(items)))


@given(
    st.sampled_from(KERNEL_ORDERS),
    polys3,
    st.lists(polys3.filter(bool), min_size=1, max_size=4),
)
@settings(max_examples=120, deadline=None)
def test_normal_form_matches_textbook_division(order, f, basis):
    nf, trace = normal_form(f, basis, order, want_trace=True)
    expected, steps = textbook_division(f, basis, order)
    assert nf == expected
    assert trace.steps == steps
    assert normal_form(f, basis, order) == expected
    replayed, _leads = trace.replay(f, basis, order)
    assert replayed == expected


class SquaredDegRevLex(TermOrder):
    """Degrevlex through a nested key, which the kernel has to flatten."""

    def key(self, mono):
        return (sum(mono) ** 2, tuple(-e for e in reversed(mono)))


def test_order_with_a_nested_key_is_flattened():
    x, y, pi = (MPoly.var(U3, F7, v) for v in ("x", "y", "pi"))
    gens = [x * x - y * pi, x * y - pi * pi, y * y * y - x]
    order = SquaredDegRevLex()
    assert buchberger(gens, order) == buchberger(gens, DegRevLex())
    f = x * x * y + y * y * pi + x
    assert normal_form(f, gens, order) == normal_form(f, gens, DegRevLex())


def test_packing_fields_of_one_and_two_bytes():
    narrow, wide = _Packing(2), _Packing(2, 2)
    assert (narrow.bound, wide.bound) == (127, 32767)
    with pytest.raises(DomainError):
        narrow.pack((128, 0))
    with pytest.raises(DomainError):
        wide.pack((0, 32768))
    for pk in (narrow, wide):
        a, b = pk.pack((5, 100)), pk.pack((90, 7))
        assert pk.unpack(a + b) == (95, 107)
        assert pk.unpack(pk.lcm(a, b)) == (90, 100)
        assert pk.degree(a) == 105
    a, b = wide.pack((300, 2)), wide.pack((9, 4000))
    assert wide.unpack(wide.lcm(a, b)) == (300, 4000)

    def divides(pk, a, b):
        d = b - a
        return d >= 0 and not d & pk.guard

    assert divides(wide, wide.pack((9, 2)), a) and not divides(wide, a, wide.pack((9, 2)))
    assert not divides(wide, b, a) and not divides(wide, a, b)


def test_overflow_inside_a_reduction_reruns_wider():
    top = MPoly.term(U, F, F.one, (127, 0))
    y_first = Lex(perm=(1, 0))
    # y x^127 is rewritten through y -> x into x^128, past one-byte fields:
    # the kernel refuses the monomial instead of carrying into y
    red = _Reducers(y_first, U, F, _Packing(2), [Y - X])
    with pytest.raises(DomainError):
        red.reduce(red.pack_poly(top * Y))
    # the public entry points run again with wider fields
    assert normal_form(top * Y, [Y - X], y_first) == top * X
    assert normal_form(top * X, [Y], LEX) == top * X
    assert buchberger([top * Y, Y - X], y_first) == [top * X, Y - X]


def scaled(f, k):
    return MPoly(f.universe, f.domain, {tuple(k * e for e in m): c for m, c in f.terms.items()})


def without_lcm(log):
    return [re.sub(r"lcm \(.*?\)", "", line) for line in log]


# k = 30 keeps the inputs in one-byte fields and overflows them midway
# through the run; k = 50 overflows them when the inputs are packed
@pytest.mark.parametrize("k", [30, 50])
@pytest.mark.parametrize("order", KERNEL_ORDERS + [WeightedPiOrder((1, 1, 1), 2)])
def test_exponents_past_one_byte_give_the_scaled_run(order, k):
    """Raising every variable to the k-th power keeps each order and maps
    every step of a run to a step of the scaled run, so with exponents past
    one-byte fields the kernel must give the scaled basis, trace and normal
    form."""
    x, y, pi = (MPoly.var(U3, F7, v) for v in ("x", "y", "pi"))
    gens = [x * x - y * pi, x * y - pi * pi, y * y * y - x * pi * pi]
    sat = 2 if isinstance(order, WeightedPiOrder) and order.weights == (1, 1, 1) else None
    log, big_log = [], []
    gb = buchberger(gens, order, sat_var=sat, trace_log=log)
    big = buchberger([scaled(g, k) for g in gens], order, sat_var=sat, trace_log=big_log)
    assert big == [scaled(g, k) for g in gb]
    assert without_lcm(big_log) == without_lcm(log)
    assert is_groebner(big, order) == (True, None)
    assert interreduce(big, order) == big
    f = scaled(x * x * y * pi + y * y * pi + x * x * x, k)
    nf, trace = normal_form(f, big, order, want_trace=True)
    expected, steps = textbook_division(f, big, order)
    assert nf == expected and trace.steps == steps
    assert minimalize_monomials([(0, 400, 1), (200, 0, 0), (0, 400, 2)]) == [
        (200, 0, 0),
        (0, 400, 1),
    ]


monos4 = st.tuples(*[st.integers(0, 3)] * 4)


@given(st.lists(monos4, max_size=25))
@settings(max_examples=150, deadline=None)
def test_minimalize_monomials_matches_naive_filter(monos):
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    distinct = set(monos)
    naive = [
        m
        for m in sorted(distinct, key=lambda m: (sum(m), m))
        if not any(o != m and divides(o, m) for o in distinct)
    ]
    assert minimalize_monomials(monos) == naive


def test_buchberger_cap_message_keeps_subsecond_caps():
    gens = [X * X + Y, X * Y + X, Y * Y * Y + X]
    with pytest.raises(ResourceCapExceeded, match=r"exceeded 1e-06s"):
        buchberger(gens, DegRevLex(), cap_seconds=1e-6)
