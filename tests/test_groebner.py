import functools
import itertools
import math
import operator
import pytest
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import assume, example, given, reject, settings, strategies as st

import order_oracle
from pi_euclid import divides, extended_gcd

from mustafin.coeffs import DomainError, GF, PiRing, QQ
import re

from mustafin.groebner import (
    buchberger,
    eliminate,
    hilbert_function,
    interreduce,
    intersect_monomial_ideals,
    is_groebner,
    minimalize_monomials,
    normal_form,
    normal_forms,
    radical_membership,
    ResourceCapExceeded,
    saturate,
    _HilbertGate,
    _Reducers,
    _gm_update,
    compositions,
    field_normalize,
    in_monomial_ideal,
    weight_homogeneous,
)
from mustafin.polyring import (
    Block,
    DegRevLex,
    default_order,
    Ideal,
    Lex,
    MPoly,
    TermOrder,
    VarUniverse,
    WeightedOrder,
    WeightedPiOrder,
    grid_universe,
    mono_divides,
    multidegree,
    parse_poly,
    pi_content,
    _Packing,
    _widening,
)

F = GF(32003)
R = PiRing(QQ)
U = VarUniverse(("x", "y"))
X = MPoly.var(U, F, "x")
Y = MPoly.var(U, F, "y")
XR = MPoly.var(U, R, "x")
YR = MPoly.var(U, R, "y")
LEX = Lex()


@dataclass(frozen=True)
class ReductionStep:
    """One rewriting step: subtract sum_j c_j * quotient_j * f_{reducers[j]}.

    A step with no reducers moves the (irreducible) monomial ``quotients[0]``
    into the remainder.
    """

    reducers: tuple
    coeffs: tuple
    quotients: tuple


def traced_normal_form(f, G, order):
    """``normal_form`` of f modulo G with the kernel's steps, read through
    the observer of ``_Reducers.reduce``."""
    basis = [g for g in G if g]

    def run(pk):
        red = _Reducers(order, f.universe, f.domain, pk, basis)
        steps = []

        def record(lm, lc, work, step):
            if step:
                js, cs, qs = zip(*step)
                steps.append(ReductionStep(js, cs, tuple(map(pk.unpack, qs))))
            else:
                steps.append(ReductionStep((), (), (pk.unpack(lm),)))

        return red.remainder(red.reduce(red.pack_poly(f), observe=record)), steps

    return _widening(run, f.universe.nvars)


def replay(steps, f, basis, order):
    """Re-run the steps on plain MPoly arithmetic; returns (remainder,
    leading coefficients of the working polynomial after each step)."""
    work = f
    uni, dom = f.universe, f.domain
    remainder = MPoly.zero(uni, dom)
    leads = []
    for step in steps:
        if step.reducers:
            delta = MPoly.zero(uni, dom)
            for j, c, q in zip(step.reducers, step.coeffs, step.quotients):
                delta = delta + basis[j].mono_shift(q).scale(c)
            work = work - delta
        else:
            m = step.quotients[0]
            t = MPoly.term(uni, dom, work.terms[m], m)
            remainder = remainder + t
            work = work - t
        if work:
            leads.append(work.leading_term(order)[0])
    return remainder + work, leads


def ideal_membership(f, I, order):
    """f in I: its normal form against a basis of I vanishes."""
    if not f:
        return True
    if I.is_zero():
        return False
    return not normal_form(f, list(I.groebner_basis(order)), order)


def reduce_one_step(f: MPoly, E, order: TermOrder):
    """One leading-term rewriting step of f modulo E, or None: the textbook
    step on plain MPoly arithmetic.

    Over a field a single reducer with dividing leading monomial suffices;
    over the Euclidean domain L[pi] reducers are collected greedily in basis
    order until the gcd of their leading coefficients divides lc(f), and
    the cofactors come from the extended Euclidean algorithm.  The L[pi]
    step serves the Euclidean basis test ``textbook_is_groebner_ring``:
    every set it accepts, the valuation test of the kernel must accept.
    """
    if not f:
        return None
    dom = f.domain
    lc, lm = f.leading_term(order)
    divisors = [
        (j, g)
        for j, g in enumerate(E)
        if g and mono_divides(g.leading_term(order)[1], lm)
    ]
    if not divisors:
        return None
    if getattr(dom, "is_field", False):
        j, g = divisors[0]
        glc, glm = g.leading_term(order)
        q = tuple(a - b for a, b in zip(lm, glm))
        c = dom.div(lc, glc)
        h = f - g.mono_shift(q).scale(c)
        return h, ReductionStep((j,), (c,), (q,))
    used: list[tuple[int, MPoly]] = []
    combo: list = []  # running gcd written over the used leading coefficients
    g_run = None
    for j, g in divisors:
        glc = g.leading_term(order)[0]
        if g_run is None:
            d, (u, _) = extended_gcd(dom, glc, dom.zero)
            g_run, combo = d, [u]
        else:
            d, (u, v) = extended_gcd(dom, g_run, glc)
            combo = [dom.mul(u, c) for c in combo] + [v]
            g_run = d
        used.append((j, g))
        if divides(dom, g_run, lc):
            break
    else:
        return None
    scale = dom.exact_div(lc, g_run)
    h = f
    reducers, coeffs, quotients = [], [], []
    for (j, g), c0 in zip(used, combo):
        c = dom.mul(scale, c0)
        if dom.is_zero(c):
            continue
        q = tuple(a - b for a, b in zip(lm, g.leading_term(order)[1]))
        h = h - g.mono_shift(q).scale(c)
        reducers.append(j)
        coeffs.append(c)
        quotients.append(q)
    return h, ReductionStep(tuple(reducers), tuple(coeffs), tuple(quotients))


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
    nf, steps = traced_normal_form(f, basis, LEX)
    replay_nf, leads = replay(steps, f, basis, LEX)
    assert replay_nf == nf == normal_form(f, basis, LEX)


def test_buchberger_examples():
    # monomial generators are already a basis
    gb = buchberger([X, Y], LEX)
    assert {g.leading_term(LEX)[1] for g in gb} == {(1, 0), (0, 1)}
    # {x+y, x} needs y
    gb2 = buchberger([X + Y, X], LEX)
    assert {g.leading_term(LEX)[1] for g in gb2} == {(1, 0), (0, 1)}
    # Buchberger needs field coefficients; over L[pi]_(pi) only the basis
    # test runs
    with pytest.raises(DomainError, match="field coefficients"):
        buchberger([XR], LEX)
    # 1 + pi is a unit of L[pi]_(pi): x reduces to zero against (1 + pi) x,
    # the weak normal form multiplying it by 1 + pi, and with pi x the
    # pair is a standard basis
    one_pi = R.element([Fraction(1), Fraction(1)])
    pair = [XR.scale(R.pi), XR.scale(one_pi)]
    assert is_groebner(pair, LEX) == (True, None)
    assert not normal_form(XR, pair, LEX)
    # pi x is not a multiple of pi^2 x; the S-combination
    # y (pi^2 x + y) - pi^2 (x y + pi x) = y^2 - pi^3 x of the pair below
    # leaves y^2 + pi y, so the pair is no standard basis
    assert normal_form(XR.scale(R.pi), [XR.scale(R.mul(R.pi, R.pi))], LEX) == XR.scale(R.pi)
    ok, witness = is_groebner([XR.scale(R.mul(R.pi, R.pi)) + YR, XR.scale(R.pi) + XR * YR], LEX)
    assert not ok and witness


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


def flat_elimination(I, var_names):
    """The elimination of the three flat segments, by hand: a basis under
    degrevlex on the targets, then degrevlex on the rest but pi, then pi,
    less the elements that involve a target, relabelled into the rest."""
    uni = I.universe
    pos = tuple(uni.index(v) for v in var_names)
    rest = [i for i in range(uni.nvars) if i not in pos]
    nonpi = tuple(i for i in rest if uni.names[i] != "pi")
    segments = [(pos, DegRevLex()), (nonpi, DegRevLex())]
    if len(nonpi) < len(rest):
        segments.append(((uni.index("pi"),), DegRevLex()))
    gb = buchberger(list(I.generators), Block(tuple(segments)))
    small = VarUniverse(tuple(uni.names[i] for i in rest))
    return [g.relabel(small) for g in gb if all(m[p] == 0 for m in g.terms for p in pos)]


@st.composite
def elimination_cases(draw):
    """Up to three small polynomials over GF(7) on a shuffled universe of
    two or three variables, with pi or without, and a nonempty set of them
    to eliminate (pi among them or not)."""
    names = draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
    if draw(st.booleans()):
        names += ("pi",)
    uni = VarUniverse(tuple(draw(st.permutations(names))))
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * uni.nvars), st.integers(1, 6), min_size=1, max_size=3
    )
    gens = [MPoly(uni, F7, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    targets = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names) - 1, unique=True))
    return Ideal(gens, uni, F7), targets


@given(elimination_cases())
@settings(max_examples=80, deadline=None)
def test_eliminate_matches_the_flat_segment_oracle(case):
    I, targets = case
    E = eliminate(I, targets)
    assert E.universe.names == tuple(n for n in I.universe.names if n not in targets)
    assert list(E.generators) == flat_elimination(I, targets)


@given(elimination_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_elimination_route_saturate_is_eliminate_of_the_rabinowitsch_system(case, data):
    I, _ = case
    uni = I.universe
    a = data.draw(st.sampled_from(uni.names).map(lambda v: MPoly.var(uni, F7, v)))
    if data.draw(st.booleans()):
        a = a + MPoly.const(uni, F7, F7.one) * a * a
    S = saturate(I, [a])
    # the system built by hand: t[0] after the variables, then 1 - t a
    big = VarUniverse(uni.names + ("t[0]",))
    t = MPoly.var(big, F7, "t[0]")
    lifted = [g.relabel(big) for g in I.generators]
    lifted.append(MPoly.const(big, F7, F7.one) - t * a.relabel(big))
    assert S.generators == eliminate(Ideal(lifted, big, F7), ["t[0]"]).generators
    # the basis cached under the default order is the reduced one
    order = default_order(uni)
    assert list(S.groebner_basis(order)) == buchberger(list(S.generators), order)


def test_radical_membership_examples():
    assert radical_membership(X, Ideal([X * X]))
    assert not radical_membership(Y, Ideal([X]))
    assert radical_membership(X + Y, Ideal([X * X, Y * Y]))
    with pytest.raises(DomainError):
        radical_membership(XR, Ideal([XR]))


def slow_engine(monkeypatch, seconds, honest=True):
    """Make every ``buchberger`` call take ``seconds`` more; when ``honest``,
    a call whose cap is shorter sleeps through it and raises.  Returns the
    caps it saw."""
    import time

    from mustafin import groebner

    real, caps = groebner.buchberger, []

    def slow(*args, cap_seconds=None, **kwargs):
        caps.append(cap_seconds)
        if honest and cap_seconds is not None and cap_seconds < seconds:
            time.sleep(max(cap_seconds, 0))
            raise ResourceCapExceeded(f"buchberger exceeded {cap_seconds:g}s")
        time.sleep(seconds)
        return real(*args, cap_seconds=cap_seconds, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", slow)
    return caps


def test_radical_membership_cap_covers_the_basis_of_the_ideal(monkeypatch):
    caps = slow_engine(monkeypatch, 0.05)
    # the basis of I takes 0.05 s of the 0.08; the extension gets the rest
    with pytest.raises(ResourceCapExceeded) as info:
        radical_membership(X + Y, Ideal([X * X, Y * Y]), cap_seconds=0.08)
    assert info.value.phase == ""
    assert caps[0] == 0.08 and len(caps) == 2 and caps[1] <= 0.03
    caps.clear()
    assert radical_membership(X, Ideal([X * X]), cap_seconds=1.0)
    assert len(caps) == 2 and caps[1] < caps[0] == 1.0


def test_radical_membership_stops_when_the_basis_overran_its_cap(monkeypatch):
    caps = slow_engine(monkeypatch, 0.05, honest=False)
    with pytest.raises(ResourceCapExceeded) as info:
        radical_membership(X, Ideal([X * Y, Y * Y]), cap_seconds=0.03)
    assert info.value.phase == "" and caps == [0.03]


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
    I = Ideal([X + Y, X])
    gb = list(I.groebner_basis(LEX))
    ok, wit = is_groebner(gb, LEX)
    assert ok and wit is None
    assert all(g.domain == F for g in gb)
    # a cached basis regenerates the ideal: every generator reduces to zero
    for g in I.generators:
        assert not normal_form(g, gb, LEX)


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
    nf, trace = traced_normal_form(f, basis, order)
    expected, steps = textbook_division(f, basis, order)
    assert nf == expected
    assert trace == steps
    assert normal_form(f, basis, order) == expected
    replayed, _leads = replay(trace, f, basis, order)
    assert replayed == expected
    # the batch entry point reduces against one table: same remainders
    g = basis[0] * f + basis[-1]
    assert normal_forms([f, g, f], basis, order) == [expected, normal_form(g, basis, order), expected]


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
    assert normal_forms([X, top * Y], [Y - X], y_first) == [X, top * X]
    assert normal_forms([], [Y - X], y_first) == []
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
    nf, trace = traced_normal_form(f, big, order)
    expected, steps = textbook_division(f, big, order)
    assert nf == expected and trace == steps
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


def test_cap_message_names_the_budget_and_the_basis_size(monkeypatch):
    gens = [X * X + Y, X * Y + X, Y * Y * Y + X]
    # 2 pairs pass Gebauer-Moeller.  The cap is also checked before each of
    # the 3 input reductions: a clock that advances 3e-7 s per reading trips
    # the 1e-6 s cap at the first pair, after the inputs
    from types import SimpleNamespace

    from mustafin import groebner

    ticks = itertools.count()
    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: 3e-7 * next(ticks)))
    with pytest.raises(
        ResourceCapExceeded,
        match=r"^buchberger exceeded 1e-06s \(3 basis elements, 2 pairs pending\)$",
    ):
        buchberger(gens, DegRevLex(), cap_seconds=1e-6)


def test_field_buchberger_checks_its_cap_before_each_input_reduction(monkeypatch):
    calls = []
    real = _Reducers.reduce

    def counted(self, work, **kw):
        calls.append(len(work))
        return real(self, work, **kw)

    monkeypatch.setattr(_Reducers, "reduce", counted)
    gens = [X * X + Y, X * Y + X, Y * Y * Y + X]
    with pytest.raises(ResourceCapExceeded, match=r"\(0 basis elements, 0 pairs pending\)$"):
        buchberger(gens, DegRevLex(), cap_seconds=0)
    # a known prefix is in the table before the first input reduction
    with pytest.raises(ResourceCapExceeded, match=r"\(2 basis elements, 0 pairs pending\)$"):
        buchberger([X, Y, X * Y + X], DegRevLex(), gb_prefix=2, cap_seconds=0)
    # the pruned saturation path on 9 minors
    I, weights = column_minors(F7, 3, 2, 1, [[0, 1, 2]] * 3)
    pi = MPoly.var(I.universe, F7, "pi")
    with pytest.raises(ResourceCapExceeded, match=r"\(0 basis elements"):
        saturate(I, [pi], pi_fast_weights=weights, cap_seconds=0,
                 hilbert=(I.universe.grid_indices(), diagonal_target(3)))
    assert calls == []


# ---------------------------------------------------------------------------
# the valuation mode of the packed kernel against plain MPoly loops, and the
# Euclidean basis test over L[pi] as a weaker oracle


def textbook_nf_ring(f, basis, order):
    """The Euclidean normal form over L[pi]: apply ``reduce_one_step`` while
    it rewrites the leading term, else move that term to the remainder;
    plain MPoly arithmetic throughout."""
    uni, dom = f.universe, f.domain
    work, remainder = f, MPoly.zero(uni, dom)
    while work:
        step = reduce_one_step(work, basis, order)
        if step is None:
            lc, lm = work.leading_term(order)
            t = MPoly.term(uni, dom, lc, lm)
            remainder, work = remainder + t, work - t
        else:
            work = step[0]
    return remainder


def textbook_combinations(gi, gj, order):
    """The S-combination and, unless one leading coefficient divides the
    other, the G-combination of two elements over a Euclidean domain."""
    uni, dom = gi.universe, gi.domain
    (ci, mi), (cj, mj) = gi.leading_term(order), gj.leading_term(order)
    l = tuple(max(a, b) for a, b in zip(mi, mj))
    qi = tuple(a - b for a, b in zip(l, mi))
    qj = tuple(a - b for a, b in zip(l, mj))
    d, (u, v) = extended_gcd(dom, ci, cj)
    s = gi * MPoly.term(uni, dom, dom.exact_div(cj, d), qi) - gj * MPoly.term(
        uni, dom, dom.exact_div(ci, d), qj
    )
    if divides(dom, ci, cj) or divides(dom, cj, ci):
        return [s]
    return [s, gi * MPoly.term(uni, dom, u, qi) + gj * MPoly.term(uni, dom, v, qj)]


def textbook_is_groebner_ring(G, order):
    """The Euclidean basis test over L[pi]: every S- and G-combination of
    every pair reduces to zero."""
    for j in range(len(G)):
        for i in range(j):
            for cand in textbook_combinations(G[i], G[j], order):
                if textbook_nf_ring(cand, G, order):
                    return False, cand
    return True, None


def valuation_step(f, E, order):
    """One weak-normal-form step of f over L[pi]_(pi), or None: the element
    of E of least leading-coefficient valuation v (the first of those)
    whose leading monomial divides lm(f), if v <= v(lc f).  Returns
    (u f - (lc f / pi^v) x^q g, u), u the unit part of lc g."""
    dom = f.domain
    lc, lm = f.leading_term(order)
    best = None
    for g in E:
        glc, glm = g.leading_term(order)
        if mono_divides(glm, lm) and (best is None or dom.pi_valuation(glc) < best[0]):
            best = (dom.pi_valuation(glc), glc, glm, g)
    if best is None or best[0] > dom.pi_valuation(lc):
        return None
    v, glc, glm, g = best
    u = dom.unshift(glc, v)
    q = tuple(a - b for a, b in zip(lm, glm))
    return f.scale(u) - g.mono_shift(q).scale(dom.unshift(lc, v)), u


def textbook_nf_valuation(f, basis, order):
    """The weak normal form over L[pi]_(pi) on plain MPoly arithmetic:
    ``valuation_step`` while it applies, else the leading term moves to the
    remainder; a step's unit multiplies the remainder too."""
    uni, dom = f.universe, f.domain
    work, remainder = f, MPoly.zero(uni, dom)
    while work:
        step = valuation_step(work, basis, order)
        if step is None:
            lc, lm = work.leading_term(order)
            t = MPoly.term(uni, dom, lc, lm)
            remainder, work = remainder + t, work - t
        else:
            work, u = step
            remainder = remainder.scale(u)
    return remainder


def valuation_s_poly(gi, gj, order):
    """pi^(v - v_i) u_j x^(l - m_i) g_i - pi^(v - v_j) u_i x^(l - m_j) g_j,
    v the larger valuation, u the unit parts of the leading coefficients."""
    uni, dom = gi.universe, gi.domain
    (ci, mi), (cj, mj) = gi.leading_term(order), gj.leading_term(order)
    vi, vj = dom.pi_valuation(ci), dom.pi_valuation(cj)
    v = max(vi, vj)
    l = tuple(max(a, b) for a, b in zip(mi, mj))
    qi = tuple(a - b for a, b in zip(l, mi))
    qj = tuple(a - b for a, b in zip(l, mj))
    ui, uj = dom.unshift(ci, vi), dom.unshift(cj, vj)
    return gi * MPoly.term(uni, dom, dom.shift(uj, v - vi), qi) - gj * MPoly.term(
        uni, dom, dom.shift(ui, v - vj), qj
    )


def textbook_is_standard_basis(G, order):
    """The all-pairs valuation test: the S-polynomial of every pair has
    weak normal form zero."""
    for j in range(len(G)):
        for i in range(j):
            s = valuation_s_poly(G[i], G[j], order)
            if textbook_nf_valuation(s, G, order):
                return False, s
    return True, None


def textbook_standard_basis(gens, order, limit=6):
    """Buchberger's loop over L[pi]_(pi) on plain MPoly arithmetic, every
    pair in turn; None once the set would pass ``limit`` elements."""
    G = [g for g in gens if g]
    queue = [(i, j) for j in range(len(G)) for i in range(j)]
    while queue:
        i, j = queue.pop(0)
        r = textbook_nf_valuation(valuation_s_poly(G[i], G[j], order), G, order)
        if r:
            if len(G) == limit:
                return None
            G.append(r)
            queue.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return G


def assert_is_groebner_matches_the_oracle(G, order):
    """``is_groebner`` tests only the pairs that survive its criteria, so a
    False witness may come from another pair than the oracle's: it must be
    the S-combination of two elements, with a nonzero weak normal form."""
    ok, witness = is_groebner(G, order)
    assert ok == textbook_is_standard_basis(G, order)[0]
    if ok:
        assert witness is None
        return
    G = [g for g in G if g]
    s_combinations = [
        valuation_s_poly(G[i], G[j], order) for j in range(len(G)) for i in range(j)
    ]
    assert witness in s_combinations
    assert textbook_nf_valuation(witness, G, order)


UR = VarUniverse(("x", "y", "z"))
R7 = PiRing(F7)
RING_ORDERS = [
    DegRevLex(),
    Lex(),
    Block((((0,), DegRevLex()), ((1, 2), DegRevLex())), name="elim-x"),
]
pi_coeffs = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(R7.element).filter(bool)


@st.composite
def ring_case(draw):
    """A polynomial and a basis over PiRing(F7), every exponent times a
    factor k: with k = 30 the inputs fit one-byte fields and a product can
    leave them, with k = 50 the inputs overflow them when packed."""
    k = draw(st.sampled_from([1, 1, 30, 50]))
    mono = st.tuples(*[st.integers(0, 2)] * 3).map(lambda m: tuple(k * e for e in m))
    poly = st.dictionaries(mono, pi_coeffs, max_size=4).map(lambda t: MPoly(UR, R7, t))
    return draw(poly), draw(st.lists(poly.filter(bool), min_size=1, max_size=4))


@given(st.sampled_from(RING_ORDERS), ring_case())
@settings(max_examples=150, deadline=None)
def test_valuation_kernel_matches_the_textbook_loop(order, case):
    f, basis = case
    expected = textbook_nf_valuation(f, basis, order)
    assert normal_form(f, basis, order) == expected
    # the batch entry point reduces against one table: same remainders
    g = basis[0] * f + basis[-1]
    assert normal_forms([f, g, f], basis, order) == [
        expected, textbook_nf_valuation(g, basis, order), expected
    ]
    assert_is_groebner_matches_the_oracle(basis, order)


def test_ring_table_takes_in_elements_appended_after_a_reduction():
    # divisors are cached per monomial: x*y is irreducible by pi*x alone,
    # not once x + y, of lower valuation, is in
    xr, yr = (MPoly.var(U, R, v) for v in ("x", "y"))
    f = xr * yr
    red = _Reducers(LEX, U, R, _Packing(2), [xr.scale(R.pi)])
    assert red.to_poly(red.reduce(red.pack_poly(f))) == f
    red.append(xr + yr)
    expected = textbook_nf_valuation(f, [xr.scale(R.pi), xr + yr], LEX)
    assert expected == -(yr * yr)
    assert red.to_poly(red.reduce(red.pack_poly(f))) == expected


@given(st.lists(polys3.filter(bool), min_size=1, max_size=6), polys3, st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_field_table_takes_in_elements_appended_after_a_reduction(basis, f, k):
    # a monomial that no element divided is rechecked against the elements
    # appended since: reduce against the first k, append the rest, reduce again
    order = DegRevLex()
    red = _Reducers(order, U3, F7, _Packing(3), basis[:k])
    red.reduce(red.pack_poly(f))
    for g in basis[k:]:
        red.append(g)
    assert red.to_poly(red.reduce(red.pack_poly(f))) == textbook_division(f, basis, order)[0]


def test_ring_mode_overflow_of_one_byte_fields_reruns_wider():
    # y x^127 against {pi y, (1 + pi)(y - x)}: the element of valuation 0
    # rewrites y, multiplying the work by 1 + pi, and makes x^128, past
    # one-byte fields
    xr, yr = (MPoly.var(U, R, v) for v in ("x", "y"))
    one_pi = R.element([Fraction(1), Fraction(1)])
    basis = [yr.scale(R.pi), (yr - xr).scale(one_pi)]
    y_first = Lex(perm=(1, 0))
    f = MPoly.term(U, R, R.one, (127, 1))
    red = _Reducers(y_first, U, R, _Packing(2), basis)
    with pytest.raises(DomainError):
        red.reduce(red.pack_poly(f))
    expected = textbook_nf_valuation(f, basis, y_first)
    assert normal_form(f, basis, y_first) == expected == MPoly.term(U, R, one_pi, (128, 0))
    assert_is_groebner_matches_the_oracle(basis, y_first)
    # a leading-coefficient valuation past the bound of one-byte fields
    # reruns wider too: the S-combination of pi^130 y and pi^131 y + x is -x
    deep = R.shift(R.one, 130)
    G = [yr.scale(deep), yr.scale(R.mul(deep, R.pi)) + xr]
    assert is_groebner(G, y_first) == (False, -xr)
    assert_is_groebner_matches_the_oracle(G, y_first)


# units, powers of pi, and elements sharing a factor with pi or with 1 + pi
CRITERIA_COEFFS = [
    R7.element(c) for c in ([1], [3], [0, 1], [0, 2], [0, 0, 1], [1, 1], [0, 1, 1], [2, 5])
]
UNITS7 = [R7.from_int(k) for k in range(1, 7)] + [R7.element([1, 1]), R7.element([3, 0, 2])]


@st.composite
def criteria_case(draw):
    """A set for ``is_groebner`` over PiRing(F7): raw generators, or their
    standard basis from the textbook loop, with one element dropped, or
    with one element scaled by pi.  Some sets also get an element with the
    leading monomial of another and an associate leading coefficient."""
    coeff = st.sampled_from(CRITERIA_COEFFS)
    # sparse monomials, so that leading monomials are often coprime
    mono = st.tuples(*[st.sampled_from([0, 0, 1, 2])] * 3)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(lambda t: MPoly(UR, R7, t))
    order = draw(st.sampled_from(RING_ORDERS))
    kind = draw(st.sampled_from(["raw", "raw", "basis", "dropped", "scaled"]))
    G = draw(st.lists(poly, min_size=2, max_size=4 if kind == "raw" else 3))
    if kind != "raw":
        G = textbook_standard_basis(G, order)
        if G is None:
            reject()
        if kind == "dropped" and len(G) > 1:
            del G[draw(st.integers(0, len(G) - 1))]
        elif kind == "scaled":
            k = draw(st.integers(0, len(G) - 1))
            G[k] = G[k].scale(R7.pi)
    if draw(st.booleans()):
        # an associate leading term: a unit multiple of an element plus a
        # polynomial below its leading monomial
        g = G[draw(st.integers(0, len(G) - 1))]
        lm = g.leading_term(order)[1]
        unit = draw(st.sampled_from(UNITS7))
        okey = functools.partial(order_oracle.key, order)
        below = {m: c for m, c in draw(poly).terms.items() if okey(m) < okey(lm)}
        G = G + [g.scale(unit) + MPoly(UR, R7, below)]
    return order, G


def ur_polys(dom, *texts):
    return [parse_poly(t, UR, dom) for t in texts]


@given(criteria_case())
@example((DegRevLex(), ur_polys(R7, "pi*x + 1", "pi*y + 1")))  # coprime monomials, both v = 1
@example((DegRevLex(), ur_polys(R7, "x + pi", "pi*y + 1")))  # coprime monomials, one v = 0
@example((Lex(), ur_polys(R7, "pi^2*x^2 + 3*x*z + pi^2", "(pi + pi^2)*x*z", "2 + 5*pi")))
@settings(max_examples=200, deadline=None)
def test_ring_mode_criteria_match_the_all_pairs_oracle(case):
    """The Gebauer-Moeller valuation test agrees with the all-pairs loop,
    and accepts every set that the Euclidean test over L[pi] accepts: a
    Groebner basis over L[pi] is a standard basis over L[pi]_(pi)."""
    order, G = case
    assert_is_groebner_matches_the_oracle(G, order)
    if textbook_is_groebner_ring(G, order)[0]:
        assert is_groebner(G, order)[0]


def test_associate_coefficient_lcms_compare_equal():
    # the leading coefficients 2 pi, 6 pi and (4 + pi) pi are associates in
    # L[pi]_(pi): the pairs (0, 1), (0, 2) and (1, 2) have the same
    # coefficient lcm pi, and the criteria must still test this non-basis
    # as the all-pairs loop does
    x, y, z = (MPoly.var(UR, R7, v) for v in UR.names)
    c = R7.element
    G = [(x * x * z).scale(c([0, 2])), (x * x * y * y * z).scale(c([0, 6])) + (x * y * z * z).scale(c([3])),
         (x * x * z).scale(c([0, 4, 1]))]
    assert textbook_is_standard_basis(G, LEX)[0] is False
    assert_is_groebner_matches_the_oracle(G, LEX)


def test_criteria_reduce_fewer_pairs_on_the_specialized_minors_basis(monkeypatch):
    # the basis over L[pi] that ``check_specialization`` tests for the seed-1
    # sample of the symbolic d=3 n=1 minors: 6 elements, 15 pairs
    from mustafin import specialize
    from mustafin.varieties import LatticeConfig, minors_ideal

    minors = minors_ideal(LatticeConfig(3, 1, (1, 2), F, "symbolic"))
    pi = MPoly.var(minors.universe, F, "pi")
    obs = specialize.obstruction_polynomials(list(minors.generators), pi)
    sample = specialize.generic_sample(1, F, (3, 1), obs)
    seen = []

    def record(G, order, **kw):
        seen.append((G, order))
        return is_groebner(G, order, **kw)

    monkeypatch.setattr(specialize, "is_groebner", record)
    assert specialize.check_specialization(
        list(minors.generators), pi, sample.assignment, obstructions=obs
    ).ok
    (G, order), = seen
    assert len(G) == 6
    reduced = []
    reduce = _Reducers.reduce

    def counting(self, work, **kw):
        reduced.append(1)
        return reduce(self, work, **kw)

    monkeypatch.setattr(_Reducers, "reduce", counting)
    assert is_groebner(G, order) == (True, None)
    assert 0 < len(reduced) < 15


def textbook_hilbert_function(I, blocks, box, order):
    """The tuple-divisibility count per multidegree, kept as a reference."""
    lms = [g.leading_term(order)[1] for g in I.groebner_basis(order)] if not I.is_zero() else []
    table = {}
    for mdeg in itertools.product(*[range(b + 1) for b in box]):
        count = 0
        per_block = [list(compositions(dg, len(blk))) for blk, dg in zip(blocks, mdeg)]
        for combo in itertools.product(*per_block):
            mono = [0] * I.universe.nvars
            for blk, exps in zip(blocks, combo):
                for p, e in zip(blk, exps):
                    mono[p] = e
            if not any(all(a <= b for a, b in zip(lm, mono)) for lm in lms):
                count += 1
        table[mdeg] = count
    return table


U6 = VarUniverse(tuple("abcdef"))


HILBERT_BLOCKS = [
    [[0, 1], [2, 3]],
    [[0, 1], [2, 3], [4, 5]],
    [[0], [1, 2], [3, 4, 5]],
    [[0, 1, 2], [3, 4]],  # f outside every block
    [[5, 0, 3, 2]],  # b and e outside
    [[1, 4], [], [0, 2]],  # an empty block; d and f outside
]


@st.composite
def hilbert_cases(draw):
    """Blocks over six variables, up to three of them, some leaving
    variables outside; a box with sides from 0; a monomial ideal with
    non-squarefree generators and pure powers, sometimes the unit or the
    zero ideal, or a multihomogeneous ideal of binomials, whose leads come
    from a basis."""
    blocks = draw(st.sampled_from(HILBERT_BLOCKS))
    box = draw(st.tuples(*[st.sampled_from([3, 4, 2, 1, 0])] * len(blocks)))
    # supports of two or three variables, mostly in blocks, keep many
    # generators inside the box and make the recursion pivot
    inside = [p for blk in blocks for p in blk]
    var = st.sampled_from(inside * 3 + list(range(6)))
    sparse = st.dictionaries(var, st.integers(1, 2), min_size=2, max_size=3).map(
        lambda d: tuple(d.get(i, 0) for i in range(6))
    )
    power = st.tuples(st.integers(0, 5), st.integers(1, 4)).map(
        lambda pe: tuple(pe[1] if i == pe[0] else 0 for i in range(6))
    )
    monos = draw(st.lists(st.one_of(sparse, sparse, power), min_size=3, max_size=8))
    if draw(st.integers(0, 3)):  # three cases in four are monomial
        if draw(st.integers(0, 7)) == 0:
            monos.append((0,) * 6)
        return Ideal([MPoly.term(U6, F, F.one, m) for m in monos], U6, F), blocks, box
    # a second term of the same multidegree: the block exponents rotated
    # within each block, the others drawn afresh
    gens = []
    for m in monos[:3]:
        other = list(draw(sparse))
        for blk in blocks:
            for p, q in zip(blk, blk[1:] + blk[:1]):
                other[q] = m[p]
        gens.append(MPoly.term(U6, F, F.one, m) + MPoly.term(U6, F, F.from_int(3), tuple(other)))
    return Ideal(gens, U6, F), blocks, box


@given(hilbert_cases())
@settings(max_examples=150, deadline=None)
@example((Ideal((), U6, F), [[0, 1], [2], [3, 4]], (2, 0, 3)))
@example((Ideal([MPoly.const(U6, F, F.one)]), [[0, 1]], (2,)))
def test_hilbert_function_matches_tuple_divisibility(case):
    I, blocks, box = case
    assert hilbert_function(I, blocks, box) == textbook_hilbert_function(
        I, blocks, box, DegRevLex()
    )


def test_hilbert_function_pivots_on_the_least_exponent():
    # I = <d^2, c*d>: d lies in both generators.  The pivot d^1 gives
    # I + <d> = <d> and I : d = <d, c>; a pivot d^2 would give I + <d^2> = I
    # and recurse forever
    uni = VarUniverse(("a", "b", "c", "d"))
    I = Ideal([MPoly.term(uni, F, F.one, m) for m in [(0, 0, 0, 2), (0, 0, 1, 1)]])
    for blocks, box in (([[0, 1], [2, 3]], (3, 3)), ([[2, 3]], (4,)), ([[3], [2]], (3, 3))):
        assert hilbert_function(I, blocks, box) == textbook_hilbert_function(
            I, blocks, box, DegRevLex()
        )


def test_hilbert_function_of_monomials_computes_no_basis(monkeypatch):
    uni = VarUniverse(("a", "b", "c", "d"))
    I = Ideal([MPoly.term(uni, F, F.one, m) for m in [(2, 1, 0, 0), (0, 1, 1, 1), (0, 0, 3, 0)]])
    blocks, box = [[0, 1], [2, 3]], (3, 3)
    expected = textbook_hilbert_function(I, blocks, box, DegRevLex())

    def no_basis(*args, **kwargs):
        raise AssertionError("a monomial ideal needs no Groebner basis")

    monkeypatch.setattr(Ideal, "groebner_basis", no_basis)
    # a fresh ideal: the oracle left a cached basis on I
    assert hilbert_function(Ideal(I.generators), blocks, box) == expected


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_hilbert_function_on_the_criterion_1_fibres(n, seed):
    # the d=3 quick trials of criterion 1, on a box one wider than criterion 7's
    from mustafin import acceptance, varieties

    cfg = varieties.random_config(3, n, (1, 2), acceptance.FIELD, seed=seed)
    fibre = varieties.special_fibre(cfg)
    blocks, order = fibre.universe.grid_indices(), varieties.fibre_weight_order(cfg)
    box = (3,) * (n + 1)
    assert hilbert_function(fibre, blocks, box, order=order) == textbook_hilbert_function(
        fibre, blocks, box, order
    )


def test_hilbert_function_past_one_byte_fields_and_overlapping_blocks():
    I = Ideal([MPoly.term(U, F, F.one, (129, 1)), MPoly.term(U, F, F.one, (0, 3))])
    hf = hilbert_function(I, [[0, 1]], (131,))
    assert hf == textbook_hilbert_function(I, [[0, 1]], (131,), DegRevLex())
    assert (hf[(129,)], hf[(130,)], hf[(131,)]) == (3, 2, 1)
    with pytest.raises(DomainError):
        hilbert_function(I, [[0, 1], [1]], (1, 1))


# ---------------------------------------------------------------------------
# Hilbert-driven pair pruning on the saturation fast path


def diagonal_target(d):
    """Hilbert function of the diagonal P^{d-1} in (P^{d-1})^{n+1}."""
    return lambda a: math.comb(sum(a) + d - 1, d - 1)


def column_minors(field, d, n, seed, exps):
    """The 2x2 minors of the d x (n+1) matrix whose column l is g_l x_l,
    g_l = M_l diag(pi^exps[l][0], ..., pi^exps[l][d-1]) with M_l the
    invertible matrices of ``random_config``, and the weights that make
    them homogeneous (pi weighs 1, x[i][l] weighs top - exps[l][i-1])."""
    from mustafin.varieties import random_config

    uni = grid_universe(d, n, pi=True)
    pi = MPoly.var(uni, field, "pi")
    mats = random_config(d, n, tuple(range(1, d)), field, seed).entries
    cols = []
    for l in range(n + 1):
        xs = [MPoly.var(uni, field, f"x[{i + 1}][{l}]") * pi ** exps[l][i] for i in range(d)]
        col = []
        for r in range(d):
            f = MPoly.zero(uni, field)
            for i in range(d):
                if mats[l][r][i]:
                    f = f + xs[i].scale(mats[l][r][i][0])
            col.append(f)
        cols.append(col)
    gens = [
        cols[a][r] * cols[b][s] - cols[a][s] * cols[b][r]
        for a, b in itertools.combinations(range(n + 1), 2)
        for r, s in itertools.combinations(range(d), 2)
    ]
    top = 1 + max(max(e) for e in exps)
    weights = [0] * uni.nvars
    weights[uni.index("pi")] = 1
    for l in range(n + 1):
        for i in range(d):
            weights[uni.index(f"x[{i + 1}][{l}]")] = top - exps[l][i]
    return Ideal(gens, uni, field), tuple(weights)


@st.composite
def pi_rungs(draw):
    field = draw(st.sampled_from([GF(2), GF(7), QQ]))
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # a lattice configuration: the same increasing exponents in every column
        n_vec = sorted(draw(st.sets(st.integers(1, 7), min_size=d - 1, max_size=d - 1)))
        exps = [[0] + n_vec] * (n + 1)
    else:
        # pi-dependent entries: every column scaled by its own pi powers
        exps = [[draw(st.integers(0, 3)) for _ in range(d)] for _ in range(n + 1)]
    return field, d, n, draw(st.integers(0, 40)), exps


@given(pi_rungs())
@settings(max_examples=30, deadline=None)
def test_hilbert_pruning_keeps_the_saturated_basis(rung):
    # the unpruned fast path is the oracle: same reduced basis, term for
    # term, and every pair it popped is popped again (pruned or reduced)
    field, d, n, seed, exps = rung
    I, weights = column_minors(field, d, n, seed, exps)
    pi = MPoly.var(I.universe, field, "pi")
    plain_log, pruned_log = [], []
    plain = saturate(I, [pi], pi_fast_weights=weights, trace_log=plain_log)
    pruned = saturate(
        I, [pi], pi_fast_weights=weights, trace_log=pruned_log,
        hilbert=(I.universe.grid_indices(), diagonal_target(d)),
    )
    worder = WeightedPiOrder(weights, I.universe.index("pi"))
    assert worder in pruned._gb_cache
    assert [g.text(worder) for g in pruned.generators] == [g.text(worder) for g in plain.generators]
    assert len(pruned_log) == len(plain_log)
    assert not any(line.endswith("-> pruned") for line in plain_log)


@given(
    pi_rungs(),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6)),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=25, deadline=None)
def test_saturate_extends_a_known_saturation(rung, extras):
    # sat(sat(J) + I) = sat(J + I): the known saturation's fast-path basis as
    # a prefix gives the from-scratch basis, on both routes
    field, d, n, seed, exps = rung
    assume(d <= 3 and n <= 2)
    J, weights = column_minors(field, d, n, seed, exps)
    uni = J.universe
    pi = MPoly.var(uni, field, "pi")
    grid = [p for blk in uni.grid_indices() for p in blk]
    gens = []
    for a, b, c1, c2 in extras:
        # a binomial of two grid monomials, pi powers evening out the weights
        m1, m2 = [0] * uni.nvars, [0] * uni.nvars
        m1[grid[a % len(grid)]] += 1
        m1[grid[b % len(grid)]] += 1
        m2[grid[(a + b) % len(grid)]] += 2
        w1, w2 = (sum(map(operator.mul, weights, m)) for m in (m1, m2))
        m1[uni.index("pi")] += max(w2 - w1, 0)
        m2[uni.index("pi")] += max(w1 - w2, 0)
        gens.append(MPoly(uni, field, {tuple(m1): field.from_int(c1)})
                    + MPoly(uni, field, {tuple(m2): field.from_int(c2)}))
    I = Ideal(gens, uni, field)
    both = Ideal(list(J.generators) + gens, uni, field)
    known = saturate(J, [pi], pi_fast_weights=weights)
    worder = WeightedPiOrder(weights, uni.index("pi"))
    extended = saturate(I, [pi], pi_fast_weights=weights, saturated=known)
    scratch = saturate(both, [pi], pi_fast_weights=weights)
    assert worder in extended._gb_cache
    assert [g.text(worder) for g in extended.generators] == [g.text(worder) for g in scratch.generators]
    assert saturate(Ideal([], uni, field), [pi], saturated=known) is known


def test_elimination_route_saturate_takes_the_known_saturation_as_generators():
    J, weights = column_minors(GF(7), 2, 1, 3, [[0, 1], [1, 0]])
    uni = J.universe
    pi = MPoly.var(uni, GF(7), "pi")
    x10, x21 = MPoly.var(uni, GF(7), "x[1][0]"), MPoly.var(uni, GF(7), "x[2][1]")
    I = Ideal([x10 * x10 + pi * x21 * x10], uni, GF(7))  # not weight-homogeneous
    known = saturate(J, [pi], pi_fast_weights=weights)
    both = Ideal(list(J.generators) + list(I.generators), uni, GF(7))
    extended = saturate(I, [pi], pi_fast_weights=weights, saturated=known)
    assert extended.generators == saturate(both, [pi]).generators
    assert default_order(uni) in extended._gb_cache


def test_hilbert_target_needs_every_other_variable_in_a_block():
    uni = grid_universe(2, 1, pi=True)
    I, weights = column_minors(F, 2, 1, 1, [[0, 1], [0, 1]])
    pi_pos = uni.index("pi")
    blocks = uni.grid_indices()
    worder = WeightedPiOrder(weights, pi_pos)
    gens = list(I.generators)
    target = diagonal_target(2)
    with pytest.raises(DomainError, match="every variable but sat_var"):
        buchberger(gens, worder, sat_var=pi_pos, hilbert=([blocks[0], blocks[1][:1]], target))
    # pi is outside the blocks, so it must be the saturating variable
    with pytest.raises(DomainError, match="every variable but sat_var"):
        buchberger(gens, worder, hilbert=(blocks, target))
    with pytest.raises(DomainError, match="disjoint"):
        buchberger(gens, worder, sat_var=pi_pos, hilbert=([blocks[0], blocks[0] + blocks[1]], target))
    with pytest.raises(DomainError, match="homogeneous per block"):
        buchberger(gens + [MPoly.var(uni, F, "x[1][0]") + MPoly.var(uni, F, "x[1][1]")],
                   worder, sat_var=pi_pos, hilbert=(blocks, target))
    assert buchberger(gens, worder, sat_var=pi_pos, hilbert=(blocks, target)) == buchberger(
        gens, worder, sat_var=pi_pos
    )


def test_hilbert_gate_past_one_byte_fields():
    # the lcm x^129*y^3 has degree 132: its monomials overflow one-byte
    # fields, and the widened run still prunes the pair
    I = Ideal([MPoly.term(U, F, F.one, (129, 1)) + MPoly.term(U, F, F.one, (128, 2)),
               MPoly.term(U, F, F.one, (0, 3))])
    order = DegRevLex()
    plain = buchberger(list(I.generators), order)

    def hf(a):
        return textbook_hilbert_function(Ideal(plain), [[0, 1]], a, order)[a]

    log = []
    pruned = buchberger(list(I.generators), order, trace_log=log, hilbert=([[0, 1]], hf))
    assert pruned == plain
    assert log and all(line.endswith("-> pruned") for line in log)


class StandardSetGate:
    """The Hilbert gate that kept the set of standard monomials of each
    multidegree and struck the multiples of every new leading monomial from
    it, kept as the oracle of ``_HilbertGate``, which counts the struck
    monomials instead."""

    def __init__(self, pk, nvars, blocks, target):
        from mustafin.groebner import _BoxMonomials
        from mustafin.polyring import _packing

        self.monos = _BoxMonomials(pk, nvars, blocks)
        self.target, self.multidegree = target, pk.block_degrees(blocks)
        top, width = pk.bound * max([len(blk) for blk in blocks], default=1), 1
        while (1 << (8 * width - 1)) - 1 < top:
            width *= 2
        self.mdeg = _packing(len(blocks), width)
        self.leads, self.live, self.done, self.cofactors, self.waiting = [], {}, set(), {}, {}

    def complete(self, lms, l):
        from mustafin import groebner

        multidegree, mdeg = self.multidegree, self.mdeg
        for lm in lms[len(self.leads):]:
            self.leads.append((lm, mdeg.pack(multidegree(lm))))
        a = multidegree(l)
        if a in self.done:
            return True
        entry = self.live.get(a)
        if entry is None:
            pops = self.waiting.get(a, 0) + 1
            if pops * groebner._PAIR_COST < self.monos.count(a):
                self.waiting[a] = pops
                return False
            entry = (set(self.monos.of(a)), 0)
        std, struck = entry
        cofactors, guard, pa = self.cofactors, mdeg.guard, mdeg.pack(a)
        for lm, b in self.leads[struck:]:
            c = pa - b
            if c >= 0 and not c & guard:
                ms = cofactors.get(c)
                if ms is None:
                    ms = cofactors[c] = self.monos.of(mdeg.unpack(c))
                std.difference_update([lm + m for m in ms])
        want = self.target(a)
        if len(std) < want:
            raise DomainError(
                f"multidegree {a} has {len(std)} standard monomials, "
                f"below its Hilbert target {want}"
            )
        if len(std) > want:
            self.live[a] = (std, len(self.leads))
            return False
        self.live.pop(a, None)
        self.done.add(a)
        return True


@st.composite
def gate_runs(draw):
    """Blocks over some of up to five variables (the rest outside every
    block), with an empty block among them; a target drawn per multidegree;
    a pair cost; and a run of steps, each appending a leading monomial or
    asking about the multidegree of a monomial."""
    nvars = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(nvars)))
    covered = draw(st.integers(1, nvars))
    cuts = sorted(draw(st.lists(st.integers(0, covered), max_size=3)))
    blocks = [list(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, covered])]
    blocks.insert(draw(st.integers(0, len(blocks))), [])
    salt = draw(st.integers(0, 10**6))
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    steps = draw(st.lists(st.tuples(st.booleans(), mono), min_size=1, max_size=30))
    return nvars, blocks, salt, draw(st.sampled_from([1, 3, 20, 4096])), steps


@given(gate_runs())
@settings(max_examples=300, deadline=None)
def test_hilbert_gate_matches_the_standard_set_oracle(run):
    import random

    from mustafin import groebner
    from mustafin.groebner import _BoxMonomials

    nvars, blocks, salt, cost, steps = run
    pk = _Packing(nvars)
    box = _BoxMonomials(pk, nvars, blocks)

    def target(a):
        # at most the multidegree's size; below, at or above the true count
        return random.Random(repr((salt, a))).randint(0, box.count(a))

    gate, oracle = _HilbertGate(pk, nvars, blocks, target), StandardSetGate(pk, nvars, blocks, target)

    def answer(g, lms, l):
        try:
            return g.complete(lms, l)
        except DomainError as exc:
            return str(exc)

    saved, groebner._PAIR_COST = groebner._PAIR_COST, cost
    try:
        lms = []
        for is_lead, m in steps:
            if is_lead:
                lms.append(pk.pack(m))
            else:
                l = pk.pack(m)
                assert answer(gate, lms, l) == answer(oracle, lms, l)
    finally:
        groebner._PAIR_COST = saved


# ---------------------------------------------------------------------------
# integer order keys on packed monomials


def sign(a, b):
    return (a > b) - (a < b)


@st.composite
def polyring_orders(draw, n, depth=2):
    """One of the five orders of ``polyring`` on n variables; a block order
    splits a shuffled list of the variables into up to four segments, any
    of them empty, one variable long or non-contiguous, each under an order
    drawn the same way (blocks nest at most ``depth`` deep)."""
    weights = st.lists(st.integers(0, 9), min_size=n, max_size=n).map(tuple)
    kinds = ["lex", "degrevlex", "weighted"] + ["wpi"] * (n > 0) + ["block"] * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "lex":
        return Lex(draw(st.one_of(st.none(), st.permutations(range(n)).map(tuple))))
    if kind == "degrevlex":
        return DegRevLex()
    if kind == "weighted":
        return WeightedOrder(draw(weights))
    if kind == "wpi":
        return WeightedPiOrder(draw(weights), draw(st.integers(0, n - 1)))
    shuffled = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=3)))
    bounds = [0, *cuts, n]
    segments = []
    for a, b in zip(bounds, bounds[1:]):
        idx = tuple(shuffled[a:b])
        segments.append((idx, draw(polyring_orders(len(idx), depth - 1))))
    return Block(tuple(segments))


@st.composite
def revlex_blocks(draw, n):
    """A block order on n >= 2 variables split into two to four non-empty
    segments, at least two of them degrevlex and the others drawn by
    ``polyring_orders``: the degrevlex leaves share one reversal of the
    fields and must each land in their own slot of the key."""
    shuffled = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3, unique=True)))
    bounds = [0, *cuts, n]
    parts = [tuple(shuffled[a:b]) for a, b in zip(bounds, bounds[1:])]
    revlex = draw(st.sets(st.sampled_from(range(len(parts))), min_size=2))
    return Block(tuple(
        (idx, DegRevLex() if k in revlex else draw(polyring_orders(len(idx), 1)))
        for k, idx in enumerate(parts)
    ))


@st.composite
def keyed_monomials(draw):
    n = draw(st.integers(0, 6))
    pk = _Packing(n, draw(st.sampled_from([1, 2])))
    exps = st.one_of(
        st.integers(0, 3), st.just(pk.bound), st.just(pk.bound - 1), st.integers(0, pk.bound)
    )
    monos = draw(st.lists(st.tuples(*[exps] * n), min_size=1, max_size=12))
    # small exponents tie often in every segment's degree, where the
    # reverse-lex parts decide
    monos += draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=8))
    orders = polyring_orders(n) if n < 2 else st.one_of(polyring_orders(n), revlex_blocks(n))
    return pk, draw(orders), monos


@given(keyed_monomials())
@settings(max_examples=300, deadline=None)
def test_packed_key_orders_monomials_as_the_tuple_key(case):
    pk, order, monos = case
    fn, bits = order.packed_key(pk)
    assert pk.order_key(order) is pk.order_key(order)  # compiled once per packing
    keys = [fn(pk.pack(m)) for m in monos]
    assert all(isinstance(k, int) and 0 <= k < 1 << bits for k in keys)
    assert [pk.order_key(order)(pk.pack(m)) for m in monos] == keys
    okey = functools.partial(order_oracle.key, order)
    for a, ka in zip(monos, keys):
        for b, kb in zip(monos, keys):
            assert sign(ka, kb) == sign(okey(a), okey(b))
    for m in monos:
        assert pk.degree(pk.pack(m)) == sum(m)


def specialization_blocks():
    """The nested blocks the specialization check runs, on 5 variables: the
    order of ``eliminate`` (elimination-route ``saturate``) over the pi-last
    default order, and the symbolic order with and without parameters and
    pi."""
    from mustafin.polyring import default_order
    from mustafin.specialize import _symbolic_order

    inner = default_order(VarUniverse(("x", "y", "z", "pi")))
    assert isinstance(inner, Block)
    orders = [Block((((4,), DegRevLex()), ((0, 1, 2, 3), inner)), name="elim")]
    for names, aux in (
        (("t[0]", "x", "A[1][1][0]", "A[2][1][0]", "pi"), "t[0]"),
        (("x", "y", "A[1][1][0]", "z", "pi"), None),
        (("x", "y", "z", "A[1][1][0]", "t[0]"), "t[0]"),
        (("t[0]", "x", "y", "z", "pi"), "t[0]"),
        (("x", "y", "z", "w", "t[0]"), "t[0]"),
    ):
        orders.append(_symbolic_order(VarUniverse(names), aux)[0])
    return orders


@pytest.mark.parametrize("width", [1, 2])
def test_specialization_blocks_sort_as_their_tuple_keys(width):
    pk = _Packing(5, width)
    monos = list(itertools.product([0, 1, 2, pk.bound], repeat=5))
    for order in specialization_blocks():
        fn = pk.order_key(order)
        okey = functools.partial(order_oracle.key, order)
        assert sorted(monos, key=lambda m: fn(pk.pack(m))) == sorted(monos, key=okey)


@st.composite
def nested_blocks(draw, positions, depth=3):
    """A block order on the universe positions ``positions``, nested up to
    ``depth`` deep, with its leaf segments flattened by hand: (block,
    [(universe positions, leaf order)] most significant first)."""
    shuffled = draw(st.permutations(positions))
    cuts = sorted(draw(st.lists(st.integers(0, len(shuffled)), min_size=1, max_size=3)))
    bounds = [0, *cuts, len(shuffled)]
    segments, leaves = [], []
    for a, b in zip(bounds, bounds[1:]):
        seg = tuple(shuffled[a:b])
        if depth > 0 and draw(st.booleans()):
            # the inner block numbers its positions within the segment
            inner, inner_leaves = draw(nested_blocks(tuple(range(len(seg))), depth - 1))
            segments.append((seg, inner))
            leaves.extend((tuple(seg[i] for i in idx), sub) for idx, sub in inner_leaves)
        else:
            # degrevlex leaves half the time: they share one reversal
            sub = draw(st.one_of(st.just(DegRevLex()), polyring_orders(len(seg), depth=0)))
            segments.append((seg, sub))
            leaves.append((seg, sub))
    return Block(tuple(segments)), leaves


@st.composite
def nested_and_flat(draw):
    n = draw(st.integers(0, 6))
    pk = _Packing(n, draw(st.sampled_from([1, 2])))
    nested, leaves = draw(nested_blocks(tuple(range(n))))
    exps = st.one_of(st.integers(0, 3), st.just(pk.bound), st.integers(0, pk.bound))
    monos = draw(st.lists(st.tuples(*[exps] * n), min_size=1, max_size=8))
    return pk, nested, Block(tuple(leaves)), monos


@given(nested_and_flat())
@settings(max_examples=300, deadline=None)
def test_a_nested_block_keys_as_its_flattened_form(case):
    pk, nested, flat, monos = case
    (fn, bits), (flat_fn, flat_bits) = nested.packed_key(pk), flat.packed_key(pk)
    assert bits == flat_bits
    keys = [fn(pk.pack(m)) for m in monos]
    assert keys == [flat_fn(pk.pack(m)) for m in monos]
    assert all(0 <= k < 1 << bits for k in keys)
    okey = functools.partial(order_oracle.key, nested)
    for a, ka in zip(monos, keys):
        assert okey(a) == order_oracle.key(flat, a)
        for b, kb in zip(monos, keys):
            assert sign(ka, kb) == sign(okey(a), okey(b))


@st.composite
def ordered_polys(draw):
    """(order, f): an order of ``polyring_orders`` or a nested block, and a
    polynomial with coefficient one whose exponents lie on both sides of
    the one-byte packing bound 127."""
    n = draw(st.integers(1, 5))
    order = draw(st.one_of(polyring_orders(n), nested_blocks(tuple(range(n))).map(lambda b: b[0])))
    exps = st.one_of(st.integers(0, 3), st.integers(125, 130), st.integers(0, 300))
    monos = draw(st.lists(st.tuples(*[exps] * n), min_size=1, max_size=8, unique=True))
    uni = VarUniverse(tuple(f"v{i}" for i in range(n)))
    return order, MPoly(uni, F, {m: F.one for m in monos})


@given(ordered_polys())
@settings(max_examples=300, deadline=None)
def test_leading_terms_and_printing_follow_the_tuple_key(case):
    order, f = case
    okey = functools.partial(order_oracle.key, order)
    assert f.leading_term(order) == (F.one, max(f.terms, key=okey))
    desc = sorted(f.terms, key=okey, reverse=True)
    assert f.text(order) == " + ".join(MPoly.term(f.universe, F, F.one, m).text() for m in desc)


def old_gm_update(red, pairs, t):
    """The Gebauer-Moeller update that recomputes every lcm, kept as the
    reference: the pairs kept, then the new pairs (i, t)."""
    lms, guard, lcm = red.lms, red.pk.guard, red.pk.lcm
    lm_t = lms[t]
    kept = []
    for (i, j) in pairs:
        l_ij = lcm(lms[i], lms[j])
        q = l_ij - lm_t
        if (
            q >= 0
            and not q & guard
            and l_ij != lcm(lms[i], lm_t)
            and l_ij != lcm(lms[j], lm_t)
        ):
            continue
        kept.append((i, j))
    cands = [(i, lcm(lms[i], lm_t)) for i in range(t)]
    # ascending in the order: red.key is negated, and a reversed sort is stable
    cands.sort(key=lambda kv: red.key(kv[1]), reverse=True)
    survivors = []
    seen_lcms = []
    for i, l in cands:
        for l2 in seen_lcms:
            q = l - l2
            if q > 0 and not q & guard:
                break
        else:
            survivors.append((i, l))
            seen_lcms.append(l)
    out_new = []
    used = set()
    for i, l in survivors:
        if l in used:
            continue
        used.add(l)
        if l == lms[i] + lm_t:  # coprime leading monomials
            continue
        out_new.append((i, t))
    return kept + out_new


@given(
    st.sampled_from(KERNEL_ORDERS),
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=25),
)
@settings(max_examples=150, deadline=None)
def test_gm_update_matches_the_recomputing_update(order, lms):
    red = _Reducers(order, U3, F7, _Packing(3))
    pairs, expected = {}, []
    for t, m in enumerate(lms):
        red.append(MPoly.term(U3, F7, 1, m))
        before = set(pairs)
        added = _gm_update(red, pairs, t)
        expected = old_gm_update(red, expected, t)
        assert set(pairs) == set(expected)
        assert {(i, j) for i, j, _ in added} == set(pairs) - before
        for (i, j), l in pairs.items():
            assert l == red.pk.lcm(red.lms[i], red.lms[j])
        assert all(pairs[(i, j)] == l for i, j, l in added)


@given(st.lists(st.tuples(*[st.integers(0, 32767)] * 6), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_gate_block_degrees_match_the_tuple_multidegree(monos):
    pk = _Packing(6, 2)
    blocks = [[4, 0], [], [1], [5, 2, 3]]
    gate = _HilbertGate(pk, 6, blocks, lambda a: 0)
    for m in monos:
        assert gate.multidegree(pk.pack(m)) == multidegree(pk.unpack(pk.pack(m)), blocks)


@given(
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=5),
    st.lists(polys3, max_size=4),
    st.sampled_from([1, 60]),
)
@settings(max_examples=100, deadline=None)
def test_in_monomial_ideal_matches_tuple_divisibility(monos, fs, k):
    # k = 60 pushes the products past one-byte fields
    monos = [tuple(k * e for e in m) for m in monos]
    fs = [scaled(f, k) for f in fs]
    expected = [all(any(mono_divides(g, t) for g in monos) for t in f.terms) for f in fs]
    assert in_monomial_ideal(fs, monos) == expected


@given(
    st.sampled_from(KERNEL_ORDERS), polys3.filter(bool), st.integers(1, 6), st.integers(0, 3)
)
@settings(max_examples=100, deadline=None)
def test_recorded_leading_terms_survive_scaling_and_content_division(order, f, c, k):
    # the kernel records a remainder's leading term; a nonzero multiple and
    # the quotient by its pi content must report the leading term they have
    def fresh(g):
        return MPoly(g.universe, g.domain, dict(g.terms)).leading_term(order)

    pi = MPoly.var(U3, F7, "pi")
    r = normal_form(f * pi ** k, [], order)
    assert r.leading_term(order) == fresh(r)
    e, q = pi_content(r)
    assert e >= k and pi ** e * q == r and pi_content(q)[0] == 0
    assert order in q._lt and q.leading_term(order) == fresh(q)
    assert q.scale(c).leading_term(order) == fresh(q.scale(c))


def test_is_groebner_checks_its_cap_before_each_reduction():
    x, y, z = (MPoly.var(UR, R7, v) for v in UR.names)
    G = [x * y + z, x * z + y]
    assert is_groebner(G, LEX, cap_seconds=60)[0] is False
    with pytest.raises(ResourceCapExceeded, match=r"is_groebner exceeded 0s \(0 of 1 pairs"):
        is_groebner(G, LEX, cap_seconds=0)


# ---------------------------------------------------------------------------
# interreduction: tails against one table, and on Buchberger's own table


def skip_interreduce(G, order):
    """The interreduction that reduced each whole minimal element against
    a table of the others, kept as the oracle: minimal elements by
    tuple-key leading monomials, sorted the same way."""
    okey = functools.partial(order_oracle.key, order)
    items = sorted([g for g in G if g], key=lambda g: okey(g.leading_term(order)[1]))
    if not items:
        return []
    minimal = []
    for g in items:
        lm = g.leading_term(order)[1]
        if not any(mono_divides(h.leading_term(order)[1], lm) for h in minimal):
            minimal.append(g)

    def run(pk):
        out = []
        for idx, g in enumerate(minimal):
            others = minimal[:idx] + minimal[idx + 1:]
            red = _Reducers(order, items[0].universe, items[0].domain, pk, others)
            r = red.reduce(red.pack_poly(g))
            if r:
                out.append(field_normalize(red.remainder(r), order))
        return out

    out = _widening(run, items[0].universe.nvars)
    out.sort(key=lambda g: okey(g.leading_term(order)[1]))
    return out


def term_lists(G):
    """Every element's terms in dict order, which printing follows."""
    return [list(g.terms.items()) for g in G]


qq_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def interreduce_inputs(draw):
    """A field, an order and up to six polynomials in x, y, pi; some share
    a leading term with another or are a multiple of one.  Exponents stay
    at most 2, which keeps a basis under the elimination order small."""
    dom = draw(st.sampled_from([F7, QQ]))
    coeff, size = (st.integers(1, 6), 4) if dom is F7 else (qq_coeffs, 3)
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * 3), coeff)
    polys = st.lists(term, min_size=1, max_size=4).map(lambda ts: MPoly(U3, dom, dict(ts)))
    G = draw(st.lists(polys, max_size=size))
    if G and draw(st.booleans()):
        G.append(G[0].scale(dom.one + dom.one) + draw(polys))
    if G and draw(st.booleans()):
        G.append(G[-1].scale(dom.one + dom.one + dom.one))
    return dom, draw(st.sampled_from(KERNEL_ORDERS)), G


@given(interreduce_inputs())
@settings(max_examples=150, deadline=None)
def test_interreduce_matches_the_skip_oracle(case):
    dom, order, G = case
    assert term_lists(interreduce(G, order)) == term_lists(skip_interreduce(G, order))
    gb = buchberger(G, order, reduced=False) if any(G) else []
    expected = skip_interreduce(gb, order)
    assert term_lists(interreduce(gb, order)) == term_lists(expected)
    # the run's own table gives the reduced basis of the oracle
    assert term_lists(buchberger(G, order)) == term_lists(expected)


def test_interreduce_keeps_the_first_of_equal_leading_terms():
    x, y, pi = (MPoly.var(U3, F7, v) for v in ("x", "y", "pi"))
    order = DegRevLex()
    G = [x * x + y, x * x + pi, x * x * y, y + pi]
    # x^2 + y is reduced by y + pi; x^2 + pi and x^2 y are not minimal
    assert interreduce(G, order) == [y + pi, x * x - pi]
    assert interreduce(G, order) == skip_interreduce(G, order)
    assert interreduce([], order) == [] and interreduce([MPoly.zero(U3, F7)], order) == []


@given(pi_rungs())
@settings(max_examples=25, deadline=None)
def test_buchberger_interreduces_on_its_table_on_the_pruned_fast_path(rung):
    field, d, n, seed, exps = rung
    I, weights = column_minors(field, d, n, seed, exps)
    assert all(weight_homogeneous(g, weights) for g in I.generators)  # the fast path's precondition
    pos = I.universe.index("pi")
    worder = WeightedPiOrder(weights, pos)
    kw = dict(sat_var=pos, hilbert=(I.universe.grid_indices(), diagonal_target(d)))
    gens = list(I.generators)
    unreduced = buchberger(gens, worder, reduced=False, **kw)
    expected = term_lists(skip_interreduce(unreduced, worder))
    assert term_lists(buchberger(gens, worder, **kw)) == expected
    assert term_lists(interreduce(unreduced, worder)) == expected


@given(interreduce_inputs(), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_buchberger_interreduces_on_its_table_after_a_known_prefix(case, k):
    dom, order, G = case
    G = [g for g in G if g]
    if not G:
        reject()
    prefix = buchberger(G[:k], order, reduced=False) if G[:k] else []
    rest = prefix + G[k:]
    reduced = buchberger(rest, order, gb_prefix=len(prefix))
    unreduced = buchberger(rest, order, gb_prefix=len(prefix), reduced=False)
    assert term_lists(reduced) == term_lists(interreduce(unreduced, order))
    assert term_lists(reduced) == term_lists(buchberger(G, order))


def assert_field_normalized(rows, order):
    """Each row is its own ``field_normalize``, term for term and in order,
    and its recorded leading term is the one a fresh search finds."""
    for g in rows:
        fresh = MPoly(g.universe, g.domain, dict(g.terms))
        assert g.leading_term(order) == fresh.leading_term(order)
        assert list(field_normalize(fresh, order).terms.items()) == list(g.terms.items())


@given(interreduce_inputs(), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_unreduced_rows_after_a_known_prefix_are_field_normalized(case, k):
    # the rows of a run leave the table as packed monic rows; the
    # ``reduced=False`` route must still return field-normalized elements
    dom, order, G = case
    G = [g for g in G if g]
    if not G:
        reject()
    prefix = buchberger(G[:k], order, reduced=False) if G[:k] else []
    rest = prefix + G[k:]
    rows = buchberger(rest, order, gb_prefix=len(prefix), reduced=False)
    assert_field_normalized(rows, order)
    assert term_lists(interreduce(rows, order)) == term_lists(
        buchberger(rest, order, gb_prefix=len(prefix))
    )


@given(pi_rungs())
@settings(max_examples=20, deadline=None)
def test_unreduced_rows_of_the_pruned_fast_path_are_field_normalized(rung):
    field, d, n, seed, exps = rung
    I, weights = column_minors(field, d, n, seed, exps)
    pos = I.universe.index("pi")
    worder = WeightedPiOrder(weights, pos)
    kw = dict(sat_var=pos, hilbert=(I.universe.grid_indices(), diagonal_target(d)))
    rows = buchberger(list(I.generators), worder, reduced=False, **kw)
    assert_field_normalized(rows, worder)
    # content division leaves no row divisible by pi, and no row reducible
    # by the rows before it: a remainder divided by pi^c needs no reduction
    assert all(pi_content(g)[0] == 0 for g in rows)
    for k, g in enumerate(rows):
        leads = [h.leading_term(worder)[1] for h in rows[:k]]
        assert not any(mono_divides(lm, m) for lm in leads for m in g.terms)
    assert term_lists(interreduce(rows, worder)) == term_lists(
        buchberger(list(I.generators), worder, **kw)
    )


# ---------------------------------------------------------------------------
# radical queries share one packed Rabinowitsch prefix per ideal


@st.composite
def radical_queries(draw):
    """Up to three binomials in x, y, pi over F7, and a few queries of one
    or two terms.  One query may be x^130 or y^130 times the first
    generator: it lies in the ideal, and its exponents overflow one-byte
    packing fields.  (Over Q, or with longer polynomials, the coefficients
    or the bases of random Rabinowitsch runs swell.)"""
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 6))
    polys = st.lists(term, min_size=1, max_size=2).map(lambda ts: MPoly(U3, F7, dict(ts)))
    G = draw(st.lists(polys, min_size=1, max_size=3))
    queries = draw(st.lists(polys, min_size=1, max_size=4))
    if draw(st.booleans()):
        wide = MPoly.var(U3, F7, draw(st.sampled_from(["x", "y"]))) ** 130 * G[0]
        queries.insert(draw(st.integers(0, len(queries))), wide)
    return G, queries


@given(radical_queries())
@settings(max_examples=40, deadline=None)
def test_radical_queries_on_one_ideal_do_not_see_each_other(case):
    G, queries = case
    fresh = [radical_membership(f, Ideal(G)) for f in queries]
    wide = [max(map(max, f.terms)) > 127 for f in queries]
    assert all(ok for ok, w in zip(fresh, wide) if w)  # a multiple of a generator
    forward, backward = Ideal(G), Ideal(G)
    assert [radical_membership(f, forward) for f in queries] == fresh
    assert [radical_membership(f, backward) for f in reversed(queries)] == fresh[::-1]
    for I in (forward, backward):
        if all(f.is_constant() for f in queries):  # answered off the basis
            assert not I._radical_prefix
            continue
        (lifted, _order, tables), = I._radical_prefix.values()
        # one table per packing width, each still the lifted basis alone
        assert sorted(tables) == ([1, 2] if any(wide) else [1])
        for table in tables.values():
            assert len(table.lms) == len(table.tails) == len(lifted)
            assert table._polys == lifted and not table._divisors


def test_a_constant_query_takes_the_basis_the_other_queries_take():
    x, pi = (MPoly.var(U3, F7, v) for v in ("x", "pi"))
    I = Ideal([x * x - pi, x * pi])
    one = MPoly.const(U3, F7, F7.one)
    assert not radical_membership(one, I) and radical_membership(x, I)
    assert list(I._gb_cache) == [default_order(U3)]
    assert radical_membership(one, Ideal([x * x - pi, x * pi, pi - one]))
