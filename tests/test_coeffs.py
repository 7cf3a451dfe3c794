import itertools
import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from pi_euclid import divides, extended_gcd

from mustafin.coeffs import (
    DomainError,
    GF,
    PiRing,
    QQ,
    base_field,
)

F = GF(32003)
RQ = PiRing(QQ)
RF = PiRing(F)


def q(*coeffs):
    return RQ.element([Fraction(c) for c in coeffs])


def test_prime_field_basics():
    assert F.add(32000, 5) == 2
    assert F.mul(F.inv(7), 7) == 1
    with pytest.raises(DomainError):
        GF(32004)
    with pytest.raises(DomainError):
        F.inv(0)


def test_base_field_resolution():
    assert base_field("Q") is QQ
    assert base_field({"Fp": 7}) == GF(7)
    assert base_field(11) == GF(11)
    with pytest.raises(DomainError):
        base_field("R")


def test_pi_valuation_examples():
    # pi^2 * (1 + pi) has valuation 2
    assert RQ.pi_valuation(RQ.mul(q(0, 0, 1), q(1, 1))) == 2
    # 3 + pi has valuation 0
    assert RQ.pi_valuation(q(3, 1)) == 0
    with pytest.raises(DomainError):
        RQ.pi_valuation(RQ.zero)


def test_reduce_mod_pi_examples():
    assert RQ.reduce_mod_pi(q(3, 5)) == Fraction(3)
    assert RQ.reduce_mod_pi(q(0, 1)) == 0
    assert RQ.reduce_mod_pi(RQ.zero) == 0


def is_okunit(R, f) -> bool:
    """Unit in the valuation ring: nonzero with pi-valuation 0."""
    return bool(f) and not R.base.is_zero(f[0])


def test_is_okunit_examples():
    assert is_okunit(RQ, q(1, 1))
    assert not is_okunit(RQ, RQ.mul(q(0, 1), q(1, 1)))
    assert not is_okunit(RQ, RQ.zero)


def test_extended_gcd_examples():
    # gcd(pi, 1 + pi) = 1
    d, (u, v) = extended_gcd(RQ, q(0, 1), q(1, 1))
    assert d == RQ.one
    assert RQ.add(RQ.mul(u, q(0, 1)), RQ.mul(v, q(1, 1))) == d
    # gcd(pi^2, pi^3) = pi^2
    d, _ = extended_gcd(RQ, q(0, 0, 1), q(0, 0, 0, 1))
    assert d == q(0, 0, 1)
    # gcd(f, 0) is the monic scalar multiple of f
    d, (u, v) = extended_gcd(RQ, q(0, 2), RQ.zero)
    assert d == q(0, 1) and u == q("1/2") and v == RQ.zero
    with pytest.raises(DomainError):
        extended_gcd(RQ, RQ.zero, RQ.zero)


small_q = st.fractions(
    min_value=-20, max_value=20, max_denominator=7
)
pipoly_q = st.lists(small_q, max_size=5).map(lambda cs: RQ.element(cs))
pipoly_f = st.lists(st.integers(0, 32002), max_size=5).map(lambda cs: RF.element(cs))


@given(pipoly_q, pipoly_q)
def test_valuation_additive(f, g):
    if f and g:
        prod = RQ.mul(f, g)
        assert RQ.pi_valuation(prod) == RQ.pi_valuation(f) + RQ.pi_valuation(g)


@given(pipoly_q, pipoly_q)
def test_reduction_is_a_homomorphism(f, g):
    red = RQ.reduce_mod_pi
    assert red(RQ.add(f, g)) == QQ.add(red(f), red(g))
    assert red(RQ.mul(f, g)) == QQ.mul(red(f), red(g))


@given(pipoly_f, pipoly_f)
def test_bezout_identity(f, g):
    if f or g:
        d, (u, v) = extended_gcd(RF, f, g)
        assert RF.add(RF.mul(u, f), RF.mul(v, g)) == d
        if f:
            assert divides(RF, d, f)
        if g:
            assert divides(RF, d, g)


@given(pipoly_q)
def test_serialization_roundtrip(f):
    assert RQ.parse(RQ.format(f)) == f


@given(pipoly_f)
def test_serialization_roundtrip_fp(f):
    assert RF.parse(RF.format(f)) == f


@given(pipoly_q, pipoly_q, pipoly_q)
def test_ring_axioms(f, g, h):
    assert RQ.add(f, g) == RQ.add(g, f)
    assert RQ.mul(f, g) == RQ.mul(g, f)
    assert RQ.mul(f, RQ.add(g, h)) == RQ.add(RQ.mul(f, g), RQ.mul(f, h))
    assert RQ.mul(RQ.mul(f, g), h) == RQ.mul(f, RQ.mul(g, h))


def test_divmod_and_exact_division():
    f = q(1, 2, 1)  # (1 + pi)^2
    g = q(1, 1)
    quo, rem = RQ.divmod(f, g)
    assert rem == RQ.zero and quo == g
    assert RQ.exact_div(f, g) == g
    with pytest.raises(DomainError):
        RQ.exact_div(q(1, 1), q(0, 1))


def test_shift_unshift():
    f = q(3, 5)
    assert RQ.shift(f, 2) == q(0, 0, 3, 5)
    assert RQ.unshift(RQ.shift(f, 2), 2) == f
    with pytest.raises(DomainError):
        RQ.unshift(q(1, 1), 1)


def schoolbook(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@st.composite
def prime_pipolys(draw):
    """Two pi-polynomials over F_p, p from 2 up past one 64-bit slot per
    coefficient, so the Kronecker product runs in every slot width and
    falls back to the schoolbook loop for the largest primes."""
    p = draw(st.sampled_from([2, 7, 251, 32003, 4294967291, 2**61 - 1]))
    ring = PiRing(GF(p))
    coeffs = st.lists(st.one_of(st.integers(0, p - 1), st.just(p - 1)), max_size=120)
    return ring, ring.element(draw(coeffs)), ring.element(draw(coeffs))


@given(prime_pipolys())
def test_prime_field_arithmetic_matches_the_schoolbook_loop(case):
    ring, f, g = case
    p = ring.base.p
    prod = ring.mul(f, g)
    assert prod == schoolbook(f, g, p)
    assert all(type(c) is int for c in prod)
    total = ring.add(f, g)
    assert total == ring.element([(a + b) % p for a, b in itertools.zip_longest(f, g, fillvalue=0)])
    assert ring.sub(total, g) == f
    assert ring.add(ring.neg(f), f) == ()
    if g:
        quo, rem = ring.divmod(f, g)
        assert len(rem) < len(g)
        assert ring.add(ring.mul(quo, g), rem) == f
        assert ring.exact_div(prod, g) == f
