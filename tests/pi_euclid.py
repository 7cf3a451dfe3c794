"""The Euclidean algorithm on L[pi] (``PiRing``) for the test oracles.

The package works over the valuation ring L[pi]_(pi) and needs neither
gcds nor exact-divisibility tests in L[pi]; the Euclidean basis test and
the S- and G-combinations of ``tests/test_groebner.py`` do."""

from mustafin.coeffs import DomainError


def divides(R, f, g) -> bool:
    """True iff f divides g exactly in R."""
    if not f:
        return not g
    return not R.divmod(g, f)[1]


def extended_gcd(R, f, g):
    """Monic gcd d of f and g in R plus (u, v) with u*f + v*g = d."""
    if not f and not g:
        raise DomainError("gcd(0, 0) undefined")
    r0, s0, t0 = f, R.one, R.zero
    r1, s1, t1 = g, R.zero, R.one
    while r1:
        q, r = R.divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, R.sub(s0, R.mul(q, s1))
        t0, t1 = t1, R.sub(t0, R.mul(q, t1))
    lc_inv = R.from_base(R.base.inv(r0[-1]))
    return R.mul(lc_inv, r0), (R.mul(lc_inv, s0), R.mul(lc_inv, t0))
