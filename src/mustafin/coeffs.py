"""Exact coefficient domains.

Three domains cover every computation in this package:

* ``Rationals`` -- arbitrary-precision rationals (``fractions.Fraction``).
* ``PrimeField(p)`` -- integers mod a prime, the fast backend for randomized
  trials (default modulus 32003).
* ``PiRing(base)`` -- univariate polynomials in the uniformiser ``pi`` over
  one of the two fields above, standing for elements of the valuation ring
  L[pi]_(pi): pi^v times a unit part, by which the basis test multiplies
  instead of dividing, so no power series are needed.

Elements are plain Python values (``Fraction``, ``int``, tuple of base
elements); the domain objects carry the arithmetic.  Everything is immutable
and safe to share across threads.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache


class DomainError(ValueError):
    """Arithmetic request that the domain cannot satisfy (division by zero,
    valuation of zero, non-prime modulus, ...)."""


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for 64-bit inputs
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers; elements are ``Fraction``."""

    is_field = True
    characteristic = 0
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DomainError("division by zero in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DomainError("division by zero in Q")
        return a / b

    def from_int(self, n: int):
        return Fraction(n)

    def random(self, rng):
        # nonzero values are what samplers want most; keep 0 possible
        return Fraction(rng.randrange(-50, 51))

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        return Fraction(s)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """The field of integers mod p; elements are ints in ``range(p)``."""

    is_field = True

    def __init__(self, p: int):
        if not _is_probable_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise DomainError(f"division by zero in F{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def from_int(self, n: int):
        return n % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        return int(s) % self.p

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


QQ = Rationals()

#: default modulus for randomized trials: large enough that generic
#: conditions hold with overwhelming probability, small enough for fast
#: modular arithmetic.
DEFAULT_PRIME = 32003


def base_field(spec) -> Rationals | PrimeField:
    """Resolve a field tag: ``"Q"``, ``{"Fp": p}``, an int p, or a domain."""
    if isinstance(spec, (Rationals, PrimeField)):
        return spec
    if spec == "Q":
        return QQ
    if isinstance(spec, int):
        return GF(spec)
    if isinstance(spec, dict) and "Fp" in spec:
        return GF(int(spec["Fp"]))
    raise DomainError(f"unknown field spec {spec!r}")


# ---------------------------------------------------------------------------
# polynomials in pi

#: (bytes, typecode) of the unsigned array types, narrowest first: the slot
#: widths of the Kronecker product over a prime field
_SLOTS = sorted({(array(c).itemsize, c) for c in "BHILQ"})


def _kronecker_mul(f, g, p):
    """The product of two nonzero pi-polynomials over F_p in one integer
    product: each coefficient list is packed into an int, one slot per
    coefficient, with slots wide enough that no coefficient of the product
    carries into the next.  None when the slots would be wider than the
    widest array type."""
    need = (min(len(f), len(g)) * (p - 1) ** 2).bit_length()
    for size, code in _SLOTS:
        if 8 * size >= need:
            break
    else:
        return None
    a, b = array(code, f), array(code, g)
    if sys.byteorder == "big":
        a.byteswap()
        b.byteswap()
    prod = int.from_bytes(a.tobytes(), "little") * int.from_bytes(b.tobytes(), "little")
    out = array(code, prod.to_bytes(size * (len(f) + len(g) - 1), "little"))
    if sys.byteorder == "big":
        out.byteswap()
    # F_p has no zero divisors: the top coefficient stays nonzero
    return tuple([c % p for c in out])


class PiRing:
    """Polynomials in ``pi`` over a base field.

    Elements are tuples of base-field elements, index i = coefficient of
    pi^i, with trailing zeros stripped; the zero element is ``()``.
    """

    is_field = False
    name_prefix = "pi-poly over "

    def __init__(self, base):
        self.base = base
        # over F_p the arithmetic runs on bare ints instead of base calls
        self._p = base.p if isinstance(base, PrimeField) else None
        self.characteristic = base.characteristic
        self.name = f"{base.name}[pi]"
        self.zero = ()
        self.one = (base.one,)

    def _trim(self, coeffs) -> tuple:
        n = len(coeffs)
        if self._p is not None:
            while n and not coeffs[n - 1]:
                n -= 1
        else:
            bz = self.base.is_zero
            while n and bz(coeffs[n - 1]):
                n -= 1
        return tuple(coeffs[:n])

    def element(self, coeffs) -> tuple:
        """Canonical element from a sequence of base coefficients."""
        return self._trim([c for c in coeffs])

    def from_base(self, a) -> tuple:
        return () if self.base.is_zero(a) else (a,)

    def from_int(self, n: int) -> tuple:
        return self.from_base(self.base.from_int(n))

    @property
    def pi(self) -> tuple:
        return (self.base.zero, self.base.one)

    def is_zero(self, f) -> bool:
        return not f

    def add(self, f, g):
        if not f:
            return g
        if not g:
            return f
        base = self.base
        if len(f) < len(g):
            f, g = g, f
        out = list(f)
        p = self._p
        if p is not None:
            for i, c in enumerate(g):
                out[i] = (out[i] + c) % p
        else:
            for i, c in enumerate(g):
                out[i] = base.add(out[i], c)
        return self._trim(out)

    def neg(self, f):
        p = self._p
        if p is not None:
            return tuple([-c % p for c in f])
        neg = self.base.neg
        return tuple(neg(c) for c in f)

    def sub(self, f, g):
        p = self._p
        if p is None or not g:
            return self.add(f, self.neg(g))
        out = list(f)
        out.extend([0] * (len(g) - len(f)))
        for i, c in enumerate(g):
            out[i] = (out[i] - c) % p
        return self._trim(out)

    def mul(self, f, g):
        if not f or not g:
            return ()
        p = self._p
        if p is not None:
            if len(f) == 1 or len(g) == 1:  # a constant: one product per coefficient
                c, h = (f[0], g) if len(f) == 1 else (g[0], f)
                return tuple([c * b % p for b in h])
            out = _kronecker_mul(f, g, p)
            if out is not None:
                return out
        base = self.base
        out = [base.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if base.is_zero(a):
                continue
            for j, b in enumerate(g):
                out[i + j] = base.add(out[i + j], base.mul(a, b))
        return self._trim(out)

    def divmod(self, f, g):
        """Polynomial division: f = q*g + r with deg r < deg g."""
        if not g:
            raise DomainError("division by zero in " + self.name)
        base = self.base
        r = list(f)
        q = [base.zero] * max(0, len(f) - len(g) + 1)
        inv_lc = base.inv(g[-1])
        dg = len(g) - 1
        p = self._p
        if p is not None:
            for i in range(len(r) - 1, dg - 1, -1):
                if not r[i]:
                    continue
                c = r[i] * inv_lc % p
                q[i - dg] = c
                for j, b in enumerate(g, i - dg):
                    r[j] = (r[j] - c * b) % p
            return self._trim(q), self._trim(r)
        for i in range(len(r) - 1, dg - 1, -1):
            if base.is_zero(r[i]):
                continue
            c = base.mul(r[i], inv_lc)
            q[i - dg] = c
            for j, b in enumerate(g):
                r[i - dg + j] = base.sub(r[i - dg + j], base.mul(c, b))
        return self._trim(q), self._trim(r)

    def exact_div(self, g, f):
        q, r = self.divmod(g, f)
        if r:
            raise DomainError("inexact division in " + self.name)
        return q

    def pi_valuation(self, f) -> int:
        if not f:
            raise DomainError("valuation of zero undefined")
        bz = self.base.is_zero
        for i, c in enumerate(f):
            if not bz(c):
                return i
        raise DomainError("non-canonical element")  # pragma: no cover

    def reduce_mod_pi(self, f):
        return f[0] if f else self.base.zero

    def shift(self, f, k: int):
        """Multiply by pi^k (k >= 0)."""
        if not f:
            return f
        return (self.base.zero,) * k + tuple(f)

    def unshift(self, f, k: int):
        """Divide by pi^k; requires valuation >= k."""
        if not f:
            return f
        if self.pi_valuation(f) < k:
            raise DomainError("inexact division by pi^%d" % k)
        return tuple(f[k:])

    # text form: sum of "c*pi^k" with k ascending, e.g. "3 + 5*pi^2"
    def format(self, f) -> str:
        if not f:
            return "0"
        out = ""
        bz = self.base.is_zero
        for k, c in enumerate(f):
            if bz(c):
                continue
            cs = self.base.format(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if k == 0:
                piece = cs
            else:
                head = "" if cs == "1" else cs + "*"
                piece = f"{head}pi" + (f"^{k}" if k > 1 else "")
            if not out:
                out = ("-" if neg else "") + piece
            else:
                out += (" - " if neg else " + ") + piece
        return out

    _TERM = re.compile(
        r"^\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?(?:(?P<pi>pi)(?:\^(?P<exp>\d+))?)?\s*$"
    )

    def parse(self, text: str) -> tuple:
        text = text.strip()
        if text in ("0", ""):
            return ()
        coeffs: dict[int, object] = {}
        # normalise "a - b" into "+ -b" before splitting on +
        text = text.replace("-", "+-").replace("++", "+").lstrip("+")
        for chunk in text.split("+"):
            chunk = chunk.strip()
            neg = chunk.startswith("-")
            if neg:
                chunk = chunk[1:]
            m = self._TERM.match(chunk)
            if not m or (m.group("coeff") is None and m.group("pi") is None):
                raise DomainError(f"cannot parse pi-polynomial term {chunk!r}")
            c = m.group("coeff")
            coeff = self.base.parse(c) if c not in (None, "") else self.base.one
            if neg:
                coeff = self.base.neg(coeff)
            k = 0
            if m.group("pi"):
                k = int(m.group("exp") or 1)
            coeffs[k] = self.base.add(coeffs.get(k, self.base.zero), coeff)
        out = [self.base.zero] * (max(coeffs) + 1 if coeffs else 0)
        for k, c in coeffs.items():
            out[k] = c
        return self._trim(out)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PiRing) and other.base == self.base

    def __hash__(self):
        return hash(("PiRing", self.base))
