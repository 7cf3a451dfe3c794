"""Sparse multivariate polynomials over a pluggable coefficient domain.

Variables live in a ``VarUniverse``: an immutable, ordered list of names with
a stable name <-> position bijection.  Monomials are plain exponent tuples
over that universe; polynomials are dicts monomial -> nonzero coefficient.

Canonical variable names follow the grid convention: ``x[i][j]`` for row i,
column j, plus ``pi``, parameters ``A[i][j][l]``, scaling auxiliaries
``alpha[j]``, ambient coordinates ``y[l]`` and single fresh auxiliaries like
``y`` or ``t[k]`` introduced by saturation.  The printer and parser share one
grammar, so any printed polynomial round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coeffs import DomainError, PiRing


class UniverseError(ValueError):
    """Operation mixing incompatible variable universes."""


@dataclass(frozen=True)
class VarUniverse:
    """Ordered variable names with optional grid shape metadata."""

    names: tuple[str, ...]
    grid: tuple[int, int] | None = None  # (d, n): x[i][j], 1<=i<=d, 0<=j<=n

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise UniverseError("variable names must be unique")
        object.__setattr__(self, "_index", {v: k for k, v in enumerate(self.names)})

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UniverseError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def extend(self, new_names) -> "VarUniverse":
        return VarUniverse(self.names + tuple(new_names), self.grid)

    def grid_indices(self) -> list[list[int]]:
        """Column blocks of the grid: block j lists positions of x[.][j]."""
        if self.grid is None:
            raise UniverseError("universe has no grid shape")
        d, n = self.grid
        return [
            [self.index(f"x[{i}][{j}]") for i in range(1, d + 1)]
            for j in range(n + 1)
        ]


def grid_universe(d: int, n: int, *, pi: bool = True, extras_front=(), extras_back=()) -> VarUniverse:
    """Universe [front extras, column blocks of x[i][j], back extras, pi]."""
    names = list(extras_front)
    for j in range(n + 1):
        for i in range(1, d + 1):
            names.append(f"x[{i}][{j}]")
    names.extend(extras_back)
    if pi:
        names.append("pi")
    return VarUniverse(tuple(names), (d, n))


# ---------------------------------------------------------------------------
# monomial helpers (monomials are exponent tuples)


def mono_one(nvars: int) -> tuple:
    return (0,) * nvars


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise DomainError("inexact monomial division")
    return out


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def multidegree(mono: tuple, blocks) -> tuple:
    """Per-block total degree; additive under monomial multiplication."""
    return tuple(sum(mono[i] for i in blk) for blk in blocks)


# ---------------------------------------------------------------------------
# term orders


class TermOrder:
    """Total order on exponent tuples with 1 minimal and translation
    invariance.  Concrete orders supply ``key``; larger key = larger
    monomial.  The orders here return a flat tuple of ints of fixed length;
    the Groebner kernel flattens a nested key."""

    name = "order"

    def key(self, mono: tuple):  # pragma: no cover - abstract
        raise NotImplementedError

    def compare(self, m1: tuple, m2: tuple) -> int:
        if len(m1) != len(m2):
            raise UniverseError("monomials from different universes")
        k1, k2 = self.key(m1), self.key(m2)
        return (k1 > k2) - (k1 < k2)

    def max_mono(self, monos):
        return max(monos, key=self.key)

    def sorted_desc(self, monos):
        return sorted(monos, key=self.key, reverse=True)


@dataclass(frozen=True)
class Lex(TermOrder):
    """Lexicographic order; ``perm`` lists variable positions from most to
    least significant (default: universe order)."""

    perm: tuple[int, ...] | None = None
    name: str = "lex"

    def key(self, mono):
        if self.perm is None:
            return mono
        return tuple(mono[i] for i in self.perm)


@dataclass(frozen=True)
class DegRevLex(TermOrder):
    """Total degree, ties broken by reverse lexicographic comparison."""

    name: str = "degrevlex"

    def key(self, mono):
        return (sum(mono), *[-e for e in reversed(mono)])


@dataclass(frozen=True)
class Block(TermOrder):
    """Block order: compare segment by segment with per-segment suborders.

    ``segments`` is a tuple of (positions, suborder) pairs covering a subset
    of the universe; remaining variables form an implicit final degrevlex
    segment if ``rest`` is given.
    """

    segments: tuple[tuple[tuple[int, ...], TermOrder], ...]
    name: str = "block"

    def key(self, mono):
        # segment keys have fixed lengths, so concatenating them compares
        # segment by segment
        out: list = []
        for idx, sub in self.segments:
            out.extend(sub.key(tuple([mono[i] for i in idx])))
        return tuple(out)


def block_elim(universe: VarUniverse, front_vars, rest_order=None) -> Block:
    """Elimination order: ``front_vars`` (names) dominate everything else."""
    front = tuple(universe.index(v) for v in front_vars)
    rest = tuple(i for i in range(universe.nvars) if i not in set(front))
    return Block(
        (
            (front, DegRevLex()),
            (rest, rest_order or DegRevLex()),
        ),
        name=f"elim({','.join(front_vars)})",
    )


@dataclass(frozen=True)
class WeightedOrder(TermOrder):
    """Weight degree first, then total degree, then reverse lex."""

    weights: tuple[int, ...]
    name: str = "weighted"

    def key(self, mono):
        w = sum(a * b for a, b in zip(mono, self.weights))
        return (w, sum(mono), *[-e for e in reversed(mono)])


@dataclass(frozen=True)
class WeightedPiOrder(TermOrder):
    """Weight degree first, then fewer pi's win, then degrevlex on the rest.

    With weights w(pi) = 1 and w(x[i][j]) = n_{d-1} - n_{i-1} the minors of a
    lattice configuration are weight-homogeneous, and under this order the
    leading monomial of a weight-homogeneous polynomial carries its minimal
    pi power.  That is what makes saturation by pi a matter of dividing each
    basis element by its pi content.
    """

    weights: tuple[int, ...]
    pi_index: int
    name: str = "wpi"

    def key(self, mono):
        w = sum(a * b for a, b in zip(mono, self.weights))
        return (w, -mono[self.pi_index], sum(mono), *[-e for e in reversed(mono)])


def default_order(universe: VarUniverse) -> TermOrder:
    """Degrevlex, but with pi split into its own trailing block when present
    (pi then behaves like a coefficient, which keeps bases small)."""
    if "pi" not in universe:
        return DegRevLex()
    pi = universe.index("pi")
    rest = tuple(i for i in range(universe.nvars) if i != pi)
    return Block(((rest, DegRevLex()), ((pi,), DegRevLex())), name="grevlex-pi-last")


def order_eliminates(order: TermOrder, universe: VarUniverse, var_names) -> bool:
    """True iff a monomial involving one of ``var_names`` always exceeds any
    monomial avoiding all of them (checked structurally: the targets must
    fill a prefix of the order's blocks, or of the lex permutation)."""
    targets = {universe.index(v) for v in var_names}
    if not targets:
        return True
    if isinstance(order, Block):
        covered: set[int] = set()
        for idx, _sub in order.segments:
            block = set(idx)
            if covered >= targets:
                return True
            if not block <= targets:
                return False
            covered |= block
        return covered >= targets
    if isinstance(order, Lex):
        perm = order.perm or tuple(range(universe.nvars))
        return set(perm[: len(targets)]) == targets
    return False


# ---------------------------------------------------------------------------
# polynomials


class MPoly:
    """Immutable sparse polynomial: dict monomial -> nonzero coefficient."""

    __slots__ = ("universe", "domain", "terms", "_hash", "_lt")

    def __init__(self, universe: VarUniverse, domain, terms: dict, *, _clean=False):
        self.universe = universe
        self.domain = domain
        if _clean:
            self.terms = terms
        else:
            iz = domain.is_zero
            self.terms = {m: c for m, c in terms.items() if not iz(c)}
        self._hash = None
        self._lt = None

    # constructors -----------------------------------------------------
    @classmethod
    def zero(cls, universe, domain):
        return cls(universe, domain, {}, _clean=True)

    @classmethod
    def const(cls, universe, domain, c):
        if domain.is_zero(c):
            return cls.zero(universe, domain)
        return cls(universe, domain, {mono_one(universe.nvars): c}, _clean=True)

    @classmethod
    def var(cls, universe, domain, name, exp: int = 1):
        mono = [0] * universe.nvars
        mono[universe.index(name)] = exp
        return cls(universe, domain, {tuple(mono): domain.one}, _clean=True)

    @classmethod
    def term(cls, universe, domain, coeff, mono: tuple):
        if domain.is_zero(coeff):
            return cls.zero(universe, domain)
        return cls(universe, domain, {tuple(mono): coeff}, _clean=True)

    # predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and not any(next(iter(self.terms)))
        )

    def _check(self, other: "MPoly"):
        if self.universe.names != other.universe.names:
            raise UniverseError("universe mismatch")
        if self.domain != other.domain:
            raise DomainError("coefficient domain mismatch")

    # arithmetic ---------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        dom = self.domain
        out = dict(self.terms)
        add, iz = dom.add, dom.is_zero
        for m, c in other.terms.items():
            if m in out:
                s = add(out[m], c)
                if iz(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return MPoly(self.universe, dom, out, _clean=True)

    def __neg__(self):
        neg = self.domain.neg
        return MPoly(
            self.universe,
            self.domain,
            {m: neg(c) for m, c in self.terms.items()},
            _clean=True,
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        dom = self.domain
        mul, add, iz = dom.mul, dom.add, dom.is_zero
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                p = mul(c1, c2)
                if m in out:
                    s = add(out[m], p)
                    if iz(s):
                        del out[m]
                    else:
                        out[m] = s
                elif not iz(p):
                    out[m] = p
        return MPoly(self.universe, dom, out, _clean=True)

    def scale(self, c):
        dom = self.domain
        if dom.is_zero(c):
            return MPoly.zero(self.universe, dom)
        mul = dom.mul
        return MPoly(
            self.universe, dom, {m: mul(c, v) for m, v in self.terms.items()}, _clean=True
        )

    def mono_shift(self, mono: tuple):
        """Multiply by a bare monomial."""
        return MPoly(
            self.universe,
            self.domain,
            {mono_mul(m, mono): c for m, c in self.terms.items()},
            _clean=True,
        )

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative power")
        out = MPoly.const(self.universe, self.domain, self.domain.one)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # inspection ---------------------------------------------------------
    def leading_term(self, order: TermOrder):
        if not self.terms:
            raise DomainError("leading term of zero polynomial")
        cache = self._lt
        if cache is None:
            cache = {}
            self._lt = cache
        hit = cache.get(order)
        if hit is None:
            m = max(self.terms, key=order.key)
            hit = (self.terms[m], m)
            cache[order] = hit
        return hit

    def coeff_of(self, mono: tuple):
        return self.terms.get(tuple(mono), self.domain.zero)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, pos: int) -> int:
        if not self.terms:
            return -1
        return max(m[pos] for m in self.terms)

    def multidegrees(self, blocks) -> set:
        return {multidegree(m, blocks) for m in self.terms}

    def is_multihomogeneous(self, blocks) -> bool:
        return len(self.multidegrees(blocks)) <= 1

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(self.universe.names[i])
        return out

    # structure maps ------------------------------------------------------
    def map_coeffs(self, fn, new_domain=None):
        dom = new_domain or self.domain
        iz = dom.is_zero
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not iz(v):
                out[m] = v
        return MPoly(self.universe, dom, out, _clean=True)

    def relabel(self, new_universe: VarUniverse):
        """Reinterpret in a universe containing all variables in use."""
        mapping = []
        for name in self.universe.names:
            mapping.append(new_universe.index(name) if name in new_universe else None)
        out = {}
        for m, c in self.terms.items():
            nm = [0] * new_universe.nvars
            for i, e in enumerate(m):
                if e:
                    if mapping[i] is None:
                        raise UniverseError(
                            f"variable {self.universe.names[i]} missing from target"
                        )
                    nm[mapping[i]] = e
            out[tuple(nm)] = c
        return MPoly(new_universe, self.domain, out, _clean=True)

    def substitute(self, assignment: dict):
        """Image under the ring homomorphism sending named variables to
        polynomials or coefficients; unassigned variables map to themselves."""
        uni, dom = self.universe, self.domain
        values = {}
        for name, val in assignment.items():
            pos = uni.index(name)
            if isinstance(val, MPoly):
                values[pos] = val.relabel(uni) if val.universe is not uni else val
            else:
                values[pos] = MPoly.const(uni, dom, val)
        out = MPoly.zero(uni, dom)
        one = MPoly.const(uni, dom, dom.one)
        pow_cache: dict[tuple[int, int], MPoly] = {}
        for m, c in self.terms.items():
            residual = [0] * uni.nvars
            factor = one
            for i, e in enumerate(m):
                if not e:
                    continue
                if i in values:
                    key = (i, e)
                    if key not in pow_cache:
                        pow_cache[key] = values[i] ** e
                    factor = factor * pow_cache[key]
                else:
                    residual[i] = e
            out = out + factor.mono_shift(tuple(residual)).scale(c)
        return out

    # equality / hashing ---------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (
            self.universe.names == other.universe.names
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.universe.names, self.domain, frozenset(self.terms.items()))
            )
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MPoly({self.text()})"

    # text form -----------------------------------------------------------
    def text(self, order: TermOrder | None = None) -> str:
        return format_poly(self, order)


def to_pi_coefficients(f: MPoly) -> MPoly:
    """Rewrite a polynomial over a base field with a ``pi`` variable as a
    polynomial over the pi-ring in the remaining variables."""
    uni, dom = f.universe, f.domain
    if isinstance(dom, PiRing) or "pi" not in uni:
        raise DomainError("expected a base-field polynomial with a pi variable")
    ring = PiRing(dom)
    small = VarUniverse(tuple(n for n in uni.names if n != "pi"), uni.grid)
    pos = uni.index("pi")
    acc: dict[tuple, list] = {}
    for m, c in f.terms.items():
        k = m[pos]
        rest = tuple(e for i, e in enumerate(m) if i != pos)
        lst = acc.setdefault(rest, [])
        while len(lst) <= k:
            lst.append(dom.zero)
        lst[k] = dom.add(lst[k], c)
    out = {}
    for rest, lst in acc.items():
        val = ring.element(lst)
        if val:
            out[rest] = val
    return MPoly(small, ring, out, _clean=True)


def from_pi_coefficients(f: MPoly, universe: VarUniverse | None = None) -> MPoly:
    """Inverse of ``to_pi_coefficients``: spread pi-ring coefficients over an
    explicit ``pi`` variable."""
    ring = f.domain
    if not isinstance(ring, PiRing):
        raise DomainError("expected pi-ring coefficients")
    dom = ring.base
    big = universe or f.universe.extend(["pi"])
    pos = big.index("pi")
    out: dict[tuple, object] = {}
    for m, c in f.terms.items():
        base_mono = [0] * big.nvars
        for i, e in enumerate(m):
            if e:
                base_mono[big.index(f.universe.names[i])] = e
        for k, coeff in enumerate(c):
            if dom.is_zero(coeff):
                continue
            mono = list(base_mono)
            mono[pos] += k
            key = tuple(mono)
            cur = out.get(key)
            out[key] = coeff if cur is None else dom.add(cur, coeff)
    return MPoly(big, dom, out)


# ---------------------------------------------------------------------------
# printing / parsing


def _format_coeff(domain, c) -> tuple[str, bool]:
    """Return (text, needs_parens_when_multiplied)."""
    if isinstance(domain, PiRing):
        s = domain.format(c)
        return s, ("+" in s or "-" in s or "pi" in s)
    s = domain.format(c)
    return s, False


def format_poly(f: MPoly, order: TermOrder | None = None) -> str:
    if not f.terms:
        return "0"
    order = order or DegRevLex()
    names = f.universe.names
    out = ""
    for m in order.sorted_desc(f.terms):
        c = f.terms[m]
        factors = [
            (names[i] + (f"^{e}" if e > 1 else "")) for i, e in enumerate(m) if e
        ]
        cs, parens = _format_coeff(f.domain, c)
        neg = cs.startswith("-") and not parens
        if neg:
            cs = cs[1:]
        if not factors:
            piece = f"({cs})" if parens else cs
        else:
            mono_txt = "*".join(factors)
            if cs == "1":
                piece = mono_txt
            elif parens:
                piece = f"({cs})*{mono_txt}"
            else:
                piece = f"{cs}*{mono_txt}"
        if not out:
            out = ("-" if neg else "") + piece
        else:
            out += (" - " if neg else " + ") + piece
    return out


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[\d+\])*)"
    r"|(?P<op>[()^*+-]))"
)


class _Parser:
    """Recursive-descent parser for the canonical polynomial grammar."""

    def __init__(self, text: str, universe: VarUniverse, domain):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise DomainError(f"cannot tokenize {text[pos:]!r}")
                break
            pos = m.end()
            if m.group("num"):
                self.tokens.append(("num", m.group("num")))
            elif m.group("name"):
                self.tokens.append(("name", m.group("name")))
            else:
                self.tokens.append(("op", m.group("op")))
        self.pos = 0
        self.universe = universe
        self.domain = domain

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> MPoly:
        out = self.expr()
        if self.pos != len(self.tokens):
            raise DomainError(f"trailing input at token {self.pos}")
        return out

    def expr(self) -> MPoly:
        sign = 1
        kind, val = self.peek()
        if (kind, val) in (("op", "+"), ("op", "-")):
            self.take()
            sign = -1 if val == "-" else 1
        out = self.term_()
        if sign < 0:
            out = -out
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "+"):
                self.take()
                out = out + self.term_()
            elif (kind, val) == ("op", "-"):
                self.take()
                out = out - self.term_()
            else:
                return out

    def term_(self) -> MPoly:
        out = self.factor()
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "*"):
                self.take()
                out = out * self.factor()
            elif kind in ("num", "name") or (kind, val) == ("op", "("):
                out = out * self.factor()
            else:
                return out

    def factor(self) -> MPoly:
        base = self.atom()
        kind, val = self.peek()
        if (kind, val) == ("op", "^"):
            self.take()
            k, kv = self.take()
            if k != "num" or "/" in kv:
                raise DomainError("exponent must be a natural number")
            return base ** int(kv)
        return base

    def atom(self) -> MPoly:
        kind, val = self.take()
        if kind == "num":
            if isinstance(self.domain, PiRing):
                c = self.domain.from_base(self.domain.base.parse(val))
            else:
                c = self.domain.parse(val)
            return MPoly.const(self.universe, self.domain, c)
        if kind == "name":
            if val in self.universe:
                return MPoly.var(self.universe, self.domain, val)
            if val == "pi" and isinstance(self.domain, PiRing):
                return MPoly.const(self.universe, self.domain, self.domain.pi)
            raise DomainError(f"unknown variable {val!r}")
        if (kind, val) == ("op", "("):
            inner = self.expr()
            k, v = self.take()
            if (k, v) != ("op", ")"):
                raise DomainError("unbalanced parenthesis")
            return inner
        raise DomainError(f"unexpected token {val!r}")


def parse_poly(text: str, universe: VarUniverse, domain) -> MPoly:
    return _Parser(text, universe, domain).parse()


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Generator list with a per-order cache of Groebner bases.

    Generators are immutable, so a cached basis never goes stale; each cache
    slot is written once and then only read.
    """

    __slots__ = ("generators", "universe", "domain", "_gb_cache")

    def __init__(self, generators, universe=None, domain=None):
        gens = tuple(g for g in generators if g)
        if not gens and (universe is None or domain is None):
            raise UniverseError("empty ideal needs explicit universe and domain")
        self.universe = universe or gens[0].universe
        self.domain = domain or gens[0].domain
        for g in gens:
            if g.universe.names != self.universe.names or g.domain != self.domain:
                raise UniverseError("mixed universes/domains in ideal")
        self.generators = gens
        self._gb_cache: dict = {}

    def is_zero(self) -> bool:
        return not self.generators

    def is_monomial(self) -> bool:
        return all(g.is_monomial() for g in self.generators)

    def groebner_basis(self, order: TermOrder | None = None, *, ring_mode=False):
        from . import groebner  # local import to avoid a cycle

        order = order or DegRevLex()
        key = (order, ring_mode)
        if key not in self._gb_cache:
            self._gb_cache[key] = tuple(
                groebner.buchberger(
                    list(self.generators),
                    order,
                    universe=self.universe,
                    domain=self.domain,
                    ring_mode=ring_mode,
                )
            )
        return self._gb_cache[key]

    def texts(self, order: TermOrder | None = None) -> list[str]:
        return [format_poly(g, order) for g in self.generators]

    def __eq__(self, other):
        """Structural equality of generator lists (not ideal equality)."""
        if not isinstance(other, Ideal):
            return NotImplemented
        return (
            self.universe.names == other.universe.names
            and self.domain == other.domain
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.universe.names, self.domain, self.generators))

    def __repr__(self):
        inner = ", ".join(self.texts()) or "0"
        return f"Ideal<{inner}>"
