"""Sparse multivariate polynomials over a pluggable coefficient domain.

Variables live in a ``VarUniverse``: an immutable, ordered list of names with
a stable name <-> position bijection.  Monomials are plain exponent tuples
over that universe; polynomials are dicts monomial -> nonzero coefficient.
A term order is defined by one integer key on packed monomials (an
exponent tuple as one int, ``_Packing``), which leading terms, printing
and the Groebner kernel of ``groebner`` all compare.

Canonical variable names follow the grid convention: ``x[i][j]`` for row i,
column j, plus ``pi``, parameters ``A[i][j][l]``, ambient coordinates
``y[l]`` and single fresh auxiliaries like ``y`` or ``t[k]`` introduced by
saturation.  The printer and parser share one grammar, so any printed
polynomial round-trips.
"""

from __future__ import annotations

import functools
import itertools
import operator
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


def grid_universe(d: int, n: int, *, pi: bool = True, extras_back=()) -> VarUniverse:
    """Universe [column blocks of x[i][j], back extras, pi]."""
    names = []
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


def _terms_mul(a: dict, b: dict, dom) -> dict:
    """Product of two term dicts (monomial -> nonzero coefficient)."""
    mul, add, iz = dom.mul, dom.add, dom.is_zero
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple([x + y for x, y in zip(m1, m2)])
            p = mul(c1, c2)
            cur = out.get(m)
            if cur is None:
                if not iz(p):
                    out[m] = p
            else:
                s = add(cur, p)
                if iz(s):
                    del out[m]
                else:
                    out[m] = s
    return out


def multidegree(mono: tuple, blocks) -> tuple:
    """Per-block total degree; additive under monomial multiplication."""
    return tuple(sum(mono[i] for i in blk) for blk in blocks)


# ---------------------------------------------------------------------------
# packed monomials


class _PackingOverflow(DomainError):
    """A monomial has an exponent above the bound of its packing."""


class _Packing:
    """Exponent tuples of one length as ints: a field of ``width`` bytes per
    variable, the first variable in the most significant field.  Exponents
    stay at most ``bound`` = 2^(8 width - 1) - 1, so the top bit of every
    field is a guard bit that is clear in every valid monomial.  A product of
    two valid monomials is their sum (no carry leaves a field), and it is
    valid exactly when its guard bits are clear; a divides b exactly when
    b - a is nonnegative with clear guard bits.  Sorting by (degree, packed)
    sorts by (degree, exponent tuple).

    Every term order below compiles its integer key on packed monomials
    from the field arithmetic here (``order_key``): degrees and
    weighted degrees are sums over the fields, the reverse-lex part reverses
    the fields, and a block order gathers the fields of each of its leaf
    segments, the reverse-lex ones from one reversal (``runs``).  Every
    width-dependent constant lives in the packing."""

    __slots__ = (
        "nvars", "width", "field", "bound", "guard", "degree", "_swaps", "_keys",
    )

    def __init__(self, nvars: int, width: int = 1):
        self.nvars, self.width = nvars, width
        self.field = 8 * width  # bits per field
        self.bound = (1 << (self.field - 1)) - 1
        self.guard = int.from_bytes((b"\x80" + bytes(width - 1)) * nvars, "big")
        self.degree = self._summer(self.mask(range(nvars)))  # p -> total degree
        # byte swaps inside each field, undoing the byte order that a
        # whole-int byte reversal leaves there
        self._swaps = []
        half = self.field // 2
        while half >= 8:
            units = nvars * self.field // (2 * half)
            low = sum(((1 << half) - 1) << (2 * half * u) for u in range(units))
            self._swaps.append((half, low))
            half //= 2
        self._keys: dict = {}

    def pack(self, mono) -> int:
        w = self.width
        try:
            raw = bytes(mono) if w == 1 else b"".join([e.to_bytes(w, "big") for e in mono])
        except (ValueError, OverflowError):  # an exponent outside the fields
            if min(mono) < 0:
                raise DomainError("negative exponent") from None
            raise self.overflow() from None
        p = int.from_bytes(raw, "big")
        if p & self.guard:
            raise self.overflow()
        return p

    def unpack(self, p: int) -> tuple:
        w = self.width
        raw = p.to_bytes(self.nvars * w, "big")
        if w == 1:
            return tuple(raw)
        return tuple([int.from_bytes(raw[i:i + w], "big") for i in range(0, len(raw), w)])

    def mask(self, positions) -> int:
        """Every bit of the fields of the variables at ``positions``."""
        full, f, n = (1 << self.field) - 1, self.field, self.nvars
        return sum(full << f * (n - 1 - i) for i in set(positions))

    def _classes(self, top: int, strict: bool):
        """Split the fields into c = 2^k interleaved classes (every c-th
        field) so that a field of f * c bits holds ``top`` (less than its
        all-ones value when ``strict``).  Returns (c, f * c, E), E selecting
        the fields whose index from the right is a multiple of c."""
        f, n = self.field, self.nvars
        c = 1
        while top >= (1 << f * c) - strict:
            c *= 2
        E = sum(((1 << f) - 1) << f * j for j in range(0, n, c))
        return c, f * c, E

    def _summer(self, mask: int):
        """p -> the sum of p's fields inside ``mask``: the classes of fields
        are added into wide fields that cannot carry, and a wide field of G
        bits is summed by the residue mod 2^G - 1."""
        f = self.field
        c, G, E = self._classes(self.bound * self.nvars, True)
        mod = (1 << G) - 1
        if c == 1:
            return lambda p: (p & mask) % mod
        if c == 2:
            e0, e1 = E & mask, E & (mask >> f)
            return lambda p: ((p & e0) + ((p >> f) & e1)) % mod
        parts = [(f * r, E & (mask >> f * r)) for r in range(c)]

        def fn(p):
            out = 0
            for s, e in parts:
                out += (p >> s) & e
            return out % mod

        return fn

    def degree_in(self, positions):
        """p -> p's total degree in the variables at ``positions``."""
        return self._summer(self.mask(positions))

    def block_degrees(self, blocks):
        """p -> the tuple of p's degrees in the variables of each block."""
        sums = [self.degree_in(blk) for blk in blocks]
        return lambda p: tuple([s(p) for s in sums])

    def weigher(self, weights):
        """(fn, bits): fn(p) is the weighted degree sum_i weights[i] e_i,
        the weights nonnegative, so it lies in [0, 2^bits).  Each class of
        fields, spread into wide fields, is multiplied by the weights in
        reverse field order: the middle wide field of the product is the
        weighted sum, and no wide field carries into it."""
        f, n, ws = self.field, self.nvars, weights
        top = self.bound * sum(ws)
        c, G, E = self._classes(top, False)
        m = max(-(-n // c), 1)
        parts = []
        for r in range(c):
            W = sum(ws[n - 1 - j] << G * (m - 1 - j // c) for j in range(r, n, c))
            if W:
                parts.append((f * r, W))
        sh, mod, bits = G * (m - 1), (1 << G) - 1, top.bit_length()
        if len(parts) == 2:  # the common case, unrolled
            (s0, W0), (s1, W1) = parts
            return (lambda p: (((p >> s0) & E) * W0 + ((p >> s1) & E) * W1) >> sh & mod), bits

        def fn(p):
            out = 0
            for s, W in parts:
                out += ((p >> s) & E) * W
            return (out >> sh) & mod

        return fn, bits

    def reverse(self, p: int) -> int:
        """The fields of p in reverse order."""
        p = int.from_bytes(p.to_bytes(self.nvars * self.width, "big"), "little")
        for s, low in self._swaps:
            p = ((p & low) << s) | ((p >> s) & low)
        return p

    def runs(self, positions) -> list:
        """The moves that gather the fields of p at ``positions``, in that
        order, into a monomial of ``restrict(len(positions))``: a triple
        (src, low, dst) per run of consecutive positions, the run being
        (p >> src) & low placed at bit dst."""
        f, n, m = self.field, self.nvars, len(positions)
        out = []
        k = 0
        while k < m:
            size = 1
            while k + size < m and positions[k + size] == positions[k] + size:
                size += 1
            out.append((f * (n - positions[k] - size), (1 << f * size) - 1, f * (m - k - size)))
            k += size
        return out

    def gatherer(self, positions):
        """p -> the fields of p at ``positions``, in that order, as a
        monomial of ``restrict(len(positions))``: one shift and mask per run
        of consecutive positions (``runs``)."""
        if tuple(positions) == tuple(range(self.nvars)):
            return lambda p: p
        runs = self.runs(positions)
        if len(runs) == 1:
            src, low, _ = runs[0]
            return lambda p: (p >> src) & low

        def gather(p):
            out = 0
            for src, low, dst in runs:
                out |= ((p >> src) & low) << dst
            return out

        return gather

    def restrict(self, nvars: int) -> "_Packing":
        """A packing of the same width over ``nvars`` variables."""
        return _packing(nvars, self.width)

    def order_key(self, order: TermOrder):
        """p -> the key of ``order`` on packed monomials
        (``order.packed_key``), compiled once per packing."""
        fn = self._keys.get(order)
        if fn is None:
            fn = self._keys[order] = order.packed_key(self)[0]
        return fn

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum: a field of (a | guard) - b keeps its guard bit
        exactly when a's exponent is at least b's."""
        ge = ((a | self.guard) - b) & self.guard
        take_a = ge - (ge >> (8 * self.width - 1))
        return (a & take_a) | (b & ~take_a)

    def overflow(self) -> _PackingOverflow:
        return _PackingOverflow(f"exponent above the packing bound {self.bound}")


@functools.cache
def _packing(nvars: int, width: int) -> _Packing:
    """The one packing of its shape: a packing holds only constants and the
    keys compiled on it, so every table of that shape shares it, and an
    order's key is compiled once per process."""
    return _Packing(nvars, width)


def _widening(run, nvars: int):
    """``run(packing)`` with one-byte fields, run again with fields twice as
    wide whenever a monomial overflows them.  Nothing a run decides
    depends on the width, so the result is the one a wide enough first
    packing would give."""
    width = 1
    while True:
        try:
            return run(_packing(nvars, width))
        except _PackingOverflow:
            width *= 2


# ---------------------------------------------------------------------------
# term orders


class TermOrder:
    """Total order on exponent tuples with 1 minimal and translation
    invariance.  ``packed_key`` is its definition: leading terms, printing
    and the Groebner kernel all compare monomials by it."""

    name = "order"

    def packed_key(self, pk):  # pragma: no cover - abstract
        """The order as one int on the monomials packed by ``pk`` (a
        ``_Packing``), built from its field arithmetic: a pair (fn, bits)
        with 0 <= fn(p) < 2^bits, and p below q in the order exactly when
        fn(p) < fn(q)."""
        raise NotImplementedError


def _degrevlex_parts(pk):
    """The pieces of a degrevlex key on monomials packed by ``pk``: the
    degree, then the complement of the reversed fields in the ``low`` bits
    below it.  Returns (degree, reverse, low, bits of the whole key)."""
    low = pk.field * pk.nvars
    return pk.degree, pk.reverse, low, low + (pk.bound * pk.nvars).bit_length()


@dataclass(frozen=True)
class Lex(TermOrder):
    """Lexicographic order; ``perm`` lists variable positions from most to
    least significant (default: universe order)."""

    perm: tuple[int, ...] | None = None
    name: str = "lex"

    def packed_key(self, pk):
        # the first variable sits in the most significant field
        perm = range(pk.nvars) if self.perm is None else self.perm
        return pk.gatherer(perm), pk.field * len(perm)


@dataclass(frozen=True)
class DegRevLex(TermOrder):
    """Total degree, ties broken by reverse lexicographic comparison."""

    name: str = "degrevlex"

    def packed_key(self, pk):
        degree, reverse, low, bits = _degrevlex_parts(pk)
        full = (1 << low) - 1
        return (lambda p: degree(p) << low | full ^ reverse(p)), bits


@dataclass(frozen=True)
class Block(TermOrder):
    """Block order: compare segment by segment with per-segment suborders.

    ``segments`` is a tuple of (positions, suborder) pairs covering a subset
    of the universe; the variables of no segment take no part.
    """

    segments: tuple[tuple[tuple[int, ...], TermOrder], ...]
    name: str = "block"

    def _leaves(self, positions=None):
        """The segments with every nested block opened, most significant
        first: (positions in the universe, suborder) pairs whose suborder is
        not a ``Block``.  ``positions`` maps this block's positions into an
        enclosing universe (default: its own)."""
        for idx, sub in self.segments:
            pos = idx if positions is None else tuple([positions[i] for i in idx])
            if isinstance(sub, Block):
                yield from sub._leaves(pos)
            else:
                yield pos, sub

    def packed_key(self, pk):
        # Each segment's key in a fixed-width slot, the last segment lowest.
        # A nested block is compiled flat, from its leaf segments, so one key
        # call makes no inner calls; the slots, and so the key, are those of
        # the nested form.  A degrevlex leaf is its degree above the
        # complement of its fields in reverse order, and one complemented
        # reversal of p serves every such leaf: variable i sits in field
        # n - 1 - i of it, so a leaf's reversed fields are one gather there.
        n, f = pk.nvars, pk.field
        runs, degrees, others, bits = [], [], [], 0
        for pos, sub in reversed(list(self._leaves())):
            if type(sub) is DegRevLex:
                if not pos:
                    continue
                runs.extend(
                    (src, low, dst + bits)
                    for src, low, dst in pk.runs([n - 1 - i for i in reversed(pos)])
                )
                degrees.append((pk.degree_in(pos), bits + f * len(pos)))
                bits += f * len(pos) + (pk.bound * len(pos)).bit_length()
                continue
            compiled = sub.packed_key(pk.restrict(len(pos)))
            others.append((pk.gatherer(pos), compiled[0], bits))
            bits += compiled[1]
        reverse, full = pk.reverse, (1 << f * n) - 1

        def flat_key(p):
            out = 0
            if runs:
                c = full ^ reverse(p)
                for src, low, dst in runs:
                    out |= (c >> src & low) << dst
                for degree, at in degrees:
                    out |= degree(p) << at
            for gather, fn, at in others:
                out |= fn(gather(p)) << at
            return out

        return flat_key, bits


@dataclass(frozen=True)
class WeightedOrder(TermOrder):
    """Weight degree first, then total degree, then reverse lex."""

    weights: tuple[int, ...]
    name: str = "weighted"

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise DomainError("a weighted term order needs nonnegative weights")

    def packed_key(self, pk):
        weight, wbits = pk.weigher(self.weights)
        degree, reverse, low, bits = _degrevlex_parts(pk)
        full = (1 << low) - 1
        return (lambda p: weight(p) << bits | degree(p) << low | full ^ reverse(p)), wbits + bits


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

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise DomainError("a weighted term order needs nonnegative weights")

    def packed_key(self, pk):
        weight, wbits = pk.weigher(self.weights)
        degree, reverse, low, bits = _degrevlex_parts(pk)
        f = pk.field
        full, fm, at = (1 << low) - 1, (1 << f) - 1, f * (pk.nvars - 1 - self.pi_index)
        return (
            lambda p: (weight(p) << f | fm ^ (p >> at & fm)) << bits
            | degree(p) << low | full ^ reverse(p),
            wbits + f + bits,
        )


def default_order(universe: VarUniverse) -> TermOrder:
    """Degrevlex, but with pi split into its own trailing block when present
    (pi then behaves like a coefficient, which keeps bases small)."""
    if "pi" not in universe:
        return DegRevLex()
    pi = universe.index("pi")
    rest = tuple(i for i in range(universe.nvars) if i != pi)
    return Block(((rest, DegRevLex()), ((pi,), DegRevLex())), name="grevlex-pi-last")


def _by_order(pick, monos, order: TermOrder, nvars: int):
    """``pick(monos, key=...)`` (``max`` or a sort) with the packed key of
    ``order``, under ``_widening``."""

    def run(pk):
        pack, key = pk.pack, pk.order_key(order)
        return pick(monos, key=lambda m: key(pack(m)))

    return _widening(run, nvars)


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
        return MPoly(
            self.universe, self.domain, _terms_mul(self.terms, other.terms, self.domain), _clean=True
        )

    def scale(self, c):
        dom = self.domain
        if dom.is_zero(c):
            return MPoly.zero(self.universe, dom)
        mul = dom.mul
        out = MPoly(
            self.universe, dom, {m: mul(c, v) for m, v in self.terms.items()}, _clean=True
        )
        if self._lt:
            # the domains have no zero divisors: the leading monomials stay
            out._lt = {o: (mul(c, lc), m) for o, (lc, m) in self._lt.items()}
        return out

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
            m = _by_order(max, self.terms, order, self.universe.nvars)
            hit = (self.terms[m], m)
            cache[order] = hit
        return hit

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def multidegrees(self, blocks) -> set:
        return {multidegree(m, blocks) for m in self.terms}

    def is_multihomogeneous(self, blocks) -> bool:
        """One multidegree for all terms (``multidegrees``), read block by
        block off the exponent columns, stopping at the first block whose
        degree varies."""
        if not self.terms:
            return True
        cols = list(zip(*self.terms))  # the exponents of each variable, term by term
        for blk in blocks:
            if len(set(map(sum, zip(*[cols[p] for p in blk])))) > 1:
                return False
        return True

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


class Substitution:
    """A ring homomorphism from polynomials of ``source`` over ``domain``
    into ``target`` (default: ``source``), sending the named variables of
    ``assignment`` to polynomials or coefficients and every other variable
    to itself; built once and applied to any number of polynomials.

    ``target`` must hold every unassigned variable in use and every
    variable of the polynomial values.  A term splits into its exponents at
    the assigned positions and the rest, each read by one gather.  The
    image of the assigned part is made once per exponent pattern and cached
    for the life of the plan: a coefficient, from the power list of each
    coefficient value, times a term dict, from powers of the polynomial
    values; the terms of one image accumulate into one dict.  A plan whose
    values are all coefficients applies them on its own path: each term's
    coefficient is multiplied by the power of each value its nonzero
    exponents select, read from the power lists (the patterns of a
    sampled assignment's conditions hardly repeat, so none is cached).
    """

    __slots__ = (
        "source", "target", "domain", "_polys", "_powers", "_ppows", "_assigned",
        "_pattern", "_rest", "_unmapped", "_factors",
    )

    def __init__(
        self, source: VarUniverse, domain, assignment: dict, target: VarUniverse | None = None
    ):
        target = target or source
        self.source, self.target, self.domain = source, target, domain
        scalars: dict[int, object] = {}
        self._polys: dict[int, dict] = {}
        for name, val in assignment.items():
            pos = source.index(name)
            if isinstance(val, MPoly):
                if val.universe.names != target.names:
                    val = val.relabel(target)
                self._polys[pos] = val.terms
            else:
                scalars[pos] = val
        self._assigned = sorted([*scalars, *self._polys])
        # per source position: [1, v, v^2, ...] for a coefficient v, grown
        # on demand; None for any other variable
        self._powers = [
            [domain.one, scalars[i]] if i in scalars else None for i in range(source.nvars)
        ]
        self._ppows: dict[tuple[int, int], dict] = {}
        self._pattern = _gatherer(self._assigned)
        dest = [target._index.get(name) for name in source.names]
        free = [i for i in range(source.nvars) if i not in scalars and i not in self._polys]
        kept = [i for i in free if dest[i] is not None]
        self._unmapped = [i for i in free if dest[i] is None]
        if [dest[i] for i in kept] == list(range(target.nvars)):
            self._rest = _gatherer(kept)
        else:
            moves, nv = [(i, dest[i]) for i in kept], target.nvars

            def rest(m):
                mono = [0] * nv
                for i, d in moves:
                    mono[d] = m[i]
                return tuple(mono)

            self._rest = rest
        self._factors: dict = {}

    def _power(self, powers: list, e: int):
        """powers[e], the list grown to hold it."""
        mul = self.domain.mul
        while len(powers) <= e:
            powers.append(mul(powers[-1], powers[1]))
        return powers[e]

    def _coefficient(self, m: tuple):
        """The product of the coefficient values raised to their exponents
        in the monomial m; None when it is one."""
        mul = self.domain.mul
        coeff = None
        # only the nonzero exponents reach the loop
        for powers, e in itertools.compress(zip(self._powers, m), m):
            if powers is not None:
                p = powers[e] if e < len(powers) else self._power(powers, e)
                coeff = p if coeff is None else mul(coeff, p)
        return coeff

    def _poly_pow(self, i: int, e: int) -> dict:
        p = self._ppows.get((i, e))
        if p is None:
            if e == 1:
                p = self._polys[i]
            else:
                half = self._poly_pow(i, e // 2)
                p = _terms_mul(half, self._poly_pow(i, e - e // 2), self.domain)
            self._ppows[(i, e)] = p
        return p

    def _factor(self, pattern: tuple, m: tuple) -> tuple:
        """The image of the assigned exponents ``pattern`` of the monomial
        m: (coefficient, term dict), either None when it is one."""
        terms = None
        for i, e in zip(self._assigned, pattern):
            if e and i in self._polys:
                p = self._poly_pow(i, e)
                terms = p if terms is None else _terms_mul(terms, p, self.domain)
        out = self._factors[pattern] = (self._coefficient(m), terms)
        return out

    def __call__(self, f: "MPoly") -> "MPoly":
        if not self._polys:
            return self._apply_coefficients(f)
        dom, target = self.domain, self.target
        mul, add, iz = dom.mul, dom.add, dom.is_zero
        pattern, rest, unmapped, factors = self._pattern, self._rest, self._unmapped, self._factors
        out: dict = {}
        for m, c in f.terms.items():
            for i in unmapped:
                if m[i]:
                    raise UniverseError(f"variable {self.source.names[i]} missing from target")
            pat = pattern(m)
            fac = factors.get(pat)
            coeff, terms = self._factor(pat, m) if fac is None else fac
            if coeff is not None:
                c = mul(c, coeff)
                if iz(c):
                    continue
            mono = rest(m)
            if terms is None:
                pieces = ((mono, c),)
            else:
                pieces = [
                    (tuple([a + b for a, b in zip(mono, fm)]), mul(c, fc))
                    for fm, fc in terms.items()
                ]
            for mm, v in pieces:
                cur = out.get(mm)
                if cur is None:
                    if not iz(v):
                        out[mm] = v
                else:
                    s = add(cur, v)
                    if iz(s):
                        del out[mm]
                    else:
                        out[mm] = s
        return MPoly(target, dom, out, _clean=True)

    def _apply_coefficients(self, f: "MPoly") -> "MPoly":
        """``__call__`` of a plan whose values are all coefficients: each
        term's coefficient is multiplied by a power of each value, one per
        nonzero exponent at an assigned position, and the term lands on one
        monomial."""
        dom = self.domain
        mul, add, iz = dom.mul, dom.add, dom.is_zero
        compress, all_powers = itertools.compress, self._powers
        rest, unmapped = self._rest, self._unmapped
        out: dict = {}
        for m, c in f.terms.items():
            for i in unmapped:
                if m[i]:
                    raise UniverseError(f"variable {self.source.names[i]} missing from target")
            for powers, e in compress(zip(all_powers, m), m):
                if powers is not None:
                    c = mul(c, powers[e] if e < len(powers) else self._power(powers, e))
            if iz(c):
                continue
            mono = rest(m)
            cur = out.get(mono)
            if cur is None:
                out[mono] = c
            else:
                s = add(cur, c)
                if iz(s):
                    del out[mono]
                else:
                    out[mono] = s
        return MPoly(self.target, dom, out, _clean=True)


def _gatherer(positions):
    """m -> the tuple of m's entries at ``positions``, in that order."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    if positions:
        i = positions[0]
        return lambda m: (m[i],)
    return lambda m: ()


@functools.cache
def _pi_split(uni: VarUniverse, dom) -> tuple:
    """(pi-ring over ``dom``, ``uni`` without pi, position of pi), built once
    per universe and domain, so that every element of one converted basis
    shares its ring and universe."""
    small = VarUniverse(tuple(n for n in uni.names if n != "pi"), uni.grid)
    return PiRing(dom), small, uni.index("pi")


def to_pi_coefficients(f: MPoly) -> MPoly:
    """Rewrite a polynomial over a base field with a ``pi`` variable as a
    polynomial over the pi-ring in the remaining variables."""
    uni, dom = f.universe, f.domain
    if isinstance(dom, PiRing) or "pi" not in uni:
        raise DomainError("expected a base-field polynomial with a pi variable")
    ring, small, pos = _pi_split(uni, dom)
    acc: dict[tuple, list] = {}
    for m, c in f.terms.items():
        k = m[pos]
        rest = m[:pos] + m[pos + 1:]
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


def from_pi_coefficients(f: MPoly, universe: VarUniverse) -> MPoly:
    """Inverse of ``to_pi_coefficients``: spread the pi-ring coefficients of
    f over the ``pi`` variable of ``universe``, which holds every variable
    of f.  Coefficients constant in pi need no pi variable."""
    ring = f.domain
    if not isinstance(ring, PiRing):
        raise DomainError("expected pi-ring coefficients")
    if "pi" not in universe:
        if any(len(c) > 1 for c in f.terms.values()):
            raise DomainError("pi-polynomial value needs a pi variable")
        return from_pi_coefficients(f, universe.extend(["pi"])).relabel(universe)
    dom = ring.base
    _, small, pos = _pi_split(universe, dom)
    if f.universe.names != small.names:
        f = f.relabel(small)
    out = {}
    for m, c in f.terms.items():
        lo, hi = m[:pos], m[pos:]
        for k in itertools.compress(itertools.count(), c):  # base-field zeros are falsy
            out[lo + (k,) + hi] = c[k]
    return MPoly(universe, dom, out, _clean=True)


def pi_content(f: MPoly) -> tuple:
    """(c, f / pi^c) for the largest c with pi^c dividing f; (0, f) when f
    is zero or its universe has no pi.  The quotient keeps f's recorded
    leading terms: a term order is translation invariant, so the quotients
    of the terms by one monomial compare as the terms do."""
    if not f or "pi" not in f.universe:
        return 0, f
    pos = f.universe.index("pi")
    c = min(m[pos] for m in f.terms)
    if not c:
        return 0, f

    def divided(m):
        return m[:pos] + (m[pos] - c,) + m[pos + 1:]

    q = MPoly(f.universe, f.domain, {divided(m): v for m, v in f.terms.items()}, _clean=True)
    if f._lt:
        q._lt = {o: (lc, divided(lm)) for o, (lc, lm) in f._lt.items()}
    return c, q


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
    names = f.universe.names
    descending = functools.partial(sorted, reverse=True)
    out = ""
    for m in _by_order(descending, f.terms, order or DegRevLex(), len(names)):
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
    """Generator list with a per-order cache of Groebner bases
    (``_gb_cache``) and, beside it, the Rabinowitsch prefix that
    ``groebner.radical_membership`` runs its queries on (``_radical_prefix``:
    per base order, the basis lifted into the universe with the auxiliary,
    the extended order and one packed reducer table per packing width).

    Generators are immutable, so a cached basis never goes stale; each cache
    slot is written once and then only read.  The caches live and die with
    the ideal.
    """

    __slots__ = ("generators", "universe", "domain", "_gb_cache", "_radical_prefix")

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
        self._radical_prefix: dict = {}

    def is_zero(self) -> bool:
        return not self.generators

    def is_monomial(self) -> bool:
        return all(g.is_monomial() for g in self.generators)

    def groebner_basis(self, order: TermOrder, *, cap_seconds=None):
        from . import groebner  # local import to avoid a cycle

        if order not in self._gb_cache:
            self._gb_cache[order] = tuple(
                groebner.buchberger(list(self.generators), order, cap_seconds=cap_seconds)
            )
        return self._gb_cache[order]

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
