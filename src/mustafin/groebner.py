"""Groebner engines and derived ideal operations.

One reduction kernel, ``_Reducers``, has two coefficient modes:

* field mode -- classical Buchberger with Gebauer-Moeller pair pruning and
  normal selection; the result is interreduced, so equal ideals get equal
  (hence byte-identical) bases.  A run packs one table and finishes on it:
  a new element stays packed and joins the table as a monic row, and the
  tails of the minimal rows are reduced against the whole basis (the
  normal form modulo a Groebner basis is unique); ``MPoly``s are built
  only for the output.
* valuation mode -- coefficients in ``PiRing``, read as elements of the
  discrete valuation ring L[pi]_(pi).  A leading coefficient is pi^v
  times a unit, so the leading terms behave as the monomials pi^v x^m:
  of two leading coefficients one divides the other, the S-combinations
  alone generate the syzygies of the leading terms, and the
  Gebauer-Moeller criteria apply to the leading terms unchanged.  The
  basis test ``is_groebner`` runs in this mode over a ``PiRing``;
  ``buchberger`` needs a field.

The kernel is behind ``normal_form``, ``interreduce``, ``is_groebner`` and
the Buchberger loop.  It works on the packed monomials of ``polyring``
(``_Packing``, which lives beside the term orders that compile against
it): an exponent tuple becomes one int with a fixed-width field per
variable, so a product is an addition and a divisibility test is a
subtraction and a mask.  A field of w bytes holds exponents up to
2^(8w - 1) - 1.  Every computation starts with one-byte fields (exponents
up to 127); an input or intermediate monomial past the bound raises an
overflow inside the kernel, never a silent carry, and the computation
reruns with fields twice as wide (``polyring._widening``).  The
table holds each basis element's packed leading monomial, leading
coefficient and monic tail once per basis, and the working polynomial keeps
a heap of order keys, so each step finds its largest term without a scan.
An order key is one int per packed monomial, the order's own definition
(``_Packing.order_key`` of ``TermOrder.packed_key``), cached per table.  A
field-mode run packs each input once, sorts the packed inputs by the
least of their cached negated keys (the leading term's), and keeps its
pending pairs in a dict from pair to the lcm of the leading monomials:
each lcm is computed once, when the pair is made, and the Gebauer-Moeller
update and the pair heap read it back (``_gm_update``).
In valuation mode the pair criteria read packed leading terms: the
monomial with the valuation of the leading coefficient in one more field
(``_Reducers.lts``).  A reduction step there multiplies the working
polynomial by the reducer's unit part, so every coefficient stays in
L[pi].  The field-mode ``_Reducers.reduce`` takes one observer, called
before every step with the step it takes.

Beside ``_Reducers`` sits the one linear-algebra kernel, ``_Echelon``: a
sparse row-echelon form on packed monomials, with rows of ints reduced
mod p over GF(p) and fraction-free primitive integer rows over Q.
``span_member`` (membership in a degree-bounded Macaulay matrix) and
``linear_relations`` run on it under ``_widening``.

Saturation by a single variable has a fast path: when every generator is
homogeneous for a supplied weight vector (weight 1 on that variable),
running Buchberger under ``WeightedPiOrder`` while dividing every inserted
element by its content in the variable converges directly to a basis of the
saturated ideal.  The content is read off the packed field of the
variable and divided out by one subtraction per term.  A Hilbert target
prunes the pairs whose multidegree is complete (``_HilbertGate``, which
counts the monomials the leading monomials strike, never the standard
ones).  Everything else takes the textbook route: adjoin 1 - t_i * a_i
and eliminate the fresh auxiliaries with ``eliminate``, the one
elimination of the package.

One function builds every such Rabinowitsch system <gens, 1 - t_i a_i>:
``_adjoin_inverses``.  ``saturate`` eliminates its auxiliaries,
``radical_membership`` asks whether <I, 1 - t f> is the unit ideal, and
``specialize`` reads its unit conditions off the basis of
<gens, 1 - t a>.  Radical queries against one ideal lift and pack its
basis once: the packed table of the lifted basis, one per packing width,
lives on the ``Ideal`` as long as the ideal does, and each query's
Buchberger run appends its row to a ``fork`` of it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import time
from fractions import Fraction
from math import comb, gcd as int_gcd, lcm as int_lcm, prod

from .coeffs import DomainError
from .polyring import (
    Block,
    DegRevLex,
    default_order,
    Ideal,
    MPoly,
    TermOrder,
    VarUniverse,
    WeightedPiOrder,
    _Packing,
    _packing,
    _widening,
)


class ResourceCapExceeded(RuntimeError):
    """A computation ran past its time budget; ``phase`` names the stage of
    a multi-step command it stopped in ("" for a single call), and
    ``detail`` is the message of the call that stopped."""

    def __init__(self, message: str, phase: str = "", detail: str = ""):
        super().__init__(message)
        self.phase, self.detail = phase, detail


class Deadline:
    """One time budget for a whole command.  ``run`` hands each inner call
    only the time left, as its ``cap_seconds``, and turns a cap hit inside
    into one naming the phase and the command's cap.  A cap hit in a
    nested budget keeps its phase and detail but names this cap."""

    def __init__(self, cap_seconds: float | None = None):
        self.cap = cap_seconds
        self.end = None if cap_seconds is None else time.monotonic() + cap_seconds

    def exceeded(self, phase: str, detail: str = "") -> ResourceCapExceeded:
        extra = f" ({detail})" if detail else ""
        return ResourceCapExceeded(f"{phase}: exceeded {self.cap:g}s{extra}", phase, detail)

    def run(self, phase: str, fn, *args, **kwargs):
        if self.end is None:
            return fn(*args, **kwargs)
        left = self.end - time.monotonic()
        if left <= 0:
            raise self.exceeded(phase)
        try:
            return fn(*args, cap_seconds=left, **kwargs)
        except ResourceCapExceeded as exc:
            if exc.phase:
                raise self.exceeded(exc.phase, exc.detail) from None
            raise self.exceeded(phase, str(exc)) from None


# ---------------------------------------------------------------------------
# the reduction kernel


class _Reducers:
    """A basis in packed form, in basis order: for every element its packed
    leading monomial, its leading coefficient and its tail (the other terms,
    packed when first used; over a field divided by the leading
    coefficient).  A field-mode Buchberger run appends its new elements
    as packed monic rows (``append_monic``), never as ``MPoly``s.

    ``reduce`` computes normal forms against it.  Over a field the largest
    remaining term is rewritten by the first element, in basis order, whose
    leading monomial divides it.  Over ``PiRing`` (``ring``) the table also
    keeps every leading coefficient as pi^v times a unit part u, and the
    packed leading term: the leading monomial with v in one more, last,
    field (``lts``, packed by ``lt_pk``; over a field ``lts`` is ``lms``).
    The largest term c x^m is rewritten by the element of least v whose
    leading monomial divides x^m (the first of those in basis order), when
    its v is at most the valuation of c.  A term no element
    rewrites moves to the remainder.  The working polynomial is a dict with
    a heap of negated order keys beside it, bare ints that a dict maps back
    to their monomials; keys and divisors are cached per monomial for the
    life of the table.  A monomial no element divides caches the table
    length it was checked against, and a later reduction checks only the
    elements appended since.
    """

    __slots__ = (
        "order", "universe", "domain", "pk", "ring", "lms", "lcs", "tails", "vals", "units",
        "lts", "lt_pk", "_polys", "_keys", "_monos", "_divisors", "_okey",
    )

    def __init__(self, order: TermOrder, universe: VarUniverse, domain, pk: _Packing, basis=()):
        self.order, self.universe, self.domain, self.pk = order, universe, domain, pk
        self.ring = not getattr(domain, "is_field", False)
        self.lms: list[int] = []
        self.lcs: list = []
        self.tails: list = []
        self.vals: list[int] = []
        self.units: list = []
        self.lts, self.lt_pk = self.lms, pk
        if self.ring:
            self.lts, self.lt_pk = [], _packing(pk.nvars + 1, pk.width)
        self._polys: list[MPoly] = []
        self._keys: dict = {}
        self._monos: dict = {}
        self._divisors: dict = {}
        self._okey = pk.order_key(order)
        for g in basis:
            self.append(g)

    @classmethod
    def known(cls, order, universe, domain, pk: _Packing, basis) -> "_Reducers":
        """A field-mode table of an already-known basis, every row packed
        now: its leading monomial, leading coefficient and monic tail.  The
        ``gb_prefix`` of ``buchberger`` is built this way; a table kept for
        many runs is run on through ``fork``."""
        red = cls(order, universe, domain, pk, basis)
        for j in range(len(red.lms)):
            red._tail(j)
        return red

    def fork(self) -> "_Reducers":
        """A table that starts with these rows and leaves this one as it
        is: the row lists are copied, and the key caches are shared, since
        a key depends only on the order, the packing and the monomial.  The
        divisor cache, which depends on the rows, starts empty."""
        new = object.__new__(_Reducers)
        for name in self.__slots__:
            setattr(new, name, getattr(self, name))
        for name in ("lms", "lcs", "tails", "vals", "units", "_polys"):
            setattr(new, name, list(getattr(self, name)))
        new.lts = list(self.lts) if self.ring else new.lms
        new._divisors = {}
        return new

    def append(self, g: MPoly):
        lc, lm = g.leading_term(self.order)
        p = self.pk.pack(lm)
        self.lms.append(p)
        self.lcs.append(lc)
        self.tails.append(None)
        self._polys.append(g)
        if self.ring:
            v = self.domain.pi_valuation(lc)
            if v > self.pk.bound:
                raise self.pk.overflow()
            self.vals.append(v)
            self.units.append(self.domain.unshift(lc, v))
            self.lts.append(p << self.pk.field | v)

    def append_monic(self, work: dict):
        """Append the nonzero packed ``work``, its leading term first (as in
        a remainder of ``reduce``), as a monic row, with no ``MPoly``.  Field
        mode only."""
        terms = iter(work.items())
        lm, lc = next(terms)
        inv, mul = self.domain.inv(lc), self.domain.mul
        self.lms.append(lm)
        self.lcs.append(self.domain.one)
        self.tails.append([(m, mul(c, inv)) for m, c in terms])
        self._polys.append(None)

    def _tail(self, j: int) -> list:
        g, pack, mul = self._polys[j], self.pk.pack, self.domain.mul
        lm = g.leading_term(self.order)[1]
        if self.ring:
            tail = [(pack(m), c) for m, c in g.terms.items() if m != lm]
        else:
            inv = self.domain.inv(self.lcs[j])
            tail = [(pack(m), mul(c, inv)) for m, c in g.terms.items() if m != lm]
        self.tails[j] = tail
        return tail

    def key(self, p: int):
        """Negated order key of a packed monomial (``_Packing.order_key``),
        cached for the life of the table."""
        k = self._keys.get(p)
        if k is None:
            k = self._keys[p] = -self._okey(p)
            self._monos[k] = p
        return k

    def pack_poly(self, f: MPoly) -> dict:
        pack = self.pk.pack
        return {pack(m): c for m, c in f.terms.items()}

    def to_poly(self, terms: dict) -> MPoly:
        unpack = self.pk.unpack
        return MPoly(
            self.universe, self.domain, {unpack(m): c for m, c in terms.items()}, _clean=True
        )

    def remainder(self, terms: dict) -> MPoly:
        """``to_poly`` of a remainder from ``reduce``.  Its terms were moved
        there in descending order, so its first term is its leading term,
        which is recorded for ``MPoly.leading_term``."""
        f = self.to_poly(terms)
        if terms:
            m, c = next(iter(f.terms.items()))
            f._lt = {self.order: (c, m)}
        return f

    def spoly(self, i: int, j: int) -> dict:
        """S-polynomial of elements i and j, made from their monic tails
        (the leading terms cancel)."""
        lms, guard = self.lms, self.pk.guard
        l = self.pk.lcm(lms[i], lms[j])
        ti = self.tails[i]
        if ti is None:
            ti = self._tail(i)
        tj = self.tails[j]
        if tj is None:
            tj = self._tail(j)
        qi, qj = l - lms[i], l - lms[j]
        work = {m + qi: c for m, c in ti}
        sub, neg, iz = self.domain.sub, self.domain.neg, self.domain.is_zero
        for m, c in tj:
            mm = m + qj
            cur = work.get(mm)
            if cur is None:
                work[mm] = neg(c)
            else:
                s = sub(cur, c)
                if iz(s):
                    del work[mm]
                else:
                    work[mm] = s
        for m in work:
            if m & guard:
                raise self.pk.overflow()
        return work

    def s_combination(self, i: int, j: int) -> dict:
        """The S-combination of elements i and j as a packed dict: over a
        field the S-polynomial; over ``PiRing``, with v the larger of the
        two valuations, pi^(v - v_i) u_j x^(l - m_i) g_i minus
        pi^(v - v_j) u_i x^(l - m_j) g_j, whose leading terms cancel."""
        if not self.ring:
            return self.spoly(i, j)
        dom, lms, vals, units = self.domain, self.lms, self.vals, self.units
        l = self.pk.lcm(lms[i], lms[j])
        v = max(vals[i], vals[j])
        return self._combine((
            (i, l - lms[i], dom.shift(units[j], v - vals[i])),
            (j, l - lms[j], dom.neg(dom.shift(units[i], v - vals[j]))),
        ))

    def _combine(self, parts) -> dict:
        """Sum of c * x^q * tail_j over the (j, q, c) in ``parts``."""
        dom = self.domain
        add, mul, iz = dom.add, dom.mul, dom.is_zero
        work: dict = {}
        for j, q, c in parts:
            if iz(c):
                continue
            tail = self.tails[j]
            if tail is None:
                tail = self._tail(j)
            for m, gv in tail:
                mm = m + q
                cur = work.get(mm)
                if cur is None:
                    work[mm] = mul(c, gv)
                else:
                    s = add(cur, mul(c, gv))
                    if iz(s):
                        del work[mm]
                    else:
                        work[mm] = s
        guard = self.pk.guard
        for m in work:
            if m & guard:
                raise self.pk.overflow()
        return work

    def reduce(self, work: dict, *, observe=None) -> dict:
        """Normal form of the packed polynomial ``work`` (consumed).  Over
        ``PiRing`` it is a weak normal form: the remainder r has u f - r in
        the ideal for a unit u of L[pi]_(pi) (``_reduce_valuation``).

        ``observe`` (field mode), when given, is called before every step as
        ``observe(lm, lc, work, step)``: the largest remaining term lc*x^lm,
        already taken out of ``work``, which holds the rest of the working
        polynomial; and the step as (index, coefficient, packed quotient)
        triples, subtracting sum c * x^q * basis[index], or () when the term
        moves to the remainder.  It is the one view of the kernel's step
        choices: a textbook-division oracle in the tests replays them, and
        an engine stats sink can count steps through it."""
        if self.ring:
            return self._reduce_valuation(work)
        lms, lcs, tails = self.lms, self.lcs, self.tails
        guard = self.pk.guard
        divisors = self._divisors
        none_yet = ~len(lms)
        dom = self.domain
        mul, sub, neg, iz = dom.mul, dom.sub, dom.neg, dom.is_zero
        keys, key, monos = self._keys, self.key, self._monos
        heappush, heappop = heapq.heappush, heapq.heappop
        heap = [key(m) for m in work]
        heapq.heapify(heap)
        remainder: dict = {}
        while heap:
            lm = monos[heappop(heap)]
            lc = work.pop(lm, None)
            if lc is None:  # cancelled after it was pushed
                continue
            j = divisors.get(lm, -1)
            if j < 0 and j != none_yet:
                # a cached ~k says the first k elements divide lm not (k = 0
                # when uncached); elements appended since come last
                k = ~j
                for j, glm in enumerate(lms[k:] if k else lms, k):
                    q = lm - glm
                    if q >= 0 and not q & guard:
                        break
                else:
                    j = none_yet
                divisors[lm] = j
            if j < 0:
                remainder[lm] = lc
                if observe is not None:
                    observe(lm, lc, work, ())
                continue
            q = lm - lms[j]
            if observe is not None:
                observe(lm, lc, work, ((j, dom.div(lc, lcs[j]), q),))
            tail = tails[j]
            if tail is None:
                tail = self._tail(j)
            for m, gv in tail:
                mm = m + q
                cur = work.get(mm)
                if cur is None:
                    if mm & guard:
                        raise self.pk.overflow()
                    work[mm] = neg(mul(lc, gv))
                    k = keys.get(mm)
                    if k is None:  # a key may be 0, so no ``or``
                        k = key(mm)
                    heappush(heap, k)
                else:
                    s = sub(cur, mul(lc, gv))
                    if iz(s):
                        del work[mm]
                    else:
                        work[mm] = s
        return remainder

    def _reduce_valuation(self, work: dict) -> dict:
        """The ``PiRing`` branch of ``reduce``.  A step on c x^m takes the
        element j of least valuation v_j among those whose leading monomial
        divides x^m; when v_j is at most the valuation of c, the working
        polynomial becomes u_j work - (c / pi^v_j) x^q tail_j, with
        x^q = x^m / lm_j, and the remainder so far is multiplied by u_j as
        well.  ``_divisors`` caches that element (-1 for none) per monomial
        with the table length scanned."""
        lms, vals, units, tails = self.lms, self.vals, self.units, self.tails
        guard = self.pk.guard
        divisors = self._divisors
        dom = self.domain
        mul, sub, neg, iz, one = dom.mul, dom.sub, dom.neg, dom.is_zero, dom.one
        valuation, unshift = dom.pi_valuation, dom.unshift
        keys, key, monos = self._keys, self.key, self._monos
        heappush, heappop = heapq.heappush, heapq.heappop
        heap = [key(m) for m in work]
        heapq.heapify(heap)
        remainder: dict = {}
        while heap:
            lm = monos[heappop(heap)]
            lc = work.pop(lm, None)
            if lc is None:  # cancelled after it was pushed
                continue
            j, scanned = divisors.get(lm, (-1, 0))
            if scanned < len(lms):  # new elements come last in basis order
                for k in range(scanned, len(lms)):
                    q = lm - lms[k]
                    if q >= 0 and not q & guard and (j < 0 or vals[k] < vals[j]):
                        j = k
                divisors[lm] = (j, len(lms))
            if j < 0 or vals[j] > valuation(lc):
                remainder[lm] = lc
                continue
            u = units[j]
            if u != one:
                for part in (work, remainder):
                    for m, c in part.items():
                        part[m] = mul(u, c)
            c = unshift(lc, vals[j])
            q = lm - lms[j]
            tail = tails[j]
            if tail is None:
                tail = self._tail(j)
            for m, gv in tail:
                mm = m + q
                cur = work.get(mm)
                if cur is None:
                    if mm & guard:
                        raise self.pk.overflow()
                    work[mm] = neg(mul(c, gv))
                    k = keys.get(mm)
                    if k is None:
                        k = key(mm)
                    heappush(heap, k)
                else:
                    s = sub(cur, mul(c, gv))
                    if iz(s):
                        del work[mm]
                    else:
                        work[mm] = s
        return remainder


def normal_form(f: MPoly, G, order: TermOrder) -> MPoly:
    """Normal form of f modulo G: rewrite leading terms while possible, move
    irreducible leading terms to the remainder, continue on the tail.  Over
    ``PiRing`` it is the weak normal form of ``_Reducers.reduce``, correct
    up to a unit of L[pi]_(pi)."""
    return normal_forms([f], G, order)[0]


def normal_forms(fs, G, order: TermOrder) -> list:
    """``normal_form`` of every f in ``fs`` modulo G, against one reducer
    table built once."""
    fs = list(fs)
    if not fs:
        return []
    basis = [g for g in G if g]

    def run(pk):
        red = _Reducers(order, fs[0].universe, fs[0].domain, pk, basis)
        return [red.remainder(red.reduce(red.pack_poly(f))) for f in fs]

    return _widening(run, fs[0].universe.nvars)


# ---------------------------------------------------------------------------
# the linear-algebra kernel


class _Echelon:
    """A sparse row-echelon form over GF(p) or Q on packed monomials.  A
    row is a dict from packed monomial to int; ``insert`` reduces it in
    place, largest monomial first, until it has no monomial left (True) or
    its largest monomial has no pivot, where the remainder becomes that
    monomial's pivot (False).  A row may carry its combination of the
    input rows under negative keys, ~k for input k: below every packed
    monomial, those entries are never a lead and undergo the same steps.

    Over GF(p) a pivot is a monic tail list, the lead removed, and a step
    subtracts c times it with no reduction: a coefficient is reduced mod p
    only when it is read as a lead.  Over Q rows are primitive integer
    vectors (``row`` clears denominators and content once): a step with
    pivot lead a and row lead b sets the row to (a v - b r) / g, with a and
    b divided by their gcd and g the content of the result, so no
    ``Fraction`` enters the loop."""

    __slots__ = ("p", "pivots", "insert")

    def __init__(self, domain):
        if not getattr(domain, "is_field", False):
            raise DomainError(f"linear algebra needs GF(p) or Q, not {domain!r}")
        self.p = domain.characteristic
        self.pivots: dict = {}
        self.insert = self._insert_mod if self.p else self._insert_int

    def row(self, f: MPoly, pack) -> tuple:
        """(packed terms of f as a list, s) with the ints of the list equal
        to s times f's coefficients: s = 1 over GF(p), and over Q the s
        that makes them primitive integers."""
        terms = f.terms
        if self.p or not terms:
            return [(pack(m), c) for m, c in terms.items()], 1
        den = int_lcm(*[c.denominator for c in terms.values()])
        ints = [(pack(m), c.numerator * (den // c.denominator)) for m, c in terms.items()]
        g = int_gcd(*[c for _, c in ints])
        return [(m, c // g) for m, c in ints], Fraction(den, g)

    def _insert_mod(self, vec: dict) -> bool:
        p, pivots = self.p, self.pivots
        while vec:
            lead = max(vec)
            if lead < 0:
                break
            c = vec.pop(lead) % p
            if not c:
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(c, -1, p)
                pivots[lead] = [(m, w) for m, v in vec.items() if (w := v * inv % p)]
                return False
            get = vec.get
            for m, v in pivot:
                vec[m] = get(m, 0) - c * v
        return True

    def _insert_int(self, vec: dict) -> bool:
        pivots = self.pivots
        while vec:
            lead = max(vec)
            if lead < 0:
                break
            pivot = pivots.get(lead)
            b = vec.pop(lead)
            if pivot is None:
                pivots[lead] = (b, list(vec.items()))
                return False
            a, tail = pivot
            g = int_gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for m in vec:
                    vec[m] *= a
            get = vec.get
            for m, v in tail:
                w = get(m, 0) - b * v
                if w:
                    vec[m] = w
                else:
                    del vec[m]
            g = int_gcd(*vec.values())
            if g > 1:
                for m in vec:
                    vec[m] //= g
        return True


def span_member(f: MPoly, gens, degree: int) -> bool:
    """Is f a linear combination of the products x^q g, for g in ``gens``
    and deg(x^q) <= ``degree`` - deg(g)?  This is membership in the
    degree-bounded Macaulay matrix of the ideal.  Each g is packed once and
    a product is one addition per term; with q of degree at most k, a
    product overflows the packing exactly when g's fieldwise largest
    exponents plus k in every field do, so one guard test per g covers all
    its products."""

    def run(pk):
        ech, pack = _Echelon(f.domain), pk.pack
        units = [1 << pk.field * i for i in range(pk.nvars)]
        levels = [{0}]  # the packed monomials of each degree
        shifts = {}  # k -> the packed monomials of degree at most k, sorted
        for g in gens:
            k = degree - g.total_degree()
            if k < 0:
                continue
            row = ech.row(g, pack)[0]
            top = functools.reduce(pk.lcm, [m for m, _ in row], 0)
            if k > pk.bound or (top + k * sum(units)) & pk.guard:
                raise pk.overflow()
            while len(levels) <= k:
                levels.append({m + u for m in levels[-1] for u in units})
            if k not in shifts:
                shifts[k] = sorted(itertools.chain.from_iterable(levels[: k + 1]))
            for s in shifts[k]:
                ech.insert({m + s: c for m, c in row})
        return ech.insert(dict(ech.row(f, pack)[0]))

    return _widening(run, f.universe.nvars)


def linear_relations(vectors, limit: int) -> list:
    """The relations among ``vectors`` (polynomials over GF(p) or Q) that
    the echelon form meets, for the first ``limit`` vectors that are
    combinations of the ones before them: the coefficients {index: lambda}
    with sum lambda_k vectors[k] = 0, one on that vector and otherwise
    nonzero only on earlier vectors that are not such combinations.
    Those vectors are independent, so the relation is unique."""
    vectors = list(vectors)
    if not vectors:
        return []

    def run(pk):
        ech, out, scales = _Echelon(vectors[0].domain), [], []
        for k, v in enumerate(vectors):
            row, s = ech.row(v, pk.pack)
            scales.append(s)
            vec = dict(row)
            vec[~k] = 1
            if ech.insert(vec):
                out.append((k, {~j: c for j, c in vec.items()}))
                if len(out) == limit:
                    break
        return out, scales

    relations, scales = _widening(run, vectors[0].universe.nvars)
    p = vectors[0].domain.characteristic
    if p:
        return [{j: w for j, v in combo.items() if (w := v % p)} for _, combo in relations]
    return [
        {j: Fraction(v) * scales[j] / (combo[k] * scales[k]) for j, v in combo.items() if v}
        for k, combo in relations
    ]


# ---------------------------------------------------------------------------
# normalization helpers


def field_normalize(f: MPoly, order: TermOrder) -> MPoly:
    """Monic over a prime field; over Q, divide by the rational content and
    make the leading coefficient positive (tames coefficient growth)."""
    if not f:
        return f
    dom = f.domain
    lc, _ = f.leading_term(order)
    if dom.characteristic == 0:
        num_gcd, den_lcm = 0, 1
        for c in f.terms.values():
            num_gcd = int_gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
        factor = Fraction(num_gcd, den_lcm)
        if lc < 0:
            factor = -factor
        return f if factor == 1 else f.scale(1 / factor)
    if lc == dom.one:
        return f
    return f.scale(dom.inv(lc))


# ---------------------------------------------------------------------------
# Buchberger, field mode


def _gm_update(red: _Reducers, pairs: dict, t: int) -> list:
    """Gebauer-Moeller update when element t is appended.  ``pairs`` maps
    each pending pair (i, j) to the lcm of its packed leading terms
    (``_Reducers.lts``); the pairs that t makes redundant are deleted from
    it and the surviving new pairs (i, t) are added, each lcm computed
    once.  Returns the new pairs as (i, t, lcm) triples.

    Over a field a leading term is the leading monomial.  Over ``PiRing``
    it is pi^v x^m, v the valuation of the leading coefficient, with v in
    a last field, so the criteria compare valuations by field arithmetic:
    the lcm takes the larger valuation, a term divides another when its
    valuation is at most the other's, and the product criterion needs
    coprime monomials and one valuation 0."""
    lts, pk = red.lts, red.lt_pk
    guard, lm_t = pk.guard, lts[t]
    top, lcms = pk.field - 1, []
    for lm in lts[:t]:  # ``_Packing.lcm``, inline
        ge = ((lm | guard) - lm_t) & guard
        lcms.append(lm_t ^ ((lm ^ lm_t) & (ge - (ge >> top))))
    doomed = []
    for (i, j), l in pairs.items():
        q = l - lm_t
        if q >= 0 and not q & guard and l != lcms[i] and l != lcms[j]:
            doomed.append((i, j))
    for ij in doomed:
        del pairs[ij]
    # by degree, ties by index: a strict divisor comes first, so the lcms
    # kept are those with no strict divisor among the candidates, whichever
    # order extends divisibility, and of equal lcms the one with least i
    degree = pk.degree
    cands = sorted(range(t), key=[degree(l) for l in lcms].__getitem__)
    new = []
    kept: list[int] = []
    for i in cands:
        l = lcms[i]
        for l2 in kept:
            q = l - l2
            if q >= 0 and not q & guard:  # a kept lcm divides or equals l
                break
        else:
            kept.append(l)
            if l != lts[i] + lm_t:  # else coprime
                pairs[(i, t)] = l
                new.append((i, t, l))
    return new


def buchberger(
    gens,
    order: TermOrder,
    *,
    sat_var: int | None = None,
    cap_seconds: float | None = None,
    trace_log: list | None = None,
    reduced: bool = True,
    gb_prefix: int = 0,
    hilbert=None,
    _tables: dict | None = None,
):
    """Groebner basis of <gens> with respect to ``order``, over a field.
    The ring is the one of the generators: the universe and domain of the
    first nonzero one, which all the others share.

    ``sat_var`` divides every inserted polynomial by its content in that
    variable; with a compatible weighted order this computes a basis of the
    saturation directly.  Callers own the homogeneity precondition.
    ``cap_seconds`` is checked before every input reduction and every
    pair.

    ``gb_prefix`` marks the first k generators as an already-known basis
    with respect to ``order``: pairs among them are skipped.  Sound only
    when the prefix really is one (incremental queries against a cached
    basis).  ``_tables`` (internal; ``radical_membership``) keeps the
    packed table of the prefix per packing width, for the life of the
    dict: a run at a width with no table builds it there, and every run
    appends to a ``fork`` of it, so the prefix is packed once for many
    runs.  The prefix generators must be the same in every such run.

    ``hilbert = (blocks, target)`` prunes pairs by the
    Hilbert function (Traverso): a popped pair is skipped, unreduced, once
    the leading monomials leave exactly ``target(a)`` standard monomials in
    the block multidegree a of its lcm.  Sound when every generator is
    homogeneous per block and ``target(a)`` is the number of standard
    monomials of the final basis in multidegree a, counted over the
    monomials in the blocks' variables; a variable outside ``blocks`` may
    only be ``sat_var``, whose content division keeps it out of the leading
    monomials.  A count that falls below its target proves the target wrong
    and raises ``DomainError``.  The pruned pairs would reduce to zero, so
    the basis is the one computed without the target.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    universe, domain = gens[0].universe, gens[0].domain
    if not getattr(domain, "is_field", False):
        raise DomainError("buchberger needs field coefficients")
    if hilbert is not None:
        blocks = hilbert[0]
        covered = [p for blk in blocks for p in blk]
        if len(set(covered)) != len(covered):
            raise DomainError("blocks must be disjoint")
        if set(range(universe.nvars)) - set(covered) - {sat_var}:
            raise DomainError("a Hilbert target needs every variable but sat_var in a block")
        if not all(g.is_multihomogeneous(blocks) for g in gens):
            raise DomainError("a Hilbert target needs generators homogeneous per block")
    return _buchberger_field(
        gens, order, universe, domain, sat_var, cap_seconds, trace_log, reduced,
        gb_prefix, hilbert, _tables,
    )


def _buchberger_field(
    gens, order, universe, domain, sat_var, cap_seconds, trace_log, reduced,
    gb_prefix=0, hilbert=None, tables=None,
):
    t0 = time.monotonic()
    log_start = len(trace_log) if trace_log is not None else 0

    def run(pk):
        if trace_log is not None:
            del trace_log[log_start:]  # lines of a narrower run
        base = None if tables is None else tables.get(pk.width)
        if base is None:
            prefix = [field_normalize(g, order) for g in gens[:gb_prefix]]
            base = _Reducers.known(order, universe, domain, pk, prefix)
            if tables is not None:
                tables[pk.width] = base
        prefix = base._polys[:gb_prefix]
        red = base if tables is None else base.fork()
        pairs: dict = {}  # pending pair (i, j) -> lcm of its leading monomials

        def check_cap():
            if cap_seconds is not None and time.monotonic() - t0 >= cap_seconds:
                raise ResourceCapExceeded(
                    f"buchberger exceeded {cap_seconds:g}s "
                    f"({len(red.lms)} basis elements, {len(pairs)} pairs pending)"
                )

        if sat_var is None:
            def divided(work):
                return work
        else:
            at, fm = pk.field * (pk.nvars - 1 - sat_var), (1 << pk.field) - 1

            def divided(work):
                """The packed ``work`` divided by its content in sat_var.  A
                remainder stays one: no leading monomial divides m / x^c
                unless it divides m, so the quotient needs no reduction."""
                c = min([m >> at & fm for m in work])
                if not c:
                    return work
                c <<= at
                return {m - c: v for m, v in work.items()}

        # smallest leading monomial first: a packed input's least negated
        # key is its leading monomial's (the sort is stable)
        inputs = [red.pack_poly(f) for f in gens[gb_prefix:]]
        inputs.sort(key=lambda work: min(map(red.key, work)), reverse=True)
        for work in inputs:
            check_cap()
            r = red.reduce(divided(work))
            if r:
                red.append_monic(divided(r))
                _gm_update(red, pairs, len(red.lms) - 1)

        # normal selection: the smallest lcm first (red.key is negated)
        key = red.key
        heap = [(-key(l), i, j) for (i, j), l in pairs.items()]
        heapq.heapify(heap)
        gate = _HilbertGate(pk, universe.nvars, *hilbert) if hilbert is not None else None

        while heap:
            check_cap()
            _, i, j = heapq.heappop(heap)
            l = pairs.pop((i, j), None)
            if l is None:  # removed by a later update
                continue
            if gate is not None and gate.complete(red.lms, l):
                r = None  # pruned: it would reduce to zero
            else:
                r = red.reduce(red.spoly(i, j))
            if trace_log is not None:
                outcome = "pruned" if r is None else "new" if r else "0"
                trace_log.append(f"pair ({i},{j}) lcm {pk.unpack(l)} -> {outcome}")
            if not r:
                continue
            red.append_monic(divided(r))
            for a, b, l in _gm_update(red, pairs, len(red.lms) - 1):
                heapq.heappush(heap, (-key(l), a, b))
        if reduced:
            return _reduced_rows(red, _minimal_rows(red))
        one = domain.one
        return prefix + [
            field_normalize(red.remainder({red.lms[j]: one, **dict(red.tails[j])}), order)
            for j in range(len(prefix), len(red.lms))
        ]

    return _widening(run, universe.nvars)


def interreduce(G, order: TermOrder):
    """The reduced basis: minimal leading monomials, fully reduced tails,
    normalized leading coefficients, sorted ascending by leading monomial.

    A minimal element keeps its leading term and only its tail is reduced,
    all tails against one table, so they share its key and divisor caches.
    The element's own leading monomial divides none of its smaller tail
    monomials, and no other minimal one divides its leading monomial, so
    this is the reduction of the whole element by the others.
    ``buchberger`` does the same on its own table (``_reduced_rows`` of
    ``_minimal_rows``): the normal form modulo a Groebner basis is unique,
    so the tails reduce against the whole basis to the same result.
    """
    items = [g for g in G if g]
    if not items:
        return []

    def run(pk):
        red = _Reducers(order, items[0].universe, items[0].domain, pk, items)
        rows = _minimal_rows(red)
        if len(rows) < len(items):
            red = _Reducers(order, red.universe, red.domain, pk, [items[i] for i in rows])
            rows = range(len(rows))
        return _reduced_rows(red, rows)

    return _widening(run, items[0].universe.nvars)


def _minimal_rows(red: _Reducers) -> list:
    """Indices of the rows of ``red`` whose leading monomial no other row's
    divides, ascending by leading monomial; of equal ones, the first."""
    lms, key, guard = red.lms, red.key, red.pk.guard
    minimal: list[int] = []
    # ``key`` is negated; a reversed sort is stable, so equal ones keep their order
    for i in sorted(range(len(lms)), key=lambda i: key(lms[i]), reverse=True):
        lm = lms[i]
        for k in minimal:
            q = lm - lms[k]
            if q >= 0 and not q & guard:
                break
        else:
            minimal.append(i)
    return minimal


def _reduced_rows(red: _Reducers, rows) -> list:
    """The given rows of ``red``, each as its leading monomial plus the
    normal form of its monic tail against the whole table, normalized."""
    one = red.domain.one
    out = []
    for i in rows:
        tail = red.tails[i]
        if tail is None:
            tail = red._tail(i)
        rem = {red.lms[i]: one}
        rem.update(red.reduce(dict(tail)))
        out.append(field_normalize(red.remainder(rem), red.order))
    return out


# ---------------------------------------------------------------------------
# derived operations


def is_groebner(
    G,
    order: TermOrder,
    *,
    cap_seconds: float | None = None,
    _members=(),
):
    """Syzygy criterion: the S-combination of every pair that survives a
    Gebauer-Moeller update (``_gm_update``, replayed over G in order)
    reduces to zero.  Returns (ok, witness), the witness an S-combination
    with a nonzero normal form.  ``cap_seconds`` is checked before each
    reduction.

    The mode follows the domain.  Over ``PiRing`` the test is for a
    standard basis over the valuation ring L[pi]_(pi): the update compares
    leading terms pi^v x^m, and the reduction is the weak one of
    ``_Reducers.reduce``.  Of two leading coefficients there one divides
    the other, so the pairwise S-syzygies generate the syzygies of the
    leading terms, and a set whose surviving S-combinations reduce to zero
    is a standard basis (Markwig, Ren and Wienand, JSC 79, 2017).

    ``_members`` (internal; the basis test of ``specialize``) must also
    reduce to zero, on the same reducer table, after every pair: then G is
    a basis of an ideal holding them.  The first that does not is the
    witness, and the cap is checked before each of them too."""
    G = [g for g in G if g]
    members = [f for f in _members if f]
    if len(G) <= 1 and not members:
        return True, None
    if not G:
        return False, members[0]
    t0 = time.monotonic()
    return _widening(
        lambda pk: _is_groebner_packed(G, members, order, pk, t0, cap_seconds),
        G[0].universe.nvars,
    )


def _is_groebner_packed(G, members, order, pk, t0, cap_seconds):
    red = _Reducers(order, G[0].universe, G[0].domain, pk, G)
    pairs: dict = {}
    for t in range(len(G)):
        _gm_update(red, pairs, t)
    todo = sorted(pairs, key=lambda ij: (ij[1], ij[0]))

    def check_cap(k):
        # k reductions are done: the pairs first, then the members
        if cap_seconds is not None and time.monotonic() - t0 >= cap_seconds:
            n = len(todo)
            done = f"{k} of {n} pairs"
            if k >= n:
                done = f"{n} of {n} pairs, {k - n} of {len(members)} members"
            raise ResourceCapExceeded(f"is_groebner exceeded {cap_seconds:g}s ({done} reduced)")

    for k, (i, j) in enumerate(todo):
        check_cap(k)
        cand = red.s_combination(i, j)
        if red.reduce(dict(cand)):
            return False, red.to_poly(cand)
    for k, f in enumerate(members, len(todo)):
        check_cap(k)
        if red.reduce(red.pack_poly(f)):
            return False, f
    return True, None


def fresh_aux_names(universe: VarUniverse, count: int) -> list[str]:
    out: list[str] = []
    k = 0
    while len(out) < count:
        name = f"t[{k}]"
        if name not in universe:
            out.append(name)
        k += 1
    return out


def _adjoin_inverses(universe: VarUniverse, gens, elems):
    """The Rabinowitsch system <gens, 1 - t_1 a_1, ..., 1 - t_l a_l> of
    polynomials over ``universe``: returns (big, aux, lifted), with ``big``
    the universe extended by the fresh auxiliaries ``aux`` (t[0], t[1], ...
    skipping names in use) and ``lifted`` the generators relabelled into it,
    then one 1 - t_i a_i per element, in order."""
    aux = fresh_aux_names(universe, len(elems))
    big = universe.extend(aux)
    dom = elems[0].domain
    one = MPoly.const(big, dom, dom.one)
    lifted = [g.relabel(big) for g in gens]
    for name, a in zip(aux, elems):
        lifted.append(one - MPoly.var(big, dom, name) * a.relabel(big))
    return big, aux, lifted


def weight_homogeneous(f: MPoly, weights) -> bool:
    """Every term of f has the weight of the first (the zero polynomial
    is homogeneous); stops at the first term that differs."""
    terms = iter(f.terms)
    first = next(terms, None)
    if first is None:
        return True
    mul = operator.mul
    w = sum(map(mul, weights, first))
    return all(sum(map(mul, weights, m)) == w for m in terms)


def saturate(
    I: Ideal,
    elems,
    *,
    pi_fast_weights=None,
    cap_seconds: float | None = None,
    trace_log: list | None = None,
    hilbert=None,
    saturated: Ideal | None = None,
) -> Ideal:
    """sat(I, a_1..a_l) = <I, 1 - t_1 a_1, ..., 1 - t_l a_l> ∩ A.

    The fresh auxiliaries t_i are eliminated by ``eliminate``, and the
    result caches its generators as its basis under ``default_order``.
    With ``pi_fast_weights`` and a single saturating element that is a
    weight-1 variable under which all generators are weight homogeneous,
    the content-division fast path runs instead and returns an equal ideal.

    ``saturated`` extends a saturation already known: an ideal S with
    S = sat(S), in the universe of I.  The result is sat(S + I), which is
    sat(J + I) for every J with sat(J) = S, since J + I lies in S + I and
    S + I in sat(J + I).  On the fast path, the basis of S the fast path
    caches (under its weighted order) goes first as ``buchberger``'s
    ``gb_prefix``, so only I's generators are new; on the elimination
    route, or when S holds no such basis, S's generators join I's.

    ``hilbert = (blocks, target)`` goes to ``buchberger`` on the fast path
    only, and the elimination route ignores it.  It is sound when
    ``target(a)`` counts the standard monomials of the saturation's special
    fibre (the saturating variable set to zero) in block multidegree a;
    every variable but the saturating one must lie in a block.  A target
    shown wrong by the count raises ``DomainError``.
    """
    elems = list(elems)
    uni, dom = I.universe, I.domain
    if saturated is not None and I.is_zero():
        return saturated
    if I.is_zero() or not elems:
        return I
    for a in elems:
        if not a or a.is_constant():
            raise DomainError("saturating elements must be nonzero non-units")
    gens = list(I.generators)
    if saturated is not None:
        gens = list(saturated.generators) + gens

    if pi_fast_weights is not None and len(elems) == 1 and elems[0].is_monomial():
        mono = next(iter(elems[0].terms))
        if sum(mono) == 1:
            pos = mono.index(1)
            wts = tuple(pi_fast_weights)
            if wts[pos] == 1 and all(weight_homogeneous(g, wts) for g in gens):
                worder = WeightedPiOrder(wts, pos)
                prefix = () if saturated is None else saturated._gb_cache.get(worder, ())
                if prefix:
                    gens = list(prefix) + list(I.generators)
                gb = buchberger(
                    gens,
                    worder,
                    sat_var=pos,
                    cap_seconds=cap_seconds,
                    trace_log=trace_log,
                    gb_prefix=len(prefix),
                    hilbert=hilbert,
                )
                out = Ideal(gb, uni, dom)
                out._gb_cache[worder] = tuple(gb)
                return out

    big, aux, lifted = _adjoin_inverses(uni, gens, elems)
    out = eliminate(Ideal(lifted, big, dom), aux, cap_seconds=cap_seconds, trace_log=trace_log)
    # the aux-free part of a reduced basis under the elimination order is
    # the reduced basis of its ideal under the order on the rest
    out._gb_cache[default_order(uni)] = out.generators
    return out


def eliminate(
    I: Ideal,
    var_names,
    *,
    cap_seconds: float | None = None,
    trace_log: list | None = None,
) -> Ideal:
    """Generators of I ∩ (subring without ``var_names``): the reduced basis
    under the block order with the eliminated variables (degrevlex) above
    ``default_order`` on the rest, less the elements that involve them."""
    var_names = list(var_names)
    uni, dom = I.universe, I.domain
    targets = set(var_names)
    keeps_grid = uni.grid is not None and not any(n.startswith("x[") for n in targets)
    small = VarUniverse(
        tuple(n for n in uni.names if n not in targets),
        uni.grid if keeps_grid else None,
    )
    if I.is_zero():
        return Ideal((), small, dom)
    pos = tuple(uni.index(v) for v in var_names)
    rest = tuple(i for i in range(uni.nvars) if uni.names[i] not in targets)
    order = Block(((pos, DegRevLex()), (rest, default_order(small))), name="elim")
    gb = buchberger(list(I.generators), order, cap_seconds=cap_seconds, trace_log=trace_log)
    kept = [g for g in gb if all(m[p] == 0 for m in g.terms for p in pos)]
    return Ideal([g.relabel(small) for g in kept], small, dom)


def radical_membership(f: MPoly, I: Ideal, *, cap_seconds: float | None = None) -> bool:
    """f in sqrt(I), by the trick of adjoining 1 - t f and testing whether the
    ideal becomes the whole ring.  Field coefficients only.

    The basis of I (under ``default_order``, cached on I) is a known prefix
    of the extended run.  The first query lifts it by ``_adjoin_inverses``
    and keeps, on I (``Ideal._radical_prefix``), the lifted basis, the
    extended order and a table per packing width that ``buchberger``
    builds once; every query runs on a fork of it, so only the row 1 - t f
    is new.  The kept prefix lives and dies with I.

    ``cap_seconds`` bounds the basis of I and the extended run together:
    the extension gets the time the basis left.  A cap hit raises
    ``ResourceCapExceeded`` with no phase, so a caller's ``Deadline`` names
    its own."""
    if not getattr(I.domain, "is_field", False):
        raise DomainError("radical membership needs field coefficients")
    if not f:
        return True
    uni = I.universe
    t0 = time.monotonic()
    # seed with the cached basis of I: appending one trailing degrevlex
    # variable preserves leading terms of aux-free polynomials, so the many
    # radical queries against one ideal share the heavy part of the work
    base_order = default_order(uni)
    base_gb = I.groebner_basis(base_order, cap_seconds=cap_seconds)
    if f.is_constant():
        # a nonzero constant is in the radical iff the ideal is the ring
        return any(g.is_constant() for g in base_gb)
    left = None
    if cap_seconds is not None:
        left = cap_seconds - (time.monotonic() - t0)
        if left <= 0:
            raise ResourceCapExceeded(
                f"radical membership exceeded {cap_seconds:g}s (basis of {len(base_gb)} elements)"
            )
    known = I._radical_prefix.get(base_order)
    if known is None:
        big, _aux, gens = _adjoin_inverses(uni, base_gb, [f])
        # the lifted basis, the extended order, the packed tables by width
        known = I._radical_prefix[base_order] = (
            gens[:-1], _append_aux_order(base_order, uni, big), {}
        )
    else:
        big, _aux, row = _adjoin_inverses(uni, (), [f])
        gens = known[0] + row
    lifted, ext_order, tables = known
    gb = buchberger(
        gens,
        ext_order,
        cap_seconds=left,
        reduced=False,
        gb_prefix=len(lifted),
        _tables=tables,
    )
    return any(g.is_constant() for g in gb)


def _append_aux_order(order: TermOrder, uni: VarUniverse, big: VarUniverse) -> TermOrder:
    """Extend an order on ``uni`` to ``big`` (one extra trailing variable)
    so that comparisons of old monomials are unchanged."""
    aux_pos = tuple(range(uni.nvars, big.nvars))
    if isinstance(order, Block):
        segments = tuple(order.segments) + ((aux_pos, DegRevLex()),)
        return Block(segments, name=order.name + "+aux")
    return Block(
        ((tuple(range(uni.nvars)), order), (aux_pos, DegRevLex())),
        name="base+aux",
    )


def minimalize_monomials(monos) -> list:
    """Divisibility-minimal subset, sorted (degree, exponents)."""
    monos = list(monos)
    if not monos:
        return []

    def run(pk):
        packed = {pk.pack(m) for m in monos}
        return [pk.unpack(p) for p in _minimal_packed(pk, packed)]

    return _widening(run, len(monos[0]))


def _minimal_packed(pk: _Packing, packed) -> list:
    """Divisibility-minimal subset of a set of packed monomials, sorted
    (degree, exponents)."""
    guard, degree = pk.guard, pk.degree
    out: list[int] = []
    for _, p in sorted((degree(p), p) for p in packed):
        for o in out:
            q = p - o
            if q >= 0 and not q & guard:
                break
        else:
            out.append(p)
    return out


def in_monomial_ideal(fs, monos) -> list:
    """For each polynomial in ``fs``: does every term lie in the monomial
    ideal generated by the exponent tuples ``monos``?  The generators are
    packed once, and a term lies in the ideal when one of them divides it."""
    fs = list(fs)
    if not fs:
        return []

    def run(pk):
        guard, pack = pk.guard, pk.pack
        gens = [pack(m) for m in monos]

        def inside(p):
            for g in gens:
                q = p - g
                if q >= 0 and not q & guard:
                    return True
            return False

        return [all(inside(pack(m)) for m in f.terms) for f in fs]

    return _widening(run, fs[0].universe.nvars)


def intersect_monomial_ideals(ideals) -> Ideal:
    """Minimal generators of the intersection: iterated pairwise lcm of
    generators followed by divisibility minimalization."""
    ideals = list(ideals)
    if not ideals:
        raise DomainError("need at least one ideal")
    uni, dom = ideals[0].universe, ideals[0].domain
    for I in ideals:
        if not I.is_monomial():
            raise DomainError("intersection requires monomial generators")

    def run(pk):
        # an lcm is a fieldwise maximum, so only packing an input can overflow
        def monos(I):
            return [pk.pack(next(iter(g.terms))) for g in I.generators]

        current = _minimal_packed(pk, set(monos(ideals[0])))
        lcm = pk.lcm
        for I in ideals[1:]:
            other = monos(I)
            if not other or not current:
                return []
            current = _minimal_packed(pk, {lcm(a, b) for a in current for b in other})
        return sorted(map(pk.unpack, current))

    gens = [MPoly.term(uni, dom, dom.one, m) for m in _widening(run, uni.nvars)]
    return Ideal(gens, uni, dom)


def compositions(total: int, parts: int):
    """All tuples of ``parts`` naturals summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


class _BoxMonomials:
    """The monomials of one multidegree over disjoint variable blocks, as
    packed ints.  A monomial of multidegree a is the sum of one packed part
    per block, a part being a monomial of degree a_j in block j alone; the
    parts come from ``compositions`` and are built once per (block, degree)."""

    __slots__ = ("pk", "nvars", "blocks", "_parts")

    def __init__(self, pk: _Packing, nvars: int, blocks):
        self.pk, self.nvars, self.blocks = pk, nvars, blocks
        self._parts: dict = {}

    def part(self, j: int, dg: int) -> list:
        out = self._parts.get((j, dg))
        if out is None:
            blk = self.blocks[j]
            out = []
            for exps in compositions(dg, len(blk)):
                mono = [0] * self.nvars
                for p, e in zip(blk, exps):
                    mono[p] = e
                out.append(self.pk.pack(mono))
            self._parts[(j, dg)] = out
        return out

    def count(self, mdeg) -> int:
        """How many monomials multidegree ``mdeg`` has."""
        out = 1
        for blk, dg in zip(self.blocks, mdeg):
            if blk:  # an empty block has degree 0 and one monomial, 1
                out *= comb(dg + len(blk) - 1, dg)
        return out

    def of(self, mdeg) -> list:
        """Every monomial of multidegree ``mdeg``, packed."""
        out = [0]
        for j, dg in enumerate(mdeg):
            part = self.part(j, dg)
            out = [a + b for a in out for b in part]
        return out


# monomials a Hilbert count may hold per pair already popped in its
# multidegree: one reduction costs about as much as striking a few thousand
# packed monomials from a set
_PAIR_COST = 4096


class _HilbertGate:
    """Traverso's Hilbert-driven test for a growing basis whose
    multihomogeneous ideal has the Hilbert function ``target``: multidegree
    a is complete once the leading monomials leave exactly target(a)
    standard monomials in it.  Then no element of multidegree a can bring a
    new leading monomial, so every pair whose lcm lies in a reduces to zero.

    Counting is lazy and incremental, and counts the struck monomials, not
    the standard ones: a multidegree keeps the set of its monomials that
    some leading monomial divides, and has count(a) minus its size standard
    monomials.  It gets its set when it is asked about, as soon as the
    pairs popped in it reach one per ``_PAIR_COST`` of its monomials (the
    first pair, unless the multidegree is large and its pairs few: their
    reductions are then cheaper than the count).  Each leading monomial l of
    multidegree b <= a adds its multiples l + m, m of multidegree a - b,
    once, when a is next asked about.  A leading monomial with a variable
    outside the blocks divides no monomial of a multidegree and is passed
    over.  A complete multidegree drops its set.  A count below its target
    means the target is wrong (the leading monomials lie in the initial
    ideal, whose count it is) and raises ``DomainError``.  Multidegrees are
    compared packed, one field per block (``mdeg``), so b <= a is one
    subtraction and one mask."""

    __slots__ = (
        "monos", "target", "multidegree", "mdeg", "outside", "seen", "leads", "live", "done",
        "cofactors", "waiting",
    )

    def __init__(self, pk: _Packing, nvars: int, blocks, target):
        self.monos = _BoxMonomials(pk, nvars, blocks)
        self.target, self.multidegree = target, pk.block_degrees(blocks)
        # fields wide enough for any block degree of a monomial of pk
        top, width = pk.bound * max([len(blk) for blk in blocks], default=1), 1
        while (1 << (8 * width - 1)) - 1 < top:
            width *= 2
        self.mdeg = _packing(len(blocks), width)
        self.outside = pk.mask(set(range(nvars)).difference(*blocks))
        self.seen = 0  # leading monomials looked at
        self.leads: list = []  # (packed leading monomial, packed multidegree)
        self.live: dict = {}  # multidegree -> (struck monomials, leads added)
        self.done: set = set()
        self.cofactors: dict = {}  # packed multidegree -> its monomials
        self.waiting: dict = {}  # multidegree -> pairs popped, while not counted

    def complete(self, lms: list, l: int) -> bool:
        """Is the multidegree of the packed monomial l complete for the
        leading monomials ``lms``?  The list may only grow between calls."""
        multidegree, mdeg = self.multidegree, self.mdeg
        for lm in lms[self.seen:]:
            if not lm & self.outside:
                self.leads.append((lm, mdeg.pack(multidegree(lm))))
        self.seen = len(lms)
        a = multidegree(l)
        if a in self.done:
            return True
        count = self.monos.count(a)
        entry = self.live.get(a)
        if entry is None:
            pops = self.waiting.get(a, 0) + 1
            if pops * _PAIR_COST < count:
                self.waiting[a] = pops
                return False
            entry = (set(), 0)
        struck, added = entry
        cofactors, guard, pa = self.cofactors, mdeg.guard, mdeg.pack(a)
        for lm, b in self.leads[added:]:
            c = pa - b
            if c >= 0 and not c & guard:  # b <= a; c packs a - b
                ms = cofactors.get(c)
                if ms is None:
                    ms = cofactors[c] = self.monos.of(mdeg.unpack(c))
                struck.update(map(lm.__add__, ms))
        std, want = count - len(struck), self.target(a)
        if std < want:
            raise DomainError(
                f"multidegree {a} has {std} standard monomials, "
                f"below its Hilbert target {want}"
            )
        if std > want:
            self.live[a] = (struck, len(self.leads))
            return False
        self.live.pop(a, None)
        self.done.add(a)
        return True


def _hilbert_numerator(gens, where, box) -> dict:
    """K of ``hilbert_function`` for the minimal monomials ``gens``, with
    variable i in block ``where[i]``, as a dict over the box ``box``."""

    def degree(m):
        d = [0] * len(box)
        for j, e in zip(where, m):
            d[j] += e
        return d

    # a generator past the box divides no monomial in it
    gens = [m for m in gens if all(map(operator.le, degree(m), box))]
    counts = [0] * len(where)
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    top = max(counts, default=0)
    if top <= 1:  # pairwise coprime supports
        K = {(0,) * len(box): 1}
        for m in gens:
            d = degree(m)
            for a, c in list(K.items()):
                s = tuple(map(operator.add, a, d))
                if all(map(operator.le, s, box)):
                    K[s] = K.get(s, 0) - c
        return K
    i = counts.index(top)
    j, e = where[i], min(m[i] for m in gens if m[i])
    p = tuple(e if q == i else 0 for q in range(len(where)))
    K = _hilbert_numerator([m for m in gens if not m[i]] + [p], where, box)
    colon = {m[:i] + (m[i] - min(m[i], e),) + m[i + 1:] for m in gens}
    # t^deg(p) K(I : p) in the box: K(I : p) in the box shifted down by deg(p)
    rest = box[:j] + (box[j] - e,) + box[j + 1:]
    for a, c in _hilbert_numerator(minimalize_monomials(colon), where, rest).items():
        s = a[:j] + (a[j] + e,) + a[j + 1:]
        K[s] = K.get(s, 0) + c
    return K


def hilbert_function(
    I: Ideal, blocks, box, *, order: TermOrder | None = None
) -> dict:
    """Standard-monomial counts per multidegree in the box prod [0..b_j].

    ``blocks`` lists disjoint variable positions per block.  The ideal must
    be homogeneous per block, with field coefficients.  The counts are
    those of the initial ideal: the generators themselves when all are
    monomials, else the leading monomials of a Groebner basis.  A leading
    monomial with a variable outside every block divides no box monomial
    and is dropped.

    With t_j marking degree in block B_j, the Hilbert series is
    H(t) = K(t) / prod_j (1 - t_j)^{|B_j|}, and the numerator K follows
    Bigatti's pivot recursion K(I) = K(I + <p>) + t^deg(p) K(I : p).  The
    pivot is p = x_i^e, for the variable x_i in the most minimal generators
    and the least positive exponent e of x_i among them.  The recursion
    stops when the generators have pairwise coprime supports; then K is the
    product of the factors 1 - t^deg(m).  With x_i in at least two
    minimal generators, p divides each of them and equals none, so both
    I + <p> and I : p have a smaller sum of minimal generator degrees: the
    recursion ends.
    Both series have only nonnegative exponents, so a coefficient of H in
    the box depends only on the terms of K in the box.  Every product is
    truncated to the box, and I : p is taken in the box shifted down by
    deg(p).  The table is K after |B_j| cumulative sums along each axis j.
    """
    if not getattr(I.domain, "is_field", False):
        raise DomainError("hilbert function needs field coefficients")
    uni = I.universe
    if len({p for blk in blocks for p in blk}) != sum(len(blk) for blk in blocks):
        raise DomainError("blocks must be disjoint")
    for g in I.generators:
        if not g.is_multihomogeneous(blocks):
            raise DomainError("ideal is not multihomogeneous for the blocks")
    if I.is_monomial():
        lms = [next(iter(g.terms)) for g in I.generators]
    else:
        order = order or DegRevLex()
        lms = [g.leading_term(order)[1] for g in I.groebner_basis(order)]
    inside = [p for blk in blocks for p in blk]
    outside = set(range(uni.nvars)).difference(inside)
    leads = [tuple(m[p] for p in inside) for m in lms if not any(m[p] for p in outside)]
    box = tuple(box)
    where = [j for j, blk in enumerate(blocks) for _ in blk]
    K = _hilbert_numerator(minimalize_monomials(leads), where, box)
    strides = [prod(b + 1 for b in box[j + 1:]) for j in range(len(box))]
    cells = list(itertools.product(*[range(b + 1) for b in box]))
    table = [0] * len(cells)
    for a, c in K.items():
        table[sum(map(operator.mul, a, strides))] += c
    for j, blk in enumerate(blocks):
        for _ in blk:
            for k, a in enumerate(cells):
                if a[j]:
                    table[k] += table[k - strides[j]]
    return dict(zip(cells, table))
