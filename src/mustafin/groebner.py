"""Groebner engines and derived ideal operations.

Two engines share one reduction framework:

* field mode -- classical Buchberger with Gebauer-Moeller pair pruning and
  normal selection; the result is interreduced, so equal ideals get equal
  (hence byte-identical) bases.
* euclidean-ring mode -- coefficients in a Euclidean domain (here L[pi]).
  Each pair contributes an S-combination (leading terms cancelled through
  the coefficient lcm) and a G-combination (gcd of the leading coefficients
  realized via the extended Euclidean algorithm); together these generate
  the leading-term syzygy module over a Euclidean domain.  All pairs are
  processed: ring mode runs at desk scale only, correctness over speed.

Field mode has one reduction kernel, ``_Reducers``, behind ``normal_form``,
``interreduce``, ``is_groebner`` and the Buchberger loop.  It works on packed
monomials: an exponent tuple becomes one int with a fixed-width field per
variable, so a product is an addition and a divisibility test is a
subtraction and a mask (see ``_Packing``).  A field of w bytes holds
exponents up to 2^(8w - 1) - 1.  Every computation starts with one-byte
fields (exponents up to 127); an input or intermediate monomial past the
bound raises an overflow inside the kernel, never a silent carry, and the
computation reruns with fields twice as wide (``_widening``).  The
table holds each basis element's packed leading monomial, leading
coefficient and monic tail once per basis, and the working polynomial keeps
a heap of order keys, so each step finds its largest term without a scan.
Ring mode keeps the plain ``MPoly`` representation.

Saturation by a single variable has a fast path: when every generator is
homogeneous for a supplied weight vector (weight 1 on that variable),
running Buchberger under ``WeightedPiOrder`` while dividing every inserted
element by its content in the variable converges directly to a basis of the
saturated ideal.  Everything else takes the textbook route: adjoin
1 - t_i * a_i, eliminate the fresh auxiliaries.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

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
    mono_div,
    mono_divides,
    mono_lcm,
    order_eliminates,
)


class ResourceCapExceeded(RuntimeError):
    """A Groebner computation ran past its time budget."""


@dataclass(frozen=True)
class ReductionStep:
    """One rewriting step: subtract sum_j c_j * quotient_j * f_{reducers[j]}.

    A step with no reducers moves the (irreducible) monomial ``quotients[0]``
    into the remainder.
    """

    reducers: tuple[int, ...]
    coeffs: tuple
    quotients: tuple


@dataclass(frozen=True)
class GroebnerBasis:
    """A computed basis together with the data that make it meaningful."""

    elements: tuple
    order: TermOrder
    ring_mode: bool = False

    @property
    def domain(self):
        return self.elements[0].domain if self.elements else None

    def verify(self):
        """Re-run the syzygy criterion; returns (ok, witness)."""
        return is_groebner(list(self.elements), self.order, ring_mode=self.ring_mode)


def groebner_basis_of(I: Ideal, order: TermOrder | None = None, *, ring_mode=False) -> GroebnerBasis:
    order = order or default_order(I.universe)
    return GroebnerBasis(I.groebner_basis(order, ring_mode=ring_mode), order, ring_mode)


@dataclass
class ReductionTrace:
    """Record of a normal-form computation against a fixed basis."""

    steps: list

    def replay(self, f: MPoly, basis, order: TermOrder):
        """Re-run the steps; returns (remainder, leading coefficients of the
        working polynomial after each step)."""
        work = f
        uni, dom = f.universe, f.domain
        remainder = MPoly.zero(uni, dom)
        leads = []
        for step in self.steps:
            if step.reducers:
                delta = MPoly.zero(uni, dom)
                for j, c, q in zip(step.reducers, step.coeffs, step.quotients):
                    delta = delta + basis[j].mono_shift(q).scale(c)
                work = work - delta
            else:
                m = step.quotients[0]
                c = work.terms[m]
                t = MPoly.term(uni, dom, c, m)
                remainder = remainder + t
                work = work - t
            if work:
                leads.append(work.leading_term(order)[0])
        return remainder + work, leads


# ---------------------------------------------------------------------------
# reduction


def reduce_one_step(f: MPoly, E, order: TermOrder):
    """One leading-term rewriting step of f modulo E, or None.

    Over a field a single reducer with dividing leading monomial suffices;
    over a Euclidean domain reducers are collected greedily in basis order
    until the gcd of their leading coefficients divides lc(f), and the
    cofactors come from the extended Euclidean algorithm.
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
        q = mono_div(lm, glm)
        c = dom.div(lc, glc)
        h = f - g.mono_shift(q).scale(c)
        return h, ReductionStep((j,), (c,), (q,))
    used: list[tuple[int, MPoly]] = []
    combo: list = []  # running gcd written over the used leading coefficients
    g_run = None
    for j, g in divisors:
        glc = g.leading_term(order)[0]
        if g_run is None:
            d, (u, _) = dom.extended_gcd(glc, dom.zero)
            g_run, combo = d, [u]
        else:
            d, (u, v) = dom.extended_gcd(g_run, glc)
            combo = [dom.mul(u, c) for c in combo] + [v]
            g_run = d
        used.append((j, g))
        if dom.divides(g_run, lc):
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
        q = mono_div(lm, g.leading_term(order)[1])
        h = h - g.mono_shift(q).scale(c)
        reducers.append(j)
        coeffs.append(c)
        quotients.append(q)
    return h, ReductionStep(tuple(reducers), tuple(coeffs), tuple(quotients))


# ---------------------------------------------------------------------------
# packed monomials and the field-mode kernel

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
    sorts by (degree, exponent tuple)."""

    __slots__ = ("nvars", "width", "bound", "guard")

    def __init__(self, nvars: int, width: int = 1):
        self.nvars, self.width = nvars, width
        self.bound = (1 << (8 * width - 1)) - 1
        self.guard = int.from_bytes((b"\x80" + bytes(width - 1)) * nvars, "big")

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

    def degree(self, p: int) -> int:
        return sum(self.unpack(p))

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum: a field of (a | guard) - b keeps its guard bit
        exactly when a's exponent is at least b's."""
        ge = ((a | self.guard) - b) & self.guard
        take_a = ge - (ge >> (8 * self.width - 1))
        return (a & take_a) | (b & ~take_a)

    def overflow(self) -> _PackingOverflow:
        return _PackingOverflow(f"exponent above the packing bound {self.bound}")


def _widening(run, nvars: int):
    """``run(packing)`` with one-byte fields, run again with fields twice as
    wide whenever a monomial overflows them.  Nothing the kernel decides
    depends on the width, so the result is the one a wide enough first
    packing would give."""
    width = 1
    while True:
        try:
            return run(_Packing(nvars, width))
        except _PackingOverflow:
            width *= 2


def _flatten(key):
    for part in key:
        if isinstance(part, tuple):
            yield from _flatten(part)
        else:
            yield part


def _flat_key(order: TermOrder, nvars: int):
    """``order.key`` when it is a flat tuple of ints, as for every order in
    ``polyring``; else a function flattening it."""
    if all(isinstance(x, int) for x in order.key((0,) * nvars)):
        return order.key
    return lambda mono: tuple(_flatten(order.key(mono)))


class _Reducers:
    """A basis in packed form, in basis order: for every element its packed
    leading monomial, its leading coefficient and its tail (the other terms,
    divided by the leading coefficient; packed when first used).

    ``reduce`` computes normal forms against it: the largest remaining term
    is rewritten by the first element, in basis order, whose leading
    monomial divides it, or else moved to the remainder.  The working
    polynomial is a dict with a heap of negated order keys beside it; keys
    and first divisors are cached per monomial for the life of the table.
    """

    __slots__ = (
        "order", "universe", "domain", "pk", "lms", "lcs", "tails", "_polys", "_keys",
        "_divisors", "_flat_key",
    )

    def __init__(self, order: TermOrder, universe: VarUniverse, domain, pk: _Packing, basis=()):
        self.order, self.universe, self.domain, self.pk = order, universe, domain, pk
        self.lms: list[int] = []
        self.lcs: list = []
        self.tails: list = []
        self._polys: list[MPoly] = []
        self._keys: dict = {}
        self._divisors: dict = {}
        self._flat_key = _flat_key(order, universe.nvars)
        for g in basis:
            self.append(g)

    def append(self, g: MPoly):
        lc, lm = g.leading_term(self.order)
        self.lms.append(self.pk.pack(lm))
        self.lcs.append(lc)
        self.tails.append(None)
        self._polys.append(g)

    def _tail(self, j: int) -> list:
        g, pack, mul = self._polys[j], self.pk.pack, self.domain.mul
        lm = g.leading_term(self.order)[1]
        inv = self.domain.inv(self.lcs[j])
        tail = [(pack(m), mul(c, inv)) for m, c in g.terms.items() if m != lm]
        self.tails[j] = tail
        return tail

    def key(self, p: int) -> tuple:
        """Negated flat order key of a packed monomial."""
        k = self._keys.get(p)
        if k is None:
            k = self._keys[p] = tuple([-x for x in self._flat_key(self.pk.unpack(p))])
        return k

    def pack_poly(self, f: MPoly) -> dict:
        pack = self.pk.pack
        return {pack(m): c for m, c in f.terms.items()}

    def to_poly(self, terms: dict) -> MPoly:
        unpack = self.pk.unpack
        return MPoly(
            self.universe, self.domain, {unpack(m): c for m, c in terms.items()}, _clean=True
        )

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

    def reduce(self, work: dict, *, skip: int | None = None, trace_steps=None) -> dict:
        """Normal form of the packed polynomial ``work`` (consumed), with
        element ``skip`` left out of the basis."""
        lms, lcs, tails = self.lms, self.lcs, self.tails
        guard = self.pk.guard
        divisors = self._divisors
        if skip is not None:
            lms = list(lms)
            lms[skip] = guard  # exceeds every valid monomial, so divides none
            divisors = {}
        none_yet = ~len(lms)
        dom = self.domain
        mul, sub, neg, iz = dom.mul, dom.sub, dom.neg, dom.is_zero
        keys, key = self._keys, self.key
        heappush, heappop = heapq.heappush, heapq.heappop
        heap = [(keys.get(m) or key(m), m) for m in work]
        heapq.heapify(heap)
        remainder: dict = {}
        while heap:
            lm = heappop(heap)[1]
            lc = work.pop(lm, None)
            if lc is None:  # cancelled after it was pushed
                continue
            j = divisors.get(lm, -1)
            if j < 0 and j != none_yet:
                for j, glm in enumerate(lms):
                    q = lm - glm
                    if q >= 0 and not q & guard:
                        break
                else:
                    j = none_yet
                divisors[lm] = j
            if j < 0:
                remainder[lm] = lc
                if trace_steps is not None:
                    trace_steps.append(ReductionStep((), (), (self.pk.unpack(lm),)))
                continue
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
                    work[mm] = neg(mul(lc, gv))
                    heappush(heap, (keys.get(mm) or key(mm), mm))
                else:
                    s = sub(cur, mul(lc, gv))
                    if iz(s):
                        del work[mm]
                    else:
                        work[mm] = s
            if trace_steps is not None:
                trace_steps.append(
                    ReductionStep((j,), (dom.div(lc, lcs[j]),), (self.pk.unpack(q),))
                )
        return remainder


def normal_form(f: MPoly, G, order: TermOrder, *, want_trace: bool = False):
    """Normal form of f modulo G: rewrite leading terms while possible, move
    irreducible leading terms to the remainder, continue on the tail."""
    basis = [g for g in G if g]
    if not getattr(f.domain, "is_field", False):
        return _nf_ring(f, basis, order, want_trace)

    def run(pk):
        steps = [] if want_trace else None
        red = _Reducers(order, f.universe, f.domain, pk, basis)
        return red.to_poly(red.reduce(red.pack_poly(f), trace_steps=steps)), steps

    nf, steps = _widening(run, f.universe.nvars)
    return (nf, ReductionTrace(steps)) if want_trace else nf


def _nf_ring(f: MPoly, basis, order, want_trace):
    dom, uni = f.domain, f.universe
    steps = [] if want_trace else None
    work = f
    remainder = MPoly.zero(uni, dom)
    while work:
        step = reduce_one_step(work, basis, order)
        if step is None:
            lc, lm = work.leading_term(order)
            t = MPoly.term(uni, dom, lc, lm)
            remainder = remainder + t
            work = work - t
            if steps is not None:
                steps.append(ReductionStep((), (), (lm,)))
        else:
            work, s = step
            if steps is not None:
                steps.append(s)
    if want_trace:
        return remainder, ReductionTrace(steps)
    return remainder


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


def var_content(f: MPoly, pos: int) -> int:
    """Largest e with (variable at pos)^e dividing the nonzero polynomial."""
    return min(m[pos] for m in f.terms)


def divide_var_power(f: MPoly, pos: int, e: int) -> MPoly:
    if e == 0:
        return f
    out = {}
    for m, c in f.terms.items():
        mm = list(m)
        mm[pos] -= e
        if mm[pos] < 0:
            raise DomainError("inexact division by variable power")
        out[tuple(mm)] = c
    return MPoly(f.universe, f.domain, out, _clean=True)


# ---------------------------------------------------------------------------
# Buchberger, field mode


def _gm_update(red: _Reducers, pairs, t):
    """Gebauer-Moeller update of the pair set when element t is appended."""
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
    survivors: list[tuple[int, int]] = []
    seen_lcms: list[int] = []
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


def buchberger(
    gens,
    order: TermOrder,
    *,
    universe: VarUniverse | None = None,
    domain=None,
    ring_mode: bool = False,
    sat_var: int | None = None,
    cap_seconds: float | None = None,
    trace_log: list | None = None,
    reduced: bool = True,
    gb_prefix: int = 0,
):
    """Groebner basis of <gens> with respect to ``order``.

    ``sat_var`` (field mode only) divides every inserted polynomial by its
    content in that variable; with a compatible weighted order this computes
    a basis of the saturation directly.  Callers own the homogeneity
    precondition.

    ``gb_prefix`` marks the first k generators as an already-known basis
    with respect to ``order``: pairs among them are skipped.  Sound only
    when the prefix really is one (incremental queries against a cached
    basis).
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    universe = universe or gens[0].universe
    domain = domain or gens[0].domain
    if ring_mode:
        if sat_var is not None:
            raise DomainError("variable-content saturation is a field-mode path")
        if getattr(domain, "is_field", False):
            domain = _FieldAsEuclidean(domain)
            gens = [MPoly(universe, domain, dict(g.terms), _clean=True) for g in gens]
        return _buchberger_ring(gens, order, universe, domain, cap_seconds, trace_log)
    if not getattr(domain, "is_field", False):
        raise DomainError("field-mode buchberger over a non-field domain")
    return _buchberger_field(
        gens, order, universe, domain, sat_var, cap_seconds, trace_log, reduced,
        gb_prefix,
    )


def _buchberger_field(
    gens, order, universe, domain, sat_var, cap_seconds, trace_log, reduced,
    gb_prefix=0,
):
    t0 = time.monotonic()
    log_start = len(trace_log) if trace_log is not None else 0
    okey = order.key

    def prep(f):
        if sat_var is not None and f:
            c = var_content(f, sat_var)
            if c:
                f = divide_var_power(f, sat_var, c)
        return field_normalize(f, order)

    def run(pk):
        if trace_log is not None:
            del trace_log[log_start:]  # lines of a narrower run
        red = _Reducers(order, universe, domain, pk)

        def nf(f):
            return red.to_poly(red.reduce(red.pack_poly(f)))

        G: list[MPoly] = [field_normalize(g, order) for g in gens[:gb_prefix]]
        for g in G:
            red.append(g)
        pairs: list = []
        for f in sorted(gens[gb_prefix:], key=lambda g: okey(g.leading_term(order)[1])):
            r = nf(prep(f))
            if r:
                r = prep(r)
                G.append(r)
                red.append(r)
                pairs = _gm_update(red, pairs, len(G) - 1)

        def pair_key(i, j):
            return (okey(pk.unpack(pk.lcm(red.lms[i], red.lms[j]))), i, j)

        heap = [pair_key(i, j) for i, j in pairs]
        heapq.heapify(heap)
        alive = set(pairs)

        while heap:
            if cap_seconds is not None and time.monotonic() - t0 > cap_seconds:
                raise ResourceCapExceeded(
                    f"buchberger exceeded {cap_seconds:g}s ({len(G)} basis elements)"
                )
            _, i, j = heapq.heappop(heap)
            if (i, j) not in alive:
                continue
            alive.discard((i, j))
            r = red.reduce(red.spoly(i, j))
            if trace_log is not None:
                l = pk.unpack(pk.lcm(red.lms[i], red.lms[j]))
                trace_log.append(f"pair ({i},{j}) lcm {l} -> {'0' if not r else 'new'}")
            if not r:
                continue
            r = red.to_poly(r)
            if sat_var is not None:
                # content division can re-enable reduction; run to a fixpoint
                while r:
                    c = var_content(r, sat_var)
                    if not c:
                        break
                    r = nf(divide_var_power(r, sat_var, c))
                if not r:
                    continue
            r = field_normalize(r, order)
            G.append(r)
            red.append(r)
            new_pairs = _gm_update(red, list(alive), len(G) - 1)
            added = set(new_pairs) - alive
            alive = set(new_pairs)
            for (a, b) in added:
                heapq.heappush(heap, pair_key(a, b))
            # removed pairs stay in the heap but are skipped via ``alive``
        return G

    G = _widening(run, universe.nvars)
    return interreduce(G, order) if reduced else G


def interreduce(G, order: TermOrder):
    """The reduced basis: minimal leading monomials, fully reduced tails,
    normalized leading coefficients, sorted ascending by leading monomial."""
    okey = order.key
    items = sorted([g for g in G if g], key=lambda g: okey(g.leading_term(order)[1]))
    if not items:
        return []

    def run(pk):
        minimal: list[MPoly] = []
        lms: list[int] = []
        for g in items:
            lm = pk.pack(g.leading_term(order)[1])
            for l in lms:
                q = lm - l
                if q >= 0 and not q & pk.guard:
                    break
            else:
                minimal.append(g)
                lms.append(lm)
        red = _Reducers(order, items[0].universe, items[0].domain, pk, minimal)
        out = []
        for idx, g in enumerate(minimal):
            r = red.reduce(red.pack_poly(g), skip=idx)
            if r:
                out.append(field_normalize(red.to_poly(r), order))
        return out

    out = _widening(run, items[0].universe.nvars)
    out.sort(key=lambda g: okey(g.leading_term(order)[1]))
    return out


# ---------------------------------------------------------------------------
# Buchberger, euclidean-ring mode


class _FieldAsEuclidean:
    """Adapter running ring mode over a field (every nonzero element is a
    unit, so gcds are trivial)."""

    is_field = False

    def __init__(self, base):
        self._f = base
        self.characteristic = base.characteristic
        self.name = base.name
        self.zero = base.zero
        self.one = base.one

    def __getattr__(self, attr):
        return getattr(self._f, attr)

    def divides(self, a, b):
        return not self._f.is_zero(a) or self._f.is_zero(b)

    def exact_div(self, b, a):
        return self._f.div(b, a)

    def is_unit(self, a):
        return not self._f.is_zero(a)

    def extended_gcd(self, a, b):
        f = self._f
        if f.is_zero(a):
            if f.is_zero(b):
                raise DomainError("gcd(0, 0) undefined")
            return f.one, (f.zero, f.inv(b))
        return f.one, (f.inv(a), f.zero)

    def __eq__(self, other):
        return isinstance(other, _FieldAsEuclidean) and other._f == self._f

    def __hash__(self):
        return hash(("FieldAsEuclidean", self._f))


def _spair_gpair(gi, gj, order, dom):
    (ci, mi) = gi.leading_term(order)
    (cj, mj) = gj.leading_term(order)
    l = mono_lcm(mi, mj)
    d, (u, v) = dom.extended_gcd(ci, cj)
    s = gi.mono_shift(mono_div(l, mi)).scale(dom.exact_div(cj, d)) - gj.mono_shift(
        mono_div(l, mj)
    ).scale(dom.exact_div(ci, d))
    g = None
    if not (dom.divides(ci, cj) or dom.divides(cj, ci)):
        g = gi.mono_shift(mono_div(l, mi)).scale(u) + gj.mono_shift(
            mono_div(l, mj)
        ).scale(v)
    return l, s, g


def _buchberger_ring(gens, order, universe, domain, cap_seconds, trace_log):
    t0 = time.monotonic()
    G = list(gens)
    queue = [(j, i) for j in range(len(G)) for i in range(j)]
    while queue:
        if cap_seconds is not None and time.monotonic() - t0 > cap_seconds:
            raise ResourceCapExceeded("ring-mode buchberger exceeded budget")
        j, i = queue.pop(0)
        l, s, g = _spair_gpair(G[i], G[j], order, domain)
        for cand in (s, g):
            if cand is None:
                continue
            r = _nf_ring(cand, G, order, False)
            if trace_log is not None:
                trace_log.append(
                    f"ring pair ({i},{j}) lcm {l} -> {'0' if not r else 'new'}"
                )
            if r:
                t = len(G)
                G.append(r)
                queue.extend((t, k) for k in range(t))
    out: list[MPoly] = []
    for idx in range(len(G)):
        others = [h for k, h in enumerate(G) if k != idx and h]
        if _nf_ring(G[idx], others, order, False):
            out.append(G[idx])
        else:
            G[idx] = MPoly.zero(universe, domain)
    return out


# ---------------------------------------------------------------------------
# derived operations


def is_groebner(G, order: TermOrder, *, ring_mode: bool = False):
    """Syzygy criterion: every S- (and in ring mode G-) combination of basis
    elements reduces to zero.  Returns (ok, witness)."""
    G = [g for g in G if g]
    if len(G) <= 1:
        return True, None
    domain = G[0].domain
    field = getattr(domain, "is_field", False)
    if ring_mode and field:
        domain = _FieldAsEuclidean(domain)
        G = [MPoly(g.universe, domain, dict(g.terms), _clean=True) for g in G]
        field = False
    if field:
        return _widening(lambda pk: _is_groebner_field(G, order, pk), G[0].universe.nvars)
    for j in range(len(G)):
        for i in range(j):
            _, s, g = _spair_gpair(G[i], G[j], order, domain)
            for cand in (s, g):
                if cand is not None and _nf_ring(cand, G, order, False):
                    return False, cand
    return True, None


def _is_groebner_field(G, order, pk):
    red = _Reducers(order, G[0].universe, G[0].domain, pk, G)
    for j in range(len(G)):
        for i in range(j):
            s = red.spoly(i, j)
            if red.reduce(dict(s)):
                return False, red.to_poly(s)
    return True, None


def ideal_membership(
    f: MPoly, I: Ideal, order: TermOrder | None = None, *, ring_mode: bool = False
) -> bool:
    if not f:
        return True
    if I.is_zero():
        return False
    order = order or DegRevLex()
    gb = I.groebner_basis(order, ring_mode=ring_mode)
    if ring_mode and getattr(f.domain, "is_field", False):
        dom = _FieldAsEuclidean(f.domain)
        f = MPoly(f.universe, dom, dict(f.terms), _clean=True)
        gb = [MPoly(g.universe, dom, dict(g.terms), _clean=True) for g in gb]
        return not _nf_ring(f, list(gb), order, False)
    return not normal_form(f, list(gb), order)


def fresh_aux_names(universe: VarUniverse, count: int, stem: str = "t") -> list[str]:
    out: list[str] = []
    k = 0
    while len(out) < count:
        name = f"{stem}[{k}]"
        if name not in universe:
            out.append(name)
        k += 1
    return out


def weight_homogeneous(f: MPoly, weights) -> bool:
    if not f:
        return True
    degs = {sum(w * e for w, e in zip(weights, m)) for m in f.terms}
    return len(degs) == 1


def saturate(
    I: Ideal,
    elems,
    *,
    order: TermOrder | None = None,
    pi_fast_weights=None,
    cap_seconds: float | None = None,
    trace_log: list | None = None,
) -> Ideal:
    """sat(I, a_1..a_l) = <I, 1 - t_1 a_1, ..., 1 - t_l a_l> ∩ A.

    Fresh auxiliaries t_i sit on top of a block elimination order; basis
    elements touching them are discarded.  With ``pi_fast_weights`` and a
    single saturating element that is a weight-1 variable under which all
    generators are weight homogeneous, the content-division fast path runs
    instead and returns an equal ideal.
    """
    elems = list(elems)
    uni, dom = I.universe, I.domain
    if I.is_zero() or not elems:
        return I
    for a in elems:
        if not a or a.is_constant():
            raise DomainError("saturating elements must be nonzero non-units")

    if pi_fast_weights is not None and len(elems) == 1 and elems[0].is_monomial():
        mono = next(iter(elems[0].terms))
        if sum(mono) == 1:
            pos = mono.index(1)
            wts = tuple(pi_fast_weights)
            if wts[pos] == 1 and all(
                weight_homogeneous(g, wts) for g in I.generators
            ):
                worder = WeightedPiOrder(wts, pos)
                gb = buchberger(
                    list(I.generators),
                    worder,
                    universe=uni,
                    domain=dom,
                    sat_var=pos,
                    cap_seconds=cap_seconds,
                    trace_log=trace_log,
                )
                out = Ideal(gb, uni, dom)
                out._gb_cache[(worder, False)] = tuple(gb)
                return out

    aux = fresh_aux_names(uni, len(elems))
    big = uni.extend(aux)
    lifted = [g.relabel(big) for g in I.generators]
    one = MPoly.const(big, dom, dom.one)
    for name, a in zip(aux, elems):
        lifted.append(one - MPoly.var(big, dom, name) * a.relabel(big))
    inner = order or default_order(uni)
    elim_order = Block(
        (
            (tuple(big.index(v) for v in aux), DegRevLex()),
            (tuple(i for i in range(big.nvars) if big.names[i] not in aux), inner),
        ),
        name="sat-elim",
    )
    gb = buchberger(
        lifted,
        elim_order,
        universe=big,
        domain=dom,
        cap_seconds=cap_seconds,
        trace_log=trace_log,
    )
    aux_pos = [big.index(v) for v in aux]
    kept = [g for g in gb if all(m[p] == 0 for m in g.terms for p in aux_pos)]
    gens = [g.relabel(uni) for g in kept]
    out = Ideal(gens, uni, dom)
    out._gb_cache[(inner, False)] = tuple(gens)
    return out


def eliminate(
    I: Ideal,
    var_names,
    *,
    order: TermOrder | None = None,
    cap_seconds: float | None = None,
) -> Ideal:
    """Generators of I ∩ (subring without ``var_names``); the active order
    must put the eliminated variables in a leading block."""
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
    if order is None:
        rest = [i for i in range(uni.nvars) if uni.names[i] not in targets]
        rest_nonpi = tuple(i for i in rest if uni.names[i] != "pi")
        segments = [(tuple(uni.index(v) for v in var_names), DegRevLex())]
        if len(rest_nonpi) != len(rest):
            segments.append((rest_nonpi, DegRevLex()))
            segments.append(((uni.index("pi"),), DegRevLex()))
        else:
            segments.append((tuple(rest), DegRevLex()))
        order = Block(tuple(segments), name="elim")
    elif not order_eliminates(order, uni, var_names):
        raise DomainError("supplied order does not eliminate the variables")
    gb = buchberger(
        list(I.generators), order, universe=uni, domain=dom, cap_seconds=cap_seconds
    )
    pos = [uni.index(v) for v in var_names]
    kept = [g for g in gb if all(m[p] == 0 for m in g.terms for p in pos)]
    return Ideal([g.relabel(small) for g in kept], small, dom)


def radical_membership(f: MPoly, I: Ideal, *, cap_seconds: float | None = None) -> bool:
    """f in sqrt(I), by the trick of adjoining 1 - t f and testing whether the
    ideal becomes the whole ring.  Field coefficients only."""
    if not getattr(I.domain, "is_field", False):
        raise DomainError("radical membership needs field coefficients")
    if not f:
        return True
    if f.is_constant():
        # a nonzero constant is in the radical iff the ideal is the ring
        return any(g.is_constant() for g in I.groebner_basis(DegRevLex()))
    uni, dom = I.universe, I.domain
    aux = fresh_aux_names(uni, 1)[0]
    big = uni.extend([aux])
    # seed with the cached basis of I: appending one trailing degrevlex
    # variable preserves leading terms of aux-free polynomials, so the many
    # radical queries against one ideal share the heavy part of the work
    base_order = default_order(uni)
    base_gb = I.groebner_basis(base_order)
    gens = [g.relabel(big) for g in base_gb]
    gens.append(
        MPoly.const(big, dom, dom.one) - MPoly.var(big, dom, aux) * f.relabel(big)
    )
    big_order = _append_aux_order(base_order, uni, big)
    gb = buchberger(
        gens,
        big_order,
        universe=big,
        domain=dom,
        cap_seconds=cap_seconds,
        reduced=False,
        gb_prefix=len(base_gb),
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


def hilbert_function(
    I: Ideal, blocks, box, *, order: TermOrder | None = None
) -> dict:
    """Standard-monomial counts per multidegree in the box prod [0..b_j].

    ``blocks`` lists variable positions per block.  The ideal must be
    homogeneous per block, with field coefficients.
    """
    if not getattr(I.domain, "is_field", False):
        raise DomainError("hilbert function needs field coefficients")
    uni = I.universe
    for g in I.generators:
        if not g.is_multihomogeneous(blocks):
            raise DomainError("ideal is not multihomogeneous for the blocks")
    order = order or DegRevLex()
    lms = (
        [g.leading_term(order)[1] for g in I.groebner_basis(order)]
        if not I.is_zero()
        else []
    )
    table: dict[tuple, int] = {}
    for mdeg in itertools.product(*[range(b + 1) for b in box]):
        count = 0
        per_block = [list(compositions(dg, len(blk))) for blk, dg in zip(blocks, mdeg)]
        for combo in itertools.product(*per_block):
            mono = [0] * uni.nvars
            for blk, exps in zip(blocks, combo):
                for p, e in zip(blk, exps):
                    mono[p] = e
            mono_t = tuple(mono)
            if not any(mono_divides(lm, mono_t) for lm in lms):
                count += 1
        table[mdeg] = count
    return table
