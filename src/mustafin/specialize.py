"""Substitution of parameter values and certified generic sampling.

A symbolic run treats the parameters A[i][j][l] as ring variables over the
base field (with pi a variable as well).  From a basis of the saturating
ideal <gens, 1 - t*a> (``groebner._adjoin_inverses``; t is the first name
t[k] not in use), computed under the block order

    t (the saturation auxiliary)  >  main variables  >  parameters  >  pi,

the unit conditions are read off: for each basis element, the polynomial
standing in front of its leading (auxiliary and main-variable) monomial,
with pi content stripped.  They alone certify a specialization (below), and
``generic_sample`` draws until every one of them takes pi-valuation 0.

``check_specialization`` verifies a concrete assignment directly: the
specialized set must be a standard basis over the valuation ring
D = L[pi]_(pi), and substitution must commute with saturation.

Why the unit conditions suffice: the specialization theorem of Gianni
(EUROCAL '87, LNCS 378) and Kalkbrener (JSC 24, 1997), with "the leading
coefficient is a unit of D" in place of "nonzero".  Let G be the symbolic
basis, R = L[A, pi] and phi: R -> D the substitution.  Over R the leading
coefficient of g in G, in t and the main variables, is pi^k h with h prime
to pi, its unit condition; suppose every phi(h) is a unit of D.

* phi(g) keeps the leading monomial of g; its coefficient has valuation k.
* For g, g' in G and L = lcm(lc g, lc g') = pi^v lcm(h, h'), v = max(k, k'),
  every monomial of the S-polynomial S = (L / lc g) x^q g -
  (L / lc g') x^q' g' is below the lcm m of the two leading monomials in t
  and the main variables.  G is a Groebner basis under an order with those
  variables in its first blocks, so S = sum c_i g_i with the leading
  monomial of every c_i g_i below m there.
* phi(S) = sum phi(c_i) phi(g_i) keeps that bound, and phi(S) is a unit
  times the S-combination of phi(g) and phi(g') that
  ``groebner._Reducers.s_combination`` forms: e = phi(gcd(h, h')) divides
  the unit phi(h), and phi(L / lc g) = pi^(v - k) phi(h') / e, likewise
  for g'.
* Of two leading coefficients in D one divides the other, so the
  S-syzygies generate the syzygies of the leading terms, and a set whose
  S-combinations all have such representations is a standard basis
  (Markwig, Ren and Wienand, JSC 79, 2017).

So phi(G) is a standard basis over D of the ideal it generates, which holds
the specialized <gens, 1 - t*a> since G generates it: both parts of the
basis test pass, for values that depend on pi too.  Over L[pi] every phi(h)
would have to be a nonzero constant, which a value such as 1 + pi^2 is not.

Each piece of algebra is done once.  ``subst`` makes one
``polyring.Substitution`` plan per target, and ``check_specialization``
substitutes every distinct polynomial it needs once.  The
``ObstructionSet`` carries the generators and element it was built from,
its symbolic basis and the lifted system, and ``check_specialization``
reuses the last two for the same inputs.  The basis test runs on the
valuation mode of the packed kernel of ``groebner``; the specialized
generators of <gens, 1 - t*a> are reduced on the table of its
S-combinations, under the same time budget.  The commutation check
compares reduced bases (``_same_ideal``).
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass, field

from .coeffs import DomainError, base_field
from .groebner import (
    Deadline,
    ResourceCapExceeded,
    _adjoin_inverses,
    buchberger,
    is_groebner,
    saturate,
)
from .polyring import (
    Block,
    DegRevLex,
    Ideal,
    MPoly,
    Substitution,
    UniverseError,
    VarUniverse,
    default_order,
    format_poly,
    from_pi_element,
    pi_content,
    to_pi_coefficients,
)


# ---------------------------------------------------------------------------
# substitution


def subst(assignment: dict, target):
    """Image under the homomorphism sending parameter variables to values.

    ``target`` is a polynomial, an ``Ideal`` or a list of polynomials.
    Values may be base-field elements, pi-ring tuples (spread over the pi
    variable), or polynomials.  Parameters present in the target but absent
    from the assignment raise; unassigned non-parameter variables map to
    themselves.  The result lives in the universe without the substituted
    variables; a list gives the list of images, zeros included, and an
    ideal drops them.  The polynomials of a list share one universe and
    domain, and the substitution plan (``_plan``) is made once for them.
    """
    if isinstance(target, Ideal):
        gens = [g for g in _subst_all(assignment, target.generators) if g]
        return Ideal(gens, _shrunk_universe(target.universe, assignment), target.domain)
    if isinstance(target, MPoly):
        return _subst_all(assignment, [target])[0]
    return _subst_all(assignment, target)


def _subst_all(assignment: dict, polys) -> list:
    """``subst`` of each polynomial of one universe and domain, in order,
    with one plan.  Every polynomial is checked for its universe, domain
    and missing parameters before any is substituted, and the plan is made
    once the first one passes, so every error is the one a
    polynomial-by-polynomial loop raises first."""
    polys = list(polys)
    if not polys:
        return []
    uni, dom = polys[0].universe, polys[0].domain
    params = [
        i for i, name in enumerate(uni.names) if name.startswith("A[") and name not in assignment
    ]
    plan = None
    for f in polys:
        if f.universe != uni or f.domain != dom:
            raise UniverseError("subst of polynomials over different universes or domains")
        missing = {uni.names[i] for i in params if any(m[i] for m in f.terms)}
        if missing:
            raise DomainError(f"assignment misses parameters {sorted(missing)}")
        if plan is None:
            plan = _plan(assignment, uni, dom)
    return [plan(f) for f in polys]


def _plan(assignment: dict, uni: VarUniverse, dom) -> Substitution:
    """The substitution into the universe without the assigned variables,
    with pi-ring values spread over its pi variable."""
    small = _shrunk_universe(uni, assignment)
    values = {}
    for name, val in assignment.items():
        if name not in uni:
            continue
        if isinstance(val, MPoly):
            val = val.relabel(small)
        elif isinstance(val, tuple):  # pi-ring element, spread over the pi variable
            val = from_pi_element(val, small, dom)
        values[name] = val
    return Substitution(uni, dom, values, small)


def _shrunk_universe(uni: VarUniverse, assignment) -> VarUniverse:
    gone = {name for name in assignment if name in uni}
    return VarUniverse(tuple(n for n in uni.names if n not in gone), uni.grid)


# ---------------------------------------------------------------------------
# symbolic setup helpers


def _split_positions(uni: VarUniverse, aux: str | None):
    top, main, params, pie = [], [], [], []
    for i, name in enumerate(uni.names):
        if aux is not None and name == aux:
            top.append(i)
        elif name.startswith("A["):
            params.append(i)
        elif name == "pi":
            pie.append(i)
        else:
            main.append(i)
    return top, main, params, pie


def _symbolic_order(uni: VarUniverse, aux: str | None):
    """Block order: saturation auxiliary > main variables > parameters > pi."""
    top, main, params, pie = _split_positions(uni, aux)
    segments = []
    if top:
        segments.append((tuple(top), DegRevLex()))
    segments.append((tuple(main), DegRevLex()))
    if params:
        segments.append((tuple(params), DegRevLex()))
    if pie:
        segments.append((tuple(pie), DegRevLex()))
    return Block(tuple(segments), name="sym"), top + main


# ---------------------------------------------------------------------------
# obstruction extraction


@dataclass
class ObstructionSet:
    """The unit conditions read off the symbolic basis.  An assignment
    under which every one takes pi-valuation 0 specializes the basis to a
    standard basis over L[pi]_(pi) (see the module docstring).

    ``gens`` and ``a`` are what the set was built from, ``basis`` the
    symbolic basis the conditions were read from and ``lifted`` the
    generators <gens, 1 - t*a> it is a basis of, so that
    ``check_specialization`` on the same generators and element computes
    and relabels neither again.  All four are None for an incomplete set
    and for one parsed from text.
    """

    unit_conditions: list
    incomplete: bool = False
    basis: list | None = field(default=None, compare=False, repr=False)
    lifted: list | None = field(default=None, compare=False, repr=False)
    gens: list | None = field(default=None, compare=False, repr=False)
    a: MPoly | None = field(default=None, compare=False, repr=False)

    def texts(self) -> dict:
        return {
            "unit_conditions": sorted(format_poly(f) for f in self.unit_conditions),
            "incomplete": self.incomplete,
        }


def obstruction_polynomials(
    gens,
    a_elem: MPoly,
    *,
    cap_seconds: float | None = None,
) -> ObstructionSet:
    """The unit conditions of the symbolic basis of <gens, 1 - t*a>, in
    basis order, each once: the coefficient of an element's leading
    monomial in t and the main variables, pi content stripped, when it is
    not a constant.  ``cap_seconds`` bounds the basis; a capped basis
    gives an empty incomplete set."""
    gens = [g for g in gens if g]
    if not gens:
        return ObstructionSet([])
    dom = gens[0].domain
    big, (aux,), lifted = _adjoin_inverses(gens[0].universe, gens, [a_elem])
    order, group_pos = _symbolic_order(big, aux)
    try:
        gb = Deadline(cap_seconds).run("basis", buchberger, lifted, order)
    except ResourceCapExceeded:
        return ObstructionSet([], True)
    group = set(group_pos)
    unit = {}  # insertion-ordered set
    for g in gb:
        lm = g.leading_term(order)[1]
        # the terms whose grouped part is that of lm, with that part taken off
        coeff = {
            tuple(0 if i in group else e for i, e in enumerate(m)): c
            for m, c in g.terms.items()
            if all(m[i] == lm[i] for i in group)
        }
        h = pi_content(MPoly(big, dom, coeff, _clean=True))[1]
        if not h.is_constant():
            unit.setdefault(h)
    return ObstructionSet(list(unit), False, gb, lifted, gens, a_elem)


# ---------------------------------------------------------------------------
# checking a specialization


@dataclass
class SpecializationReport:
    groebner_ok: bool
    commutation_ok: bool
    diagnosis: str = ""

    @property
    def ok(self) -> bool:
        return self.groebner_ok and self.commutation_ok

    def to_dict(self):
        return {
            "groebner_ok": self.groebner_ok,
            "commutation_ok": self.commutation_ok,
            "ok": self.ok,
            "diagnosis": self.diagnosis,
        }


def check_specialization(
    gens,
    a_elem: MPoly,
    assignment: dict,
    *,
    obstructions: ObstructionSet | None = None,
    cap_seconds: float | None = None,
) -> SpecializationReport:
    """Specialize the symbolic basis of <gens, 1 - t*a> and verify (1) that
    the result is a standard basis, over L[pi]_(pi), of the specialized
    ideal, and (2) the commutation subst(sat(I, a)) = sat(subst(I),
    subst(a)), the latter computed independently.  ``cap_seconds`` bounds
    the symbolic basis, the basis test and the saturation together.  The
    basis test gets the time left: it reduces the surviving S-combinations
    and then the specialized lifted generators on one reducer table, and
    checks the time before each reduction, raising with the phase "basis
    test"."""
    gens = [g for g in gens if g]
    if not gens:
        return SpecializationReport(True, True)
    dom = gens[0].domain
    deadline = Deadline(cap_seconds)
    if (
        obstructions is not None
        and obstructions.basis is not None
        and obstructions.gens == gens
        and obstructions.a == a_elem
    ):
        gb, lifted = obstructions.basis, obstructions.lifted
        big = lifted[0].universe
        aux = big.names[-1]  # ``_adjoin_inverses`` appends the auxiliary
    else:
        big, (aux,), lifted = _adjoin_inverses(gens[0].universe, gens, [a_elem])
        order, _group = _symbolic_order(big, aux)
        gb = deadline.run("basis", buchberger, lifted, order)

    # every polynomial below, substituted once with one plan
    a_big = a_elem.relabel(big)
    distinct = list(dict.fromkeys([*gb, *lifted, a_big]))
    image = dict(zip(distinct, subst(assignment, distinct)))

    # (1) the specialized set over L[pi]_(pi): a standard basis, and of an
    # ideal holding the specialized generators
    ring_gb = [to_pi_coefficients(h) for h in (image[g] for g in gb) if h]
    ring_uni = ring_gb[0].universe
    ring_order, _ = _symbolic_order(ring_uni, aux)
    spec_lifted = [to_pi_coefficients(image[g]) for g in lifted if image[g]]
    ok_gb, _wit = deadline.run(
        "basis test", is_groebner, ring_gb, ring_order, _members=spec_lifted
    )

    # (2) commutation, with the right side computed from scratch
    aux_pos = big.index(aux)
    s_uni = _shrunk_universe(big, assignment)
    s_uni = VarUniverse(tuple(n for n in s_uni.names if n != aux), s_uni.grid)

    def down(gs):
        return [image[g].relabel(s_uni) for g in gs if image[g]]

    sat_sym = [g for g in gb if all(m[aux_pos] == 0 for m in g.terms)]
    lhs_ideal = Ideal(down(sat_sym), s_uni, dom)
    rhs_ideal = deadline.run(
        "saturation",
        saturate,
        Ideal(down(lifted[:-1]), s_uni, dom),
        [image[a_big].relabel(s_uni)],
    )
    comm_ok = _same_ideal(lhs_ideal, rhs_ideal)

    diagnosis = ""
    if not (ok_gb and comm_ok):
        violation = "" if obstructions is None else _first_violation(assignment, obstructions)
        if violation:
            diagnosis = f"{violation} violated"
        else:
            diagnosis = "specialized set is not a basis" if not ok_gb else "saturation does not commute"
    return SpecializationReport(ok_gb, comm_ok, diagnosis)


def _same_ideal(A: Ideal, B: Ideal) -> bool:
    """Whether two ideals over a field are equal, read off their bases
    under ``default_order``.  It rests on one invariant: every basis an
    ``Ideal`` holds under that order is the reduced one, normalized by
    ``field_normalize`` and sorted ascending by the order key.  Field-mode
    ``buchberger`` returns such a basis, and elimination-route ``saturate``
    caches the auxiliary-free part of one, which is the reduced basis of
    the saturation.  An ideal has one reduced basis, so the two lists are
    equal exactly when the ideals are.  ``saturate`` caches under this
    order, so a saturation's basis is reused."""
    order = default_order(A.universe)
    gb_a = list(A.groebner_basis(order)) if not A.is_zero() else []
    gb_b = list(B.groebner_basis(order)) if not B.is_zero() else []
    return gb_a == gb_b


def _first_violation(assignment, obstructions: ObstructionSet) -> str:
    """The first unit condition the assignment violates, as "unit
    condition X"; "" when it meets them all.  The conditions are
    substituted by one ``subst`` call, whose errors are raised first."""
    units = obstructions.unit_conditions
    for cond, val in zip(units, subst(assignment, units)):
        if (not val) or pi_content(val)[0] > 0:
            return f"unit condition {format_poly(cond)}"
    return ""


# ---------------------------------------------------------------------------
# generic sampling


@dataclass
class SampleReport:
    assignment: dict
    attempts: int
    seed: int

    def to_dict(self):
        return {
            "assignment": {k: str(v) for k, v in sorted(self.assignment.items())},
            "attempts": self.attempts,
            "seed": self.seed,
        }


def generic_sample(
    seed: int,
    fld,
    shape: tuple[int, int],
    obstructions: ObstructionSet | None = None,
    *,
    max_attempts: int = 200,
) -> SampleReport:
    """Uniform random parameter assignment A[i][j][l] with every matrix
    invertible mod pi; with obstructions, resample until every unit
    condition takes pi-valuation 0, which certifies the specialization (see
    the module docstring).  Deterministic per seed; exceeding the cap
    raises with the count of rejections per reason, most frequent first."""
    from .varieties import _det

    fld = base_field(fld)
    d, n = shape
    rng = random.Random(("sample", seed, d, n).__repr__())
    rejections: collections.Counter = collections.Counter()
    for attempt in range(1, max_attempts + 1):
        assignment = {}
        ok = True
        for l in range(n + 1):
            mat = [[fld.random(rng) for _ in range(d)] for _ in range(d)]
            if fld.is_zero(_det(mat, fld)):
                ok = False
                break
            for i in range(d):
                for j in range(d):
                    assignment[f"A[{i + 1}][{j + 1}][{l}]"] = mat[i][j]
        if not ok:
            rejections["singular matrix"] += 1
            continue
        if obstructions is not None:
            bad = _first_violation(assignment, obstructions)
            if bad:
                rejections[bad] += 1
                continue
        return SampleReport(assignment, attempt, seed)
    counts = ", ".join(f"{reason} ({k})" for reason, k in rejections.most_common())
    raise DomainError(f"sampling cap {max_attempts} exceeded; rejections: {counts}")
