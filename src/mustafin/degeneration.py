"""Models of embedded subvarieties and the support of their special fibres.

Given a lattice configuration and a subvariety X = V(I') in coordinates
y[1..d], the model ideal is the multihomogeneous ideal of the closure of the
image of X under the product of the inverse lattice trivializations, with
coefficients in L[pi].  Write u_j = g_j . x_col j for the column forms of
factor j and J for the ideal of the 2x2 minors of (u_0 | ... | u_n).  A
generator f of degree e is lifted into every multidegree b of the n+1
factors with |b| = e: in each monomial of f the first b_0 of its y-factors
become entries of u_0, the next b_1 entries of u_1, and so on.  With Lf the
ideal of these lifts F_b(f), f in I', the model is

    sat(J + Lf, pi).

It is exact:

* every entry of every u_j has weight n_{d-1}, so all generators are
  weight-homogeneous and the content-division fast path applies;
* modulo the prime ideal of the minors, multidegree a of K[x] (K = L(pi))
  is K[y]_{|a|} and F_b maps to lambda^b f, so over K the generators span
  (I')_{|a|} in every multidegree: the ideal of the image;
* no multinomial coefficients occur, so this holds in every characteristic.

The model extends the ambient saturation S = sat(J, pi) (``mustafin_ideal``,
which ``support_analysis`` has already computed for its ambient check):

* Prefix identity.  sat(J + Lf) = sat(S + Lf).  J + Lf lies in S + Lf,
  and S + Lf lies in sat(J + Lf), since S = sat(J) does; saturating both
  inclusions gives equality.  So the run starts from the reduced basis G of
  S under the weighted pi order W of the fast path, as a known prefix whose
  pairs are never formed, and inserts only the lifts.
* The prefix stays a basis under content division.  The fast path divides
  every element it inserts by its pi content, and the argument that it
  ends at the saturation needs every element of its basis free of pi
  content.  G is: were g = pi^c h in G with c > 0, then h would lie in S,
  as S is saturated, so some leading monomial of G would divide lm(h),
  and lm(h) strictly divides lm(g) = pi^c lm(h) (W respects products) --
  two leading monomials of a reduced basis, one dividing the other.  So
  content division leaves G as it is, the pairs inside G reduce to zero
  on G, and the run is the fast path on the generators of S + Lf.

Flatness gives the Hilbert target of that run, Traverso's pruning (JSC 22,
1996) as the ambient saturation uses it.  Let M_a be the multidegree-a part
of L[pi][x] / sat(J + Lf): an L[pi]-module spanned by the finitely many
monomials of multidegree a, on which pi is a nonzerodivisor.  Localized at
(pi) it is a finitely generated torsion-free module over the discrete
valuation ring L[pi]_(pi), hence free, and its rank is the dimension of
its generic fibre as of its special one:

    HF_special(a) = HF_generic(a) = dim K[y]_{|a|} / (I')_{|a|} = HF_{K[y]/I'}(|a|),

the middle step by the second point above.  The lifts span (I')_{|a|}
itself, not its saturation, so this holds for a non-saturated I' as well:
for I' = (y1^2, y1 y2, y1 y3) it counts 3 in every multidegree of degree
1, where V(y1) would count 2.  The leading monomials of the result are
free of pi, so the basis read mod pi is a basis of the special fibre
(``varieties.special_fibre``) with the same leading monomials, and
HF_special(a) is the number of standard x-monomials of multidegree a.
When a coefficient of X holds pi, HF_{K[y]/I'} is not read off I' over L,
and the run goes without a target.  When a coefficient of X or an entry of
the configuration mixes pi powers, the generators are not
weight-homogeneous, and ``saturate`` takes its elimination route on the
generators of S plus the lifts.

``special_fibre_of_model`` reads the fibre off the model by the same
route as the ambient fibre, ``varieties.special_fibre``: on the fast path
the model's basis mod pi is already the reduced fibre basis under
``fibre_weight_order``; on the elimination route a basis over the residue
field is computed from it.  The fibre's reduced degrevlex basis is what
``degen fibre`` prints.  ``support_analysis`` locates that fibre inside
the stratification of the ambient fibre by the component vectors: level l
keeps the vectors with support of size at most l, and delta is the least
level whose monomial intersection ideal is radically contained in the
fibre ideal.

A time cap applies to a whole command: ``support_analysis`` and
``special_fibre_of_model`` start one ``Deadline`` and give each inner call
only the time left; a capped run names the phase it stopped in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .coeffs import DomainError
from .groebner import (
    Deadline,
    compositions,
    hilbert_function,
    intersect_monomial_ideals,
    radical_membership,
    saturate,
)
from .polyring import (
    DegRevLex,
    Ideal,
    MPoly,
    VarUniverse,
    parse_poly,
)
from .varieties import (
    LatticeConfig,
    component_vectors,
    conjecture_check,
    ideal_Iv,
    fibre_universe,
    mustafin_ideal,
    special_fibre,
)


def ambient_universe(d: int) -> VarUniverse:
    """Coordinates of the ambient projective space, plus pi."""
    return VarUniverse(tuple(f"y[{l}]" for l in range(1, d + 1)) + ("pi",))


@dataclass(frozen=True)
class SubvarietyInput:
    """A subvariety V(I') with declared dimension and degree; generators are
    homogeneous polynomials in y[1..d] with pi-polynomial coefficients."""

    generators: tuple
    dim: int
    degree: int

    def __post_init__(self):
        if self.dim < 0 or self.degree < 1:
            raise DomainError("need dim >= 0 and degree >= 1")
        gens = tuple(self.generators)
        if not gens:
            raise DomainError("subvariety needs at least one generator")
        uni = gens[0].universe
        yblock = [i for i, n in enumerate(uni.names) if n.startswith("y[")]
        for g in gens:
            if not g.is_multihomogeneous([yblock]):
                raise DomainError("subvariety generators must be homogeneous")
        object.__setattr__(self, "generators", gens)

    @property
    def universe(self):
        return self.generators[0].universe

    @property
    def domain(self):
        return self.generators[0].domain

    @classmethod
    def from_strings(cls, texts, dim: int, degree: int, d: int, domain) -> "SubvarietyInput":
        uni = ambient_universe(d)
        gens = tuple(parse_poly(t, uni, domain) for t in texts)
        return cls(gens, dim, degree)


def _lifts(f: MPoly, config: LatticeConfig, uni: VarUniverse) -> list:
    """The lifts F_b of a homogeneous f in y[1..d] (coefficients may hold
    pi), one per b in N^{n+1} with |b| = deg f: the k-th y-factor of each
    monomial, counted in variable order, becomes the matching entry of the
    column form of factor j when b_0 + .. + b_{j-1} <= k < b_0 + .. + b_j.
    They are read off the entries, as ``varieties._minors`` reads the minors:
    entry r of the column form of factor j is sum_i G[j][r][i] x[i][j] with
    G = M_j diag(1, pi^{n_1}, ..) over the pi-ring, so a product of entries
    expands into x-monomials with pi-ring coefficients, spread over the
    powers of pi at the end."""
    ring, d, n = config.pi_ring, config.d, config.n
    exps, pos = (0,) + config.n_vec, uni.index("pi")
    x = [[uni.index(f"x[{i + 1}][{j}]") for i in range(d)] for j in range(n + 1)]
    G = [[[ring.shift(e, exps[i]) for i, e in enumerate(row)] for row in mat]
         for mat in config.entries]
    ypos = [f.universe.index(f"y[{l}]") for l in range(1, d + 1)]
    fpi = f.universe.index("pi")
    terms = [
        (ring.shift((c,), m[fpi]), [l for l in range(d) for _ in range(m[ypos[l]])])
        for m, c in f.terms.items()
    ]
    zero, add, mul = (0,) * uni.nvars, ring.add, ring.mul
    out = []
    for b in compositions(len(terms[0][1]), n + 1):
        owner = [j for j in range(n + 1) for _ in range(b[j])]
        acc: dict = {}  # x-monomial -> pi-ring coefficient
        for coeff, factors in terms:
            part = {zero: coeff}
            for j, l in zip(owner, factors):
                step: dict = {}
                for mono, c in part.items():
                    for i, e in enumerate(G[j][l]):
                        if e:
                            nm = list(mono)
                            nm[x[j][i]] += 1
                            nm = tuple(nm)
                            step[nm] = add(step.get(nm, ()), mul(c, e))
                part = step
            for mono, c in part.items():
                acc[mono] = add(acc.get(mono, ()), c)
        F = {}
        for mono, c in acc.items():
            for k, a in enumerate(c):
                if not ring.base.is_zero(a):
                    F[mono[:pos] + (k,) + mono[pos + 1:]] = a
        out.append(MPoly(uni, config.field, F, _clean=True))
    return out


def _hilbert_target(X: SubvarietyInput, deadline: Deadline):
    """The Hilbert target of the model of X on the column blocks, a ->
    HF_{K[y]/I'}(|a|) (see the module docstring), or None when a
    coefficient of X holds pi.  The basis of I' is taken under
    ``deadline``, in phase ``model``; the counts come from
    ``hilbert_function`` on I' alone, in a table grown as degrees are asked
    about."""
    pos = X.universe.index("pi")
    if any(m[pos] for g in X.generators for m in g.terms):
        return None
    I = Ideal(X.generators, X.universe, X.domain)
    deadline.run("model", I.groebner_basis, DegRevLex())
    ys = [tuple(i for i, name in enumerate(X.universe.names) if name.startswith("y["))]
    table: dict = {}

    def target(a):
        k = sum(a)
        if k not in table:
            table.update((c[0], v) for c, v in hilbert_function(I, ys, (2 * k + 1,)).items())
        return table[k]

    return target


def model_ideal(
    config: LatticeConfig,
    X: SubvarietyInput,
    *,
    cap_seconds: float | None = None,
    saturation: Ideal | None = None,
) -> Ideal:
    """Integral model of X: the pi-saturation of the ambient minors and of
    the lifts of every generator of X into every column multidegree, as an
    extension of the ambient saturation (the module docstring proves both
    steps).  ``saturation`` is ``mustafin_ideal(config)``, computed here
    when not given; ``saturate`` adds only the lifts to its fast-path
    basis, with the Hilbert target a -> HF_{K[y]/I'}(|a|) when X has
    pi-free coefficients.  The result is a basis under the weighted pi
    order of the fast path, or, when X or the configuration mixes pi
    powers, the elimination route's basis of the same ideal.  A cap hit
    anywhere names phase ``model``."""
    if config.is_symbolic:
        raise DomainError("model ideal needs concrete entries")
    deadline = Deadline(cap_seconds)
    if saturation is None:
        saturation = deadline.run("model", mustafin_ideal, config)
    uni, dom = saturation.universe, config.field
    lifts = [F for f in X.generators for F in _lifts(f, config, uni)]
    target = _hilbert_target(X, deadline)
    return deadline.run(
        "model",
        saturate,
        Ideal(lifts, uni, dom),
        [MPoly.var(uni, dom, "pi")],
        pi_fast_weights=config.weights,
        hilbert=None if target is None else (uni.grid_indices(), target),
        saturated=saturation,
    )


def integral_model(tilde_I: Ideal, *, cap_seconds: float | None = None) -> Ideal:
    """The pi-saturation of ``tilde_I`` on the elimination route.  No pi
    content needs clearing first: pi is a unit modulo 1 - t*pi, so a
    generator and its pi-free part give the same ideal and basis."""
    pi = MPoly.var(tilde_I.universe, tilde_I.domain, "pi")
    return saturate(tilde_I, [pi], cap_seconds=cap_seconds)


def special_fibre_of_model(
    config: LatticeConfig,
    X: SubvarietyInput,
    *,
    cap_seconds: float | None = None,
    saturation: Ideal | None = None,
) -> Ideal:
    """Reduction mod pi of the model of X, over the residue field: the
    model's basis read mod pi by ``varieties.special_fibre``, with its
    reduced degrevlex basis computed and cached, as ``degen fibre`` prints
    it and the radical queries of ``support_analysis`` start from it.
    ``saturation`` goes to ``model_ideal``; one time budget covers the
    phases ``model`` and ``fibre``."""
    deadline = Deadline(cap_seconds)
    model = deadline.run("model", model_ideal, config, X, saturation=saturation)
    fibre = deadline.run("fibre", special_fibre, config, saturation=model)
    deadline.run("fibre", fibre.groebner_basis, DegRevLex())
    return fibre


# ---------------------------------------------------------------------------
# support analysis


@dataclass
class SupportReport:
    """Where the fibre of the model sits inside the ambient stratification."""

    delta: int | None
    per_level: list  # (level, contained, witness-or-"")
    star_like: bool
    minimal_support: list = field(default_factory=list)  # (v, primary)
    aborted: str = ""

    def to_dict(self):
        return {
            "delta": self.delta,
            "per_level": [
                {"level": l, "contained": c, "witness": w} for (l, c, w) in self.per_level
            ],
            "star_like": self.star_like,
            "minimal_support": [
                {"v": list(v), "primary": p} for (v, p) in self.minimal_support
            ],
            "aborted": self.aborted,
        }


def _family_ideal(vecs, d, n, domain) -> Ideal:
    uni = fibre_universe(d, n)
    if not vecs:
        one = MPoly.const(uni, domain, domain.one)
        return Ideal([one], uni, domain)
    return intersect_monomial_ideals([ideal_Iv(v, uni, domain) for v in vecs])


def _radically_contains(J: Ideal, F: Ideal, known: dict, deadline: Deadline, phase: str):
    """Is every generator of J in the radical of F?  Returns (ok, witness).
    ``known`` memoizes the answers per generator for one fibre F."""
    for g in J.generators:
        if g not in known:
            known[g] = deadline.run(phase, radical_membership, g, F)
        if not known[g]:
            return False, g.text()
    return True, ""


def support_analysis(
    config: LatticeConfig,
    X: SubvarietyInput,
    *,
    cap_seconds: float | None = None,
) -> SupportReport:
    """Least level l with the fibre of the model inside the union of the
    V(I_v) of support size <= l, plus the star-like verdict.

    The ambient decomposition is verified first; a failure aborts with
    "genericity violated, resample" since every containment certificate
    below rests on it.  ``cap_seconds`` bounds the whole analysis; running
    past it raises ``ResourceCapExceeded`` naming the phase: ambient check,
    model, fibre, level l, star or minimal support.
    """
    deadline = Deadline(cap_seconds)
    amb = deadline.run("ambient check", conjecture_check, config, "both-containments")
    if amb.capped:
        raise deadline.exceeded("ambient check")
    if not amb.equal:
        return SupportReport(
            None, [], False, aborted="genericity violated, resample"
        )
    d, n = config.d, config.n
    dom = config.field
    fibre = deadline.run("model", special_fibre_of_model, config, X, saturation=amb.saturation)
    vecs = component_vectors(d, n)
    known: dict = {}

    per_level = []
    delta = None
    for level in range(d):
        fam = [v for v in vecs if v.length <= level]
        J = _family_ideal(fam, d, n, dom)
        ok, witness = _radically_contains(J, fibre, known, deadline, f"level {level}")
        per_level.append((level, ok, witness))
        if ok and delta is None:
            delta = level
    star_family = [v for v in vecs if v.star]
    star_like, _w = _radically_contains(
        _family_ideal(star_family, d, n, dom), fibre, known, deadline, "star"
    )

    minimal: list = []
    if delta is not None:
        chosen = [v for v in vecs if v.length <= delta]
        for v in list(chosen):
            trial = [w for w in chosen if w is not v]
            J = _family_ideal(trial, d, n, dom)
            ok, _ = _radically_contains(J, fibre, known, deadline, "minimal support")
            if ok:
                chosen = trial
        minimal = [(v.v, v.primary) for v in chosen]
    return SupportReport(delta, per_level, star_like, minimal)


def chow_component_bound(d: int, n: int, dim_x: int, deg_x: int) -> int:
    """deg(X) times the number of exponent vectors m in [0, d-1]^{n+1} with
    sum m_i = (n+1)(d-1) - dim(X), by direct enumeration."""
    if not 0 <= dim_x <= d - 1:
        raise DomainError("need 0 <= dim X <= d-1")
    target = (n + 1) * (d - 1) - dim_x
    count = sum(
        1
        for m in itertools.product(range(d), repeat=n + 1)
        if sum(m) == target
    )
    return deg_x * count
