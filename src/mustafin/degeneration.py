"""Models of embedded subvarieties and the support of their special fibres.

Given a lattice configuration and a subvariety X = V(I') in coordinates
y[1..d], the model ideal is the multihomogeneous ideal of the closure of the
image of X under the product of the inverse lattice trivializations.  The
underlying graph ideal is

    < I'(y),  alpha_j * x[i][j] - (adj(g_j) . y)_i,  1 - t_j * alpha_j >

with y, then the saturation auxiliaries t_j, then the scalings alpha_j
eliminated (the adjugate stands in for the inverse; its determinant factor
is absorbed by alpha_j, which is saturated away regardless).  The default
``model_ideal`` shortcuts the y-elimination by anchoring through factor 0
(y is proportional to g_0 . x_col0 on the graph); ``model_ideal_via_graph``
is the literal formulation and the tests compare the two.  Clearing pi and
saturating gives the integral model; reducing mod pi its special fibre.

``support_analysis`` locates that fibre inside the stratification of the
ambient fibre by the component vectors: level l keeps the vectors with
support of size at most l, and delta is the least level whose monomial
intersection ideal is radically contained in the fibre ideal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .coeffs import DomainError
from .groebner import (
    ResourceCapExceeded,
    buchberger,
    divide_var_power,
    intersect_monomial_ideals,
    radical_membership,
    saturate,
    var_content,
)
from .polyring import (
    Block,
    DegRevLex,
    Ideal,
    MPoly,
    VarUniverse,
    grid_universe,
    parse_poly,
)
from .varieties import (
    LatticeConfig,
    _det,
    _pipoly_to_mpoly,
    component_vectors,
    conjecture_check,
    fibre_universe,
    ideal_Iv,
    build_g,
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


def _adjugate(config: LatticeConfig, j: int, uni: VarUniverse):
    """Adjugate (cofactor transpose) of g_j, computed over the pi-ring of
    the configuration; entries are returned as polynomials in ``uni``."""
    d, ring = config.d, config.pi_ring
    exps = (0,) + config.n_vec
    g = [[ring.shift(config.entries[j][r][i], exps[i]) for i in range(d)] for r in range(d)]
    adj = [[None] * d for _ in range(d)]
    for i in range(d):
        for r in range(d):
            minor = [[g[a][b] for b in range(d) if b != i] for a in range(d) if a != r]
            c = _det(minor, ring)
            adj[i][r] = _pipoly_to_mpoly(uni, config.field, ring, ring.neg(c) if (i + r) % 2 else c)
    return adj


def _elim_block_order(big: VarUniverse, groups):
    """Block order: the listed variable-name groups in order, then the grid
    variables, then pi."""
    segments = []
    for names in groups:
        if names:
            segments.append((tuple(big.index(v) for v in names), DegRevLex()))
    xpos = tuple(i for i, name in enumerate(big.names) if name.startswith("x["))
    segments.append((xpos, DegRevLex()))
    segments.append(((big.index("pi"),), DegRevLex()))
    return Block(tuple(segments), name="model-elim")


def model_ideal(
    config: LatticeConfig, X: SubvarietyInput, *, cap_seconds: float | None = None
) -> Ideal:
    """Multihomogeneous ideal of the closure of the image of X under the
    inverse trivializations, with pi-polynomial coefficients.

    A point of the image determines its preimage through factor 0: the
    ambient coordinates are proportional to g_0 . x_col0.  Substituting that
    for y removes the ambient variables from the elimination entirely; what
    remains are the scaled graph relations of the other factors,

        alpha_j * x[i][j] = (adj(g_j) . g_0 . x_col0)_i,   j = 1..n,

    with every alpha_j forced invertible (1 - t_j alpha_j) and then
    eliminated.  The invertibility of the alpha_j also removes the locus
    x_col0 = 0, so no spurious components survive.  The slower formulation
    keeping y explicit is ``model_ideal_via_graph``; both produce the same
    ideal and the tests compare them on small inputs.
    """
    if config.is_symbolic:
        raise DomainError("model ideal needs concrete entries")
    d, n = config.d, config.n
    dom = config.field
    names = [f"t[{j}]" for j in range(1, n + 1)]
    names += [f"alpha[{j}]" for j in range(1, n + 1)]
    for j in range(n + 1):
        for i in range(1, d + 1):
            names.append(f"x[{i}][{j}]")
    names.append("pi")
    big = VarUniverse(tuple(names), (d, n))

    g0 = [[entry.relabel(big) for entry in row] for row in build_g(config)[0]]
    x0 = [MPoly.var(big, dom, f"x[{i}][0]") for i in range(1, d + 1)]
    w0 = []
    for r in range(d):
        acc = MPoly.zero(big, dom)
        for l in range(d):
            acc = acc + g0[r][l] * x0[l]
        w0.append(acc)
    # ambient generators with y[l] := (g_0 . x_col0)_l; the y variables are
    # absent from `big`, so substitute from a temporary extension into `big`
    wide = big.extend([f"y[{l}]" for l in range(1, d + 1)])
    assignment = {f"y[{l}]": w0[l - 1] for l in range(1, d + 1)}
    gens = [f.relabel(wide).substitute(assignment, big) for f in X.generators]
    one = MPoly.const(big, dom, dom.one)
    for j in range(1, n + 1):
        adj = _adjugate(config, j, big)
        for i in range(d):
            w_ij = MPoly.zero(big, dom)
            for l in range(d):
                w_ij = w_ij + adj[i][l] * w0[l]
            gens.append(
                MPoly.var(big, dom, f"alpha[{j}]")
                * MPoly.var(big, dom, f"x[{i + 1}][{j}]")
                - w_ij
            )
        gens.append(
            one - MPoly.var(big, dom, f"t[{j}]") * MPoly.var(big, dom, f"alpha[{j}]")
        )
    tnames = [f"t[{j}]" for j in range(1, n + 1)]
    anames = [f"alpha[{j}]" for j in range(1, n + 1)]
    order = _elim_block_order(big, [tnames, anames])
    gb = buchberger(gens, order, universe=big, domain=dom, cap_seconds=cap_seconds)
    drop = [big.index(v) for v in tnames + anames]
    kept = [h for h in gb if all(m[p] == 0 for m in h.terms for p in drop)]
    small = grid_universe(d, n, pi=True)
    return Ideal([h.relabel(small) for h in kept], small, dom)


def model_ideal_via_graph(
    config: LatticeConfig, X: SubvarietyInput, *, cap_seconds: float | None = None
) -> Ideal:
    """Reference formulation keeping the ambient coordinates: the graph
    ideal in (y, t, alpha, x, pi) with y eliminated first.  Slower; used to
    cross-check ``model_ideal`` on small inputs."""
    if config.is_symbolic:
        raise DomainError("model ideal needs concrete entries")
    d, n = config.d, config.n
    dom = config.field
    names = [f"y[{l}]" for l in range(1, d + 1)]
    names += [f"t[{j}]" for j in range(n + 1)]
    names += [f"alpha[{j}]" for j in range(n + 1)]
    for j in range(n + 1):
        for i in range(1, d + 1):
            names.append(f"x[{i}][{j}]")
    names.append("pi")
    big = VarUniverse(tuple(names), (d, n))

    yvec = [MPoly.var(big, dom, f"y[{l}]") for l in range(1, d + 1)]
    gens = [f.relabel(big) for f in X.generators]
    one = MPoly.const(big, dom, dom.one)
    for j in range(n + 1):
        adj = _adjugate(config, j, big)
        for i in range(d):
            m_ij = MPoly.zero(big, dom)
            for l in range(d):
                m_ij = m_ij + adj[i][l] * yvec[l]
            gens.append(
                MPoly.var(big, dom, f"alpha[{j}]")
                * MPoly.var(big, dom, f"x[{i + 1}][{j}]")
                - m_ij
            )
        gens.append(
            one - MPoly.var(big, dom, f"t[{j}]") * MPoly.var(big, dom, f"alpha[{j}]")
        )
    ynames = [f"y[{l}]" for l in range(1, d + 1)]
    tnames = [f"t[{j}]" for j in range(n + 1)]
    anames = [f"alpha[{j}]" for j in range(n + 1)]
    order = _elim_block_order(big, [ynames, tnames, anames])
    gb = buchberger(gens, order, universe=big, domain=dom, cap_seconds=cap_seconds)
    drop = [big.index(v) for v in ynames + tnames + anames]
    kept = [h for h in gb if all(m[p] == 0 for m in h.terms for p in drop)]
    small = grid_universe(d, n, pi=True)
    return Ideal([h.relabel(small) for h in kept], small, dom)


def integral_model(tilde_I: Ideal, *, cap_seconds: float | None = None) -> Ideal:
    """Clear pi content from every generator, then saturate by pi."""
    uni, dom = tilde_I.universe, tilde_I.domain
    if tilde_I.is_zero():
        return tilde_I
    pos = uni.index("pi")
    cleared = []
    for g in tilde_I.generators:
        c = var_content(g, pos)
        cleared.append(divide_var_power(g, pos, c) if c else g)
    pi = MPoly.var(uni, dom, "pi")
    return saturate(Ideal(cleared, uni, dom), [pi], cap_seconds=cap_seconds)


def special_fibre_of_model(
    config: LatticeConfig, X: SubvarietyInput, *, cap_seconds: float | None = None
) -> Ideal:
    """Reduction mod pi of the integral model of X, over the residue field."""
    model = integral_model(
        model_ideal(config, X, cap_seconds=cap_seconds), cap_seconds=cap_seconds
    )
    uni_k = fibre_universe(config.d, config.n)
    dom = config.field
    if model.is_zero():
        return Ideal((), uni_k, dom)
    pos = model.universe.index("pi")
    gens = []
    for g in model.generators:
        kept = {m: c for m, c in g.terms.items() if m[pos] == 0}
        if kept:
            gens.append(MPoly(model.universe, dom, kept, _clean=True).relabel(uni_k))
    basis = buchberger(gens, DegRevLex(), universe=uni_k, domain=dom, cap_seconds=cap_seconds)
    out = Ideal(basis, uni_k, dom)
    out._gb_cache[(DegRevLex(), False)] = tuple(basis)
    return out


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
    return intersect_monomial_ideals([ideal_Iv(v, n, uni, domain) for v in vecs])


def _radically_contains(J: Ideal, F: Ideal, *, cap_seconds=None):
    """Is every generator of J in the radical of F?  Returns (ok, witness)."""
    for g in J.generators:
        if not radical_membership(g, F, cap_seconds=cap_seconds):
            return False, g.text()
    return True, ""


def support_analysis(
    config: LatticeConfig,
    X: SubvarietyInput,
    *,
    cap_seconds: float | None = None,
    skip_ambient_check: bool = False,
) -> SupportReport:
    """Least level l with the fibre of the model inside the union of the
    V(I_v) of support size <= l, plus the star-like verdict.

    The ambient decomposition is verified first; a failure aborts with
    "genericity violated, resample" since every containment certificate
    below rests on it.  A check cut short by ``cap_seconds`` raises
    ``ResourceCapExceeded``, as a capped later stage does.
    """
    if not skip_ambient_check:
        amb = conjecture_check(config, "both-containments", cap_seconds=cap_seconds)
        if amb.capped:
            raise ResourceCapExceeded(
                f"ambient decomposition check exceeded {cap_seconds:g}s"
            )
        if not amb.equal:
            return SupportReport(
                None, [], False, aborted="genericity violated, resample"
            )
    d, n = config.d, config.n
    dom = config.field
    fibre = special_fibre_of_model(config, X, cap_seconds=cap_seconds)
    vecs = component_vectors(d, n)

    per_level = []
    delta = None
    for level in range(d):
        fam = [v for v in vecs if v.length <= level]
        J = _family_ideal(fam, d, n, dom)
        ok, witness = _radically_contains(J, fibre, cap_seconds=cap_seconds)
        per_level.append((level, ok, witness))
        if ok and delta is None:
            delta = level
    star_family = [v for v in vecs if v.star]
    star_like, _w = _radically_contains(
        _family_ideal(star_family, d, n, dom), fibre, cap_seconds=cap_seconds
    )

    minimal: list = []
    if delta is not None:
        chosen = [v for v in vecs if v.length <= delta]
        for v in list(chosen):
            trial = [w for w in chosen if w is not v]
            J = _family_ideal(trial, d, n, dom)
            ok, _ = _radically_contains(J, fibre, cap_seconds=cap_seconds)
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
