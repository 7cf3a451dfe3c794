"""Lattice configurations, Mustafin varieties, and their special fibres.

A configuration is the input datum (d, n, n_vec, coefficient matrices M_l);
it determines matrices g_l = M_l * diag(1, pi^{n_1}, ..., pi^{n_{d-1}}), a
determinantal ideal of 2x2 minors, its saturation with respect to pi (the
ideal of the model), and the reduction mod pi (the ideal of the special
fibre).  The expected decomposition of that fibre intersects the monomial
ideals I_v attached to component vectors v; ``conjecture_check`` verifies
it on concrete data, and ``minor_pipeline_d4`` replays the explicit
minor-combination argument available at d = 4.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import comb

from .coeffs import DomainError, PiRing, base_field
from .groebner import (
    Deadline,
    ResourceCapExceeded,
    buchberger,
    field_normalize,
    hilbert_function,
    in_monomial_ideal,
    minimalize_monomials,
    normal_forms,
    saturate,
)
from .polyring import (
    Ideal,
    MPoly,
    VarUniverse,
    WeightedOrder,
    WeightedPiOrder,
    grid_universe,
    mono_divides,
)


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class LatticeConfig:
    """Input datum: dimension d, count n+1, exponent tuple n_vec, and the
    (n+1) coefficient matrices with entries polynomial in pi.

    ``entries[l][i][j]`` is a pi-polynomial (tuple over the base field) or
    the string ``"A"`` marking a symbolic parameter A[i+1][j+1][l].
    """

    d: int
    n: int
    n_vec: tuple[int, ...]
    field: object
    entries: tuple  # (n+1) x d x d of PiRing elements, or "symbolic"
    seed: int | None = None

    def __post_init__(self):
        if self.d < 2:
            raise DomainError("d must be at least 2")
        if self.n < 0:
            raise DomainError("n must be nonnegative")
        nv = tuple(self.n_vec)
        if len(nv) != self.d - 1:
            raise DomainError("n_vec must have length d-1")
        if any(a <= 0 for a in nv):
            raise DomainError("n_vec entries must be positive")
        if any(not a < b for a, b in zip(nv, nv[1:])):
            raise DomainError("n_vec must be strictly increasing")
        object.__setattr__(self, "n_vec", nv)
        object.__setattr__(self, "field", base_field(self.field))
        if not self.is_symbolic:
            if len(self.entries) != self.n + 1:
                raise DomainError(f"need {self.n + 1} matrices")
            ring = self.pi_ring
            for l, mat in enumerate(self.entries):
                if len(mat) != self.d or any(len(r) != self.d for r in mat):
                    raise DomainError(f"matrix {l} is not {self.d}x{self.d}")
            ent = tuple(
                tuple(tuple(ring.element(e) for e in row) for row in mat)
                for mat in self.entries
            )
            object.__setattr__(self, "entries", ent)
            for l, mat in enumerate(ent):
                red = [[ring.reduce_mod_pi(e) for e in row] for row in mat]
                if self.field.is_zero(_det(red, self.field)):
                    raise DomainError(
                        f"matrix {l} is singular mod pi; configuration is degenerate"
                    )

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.entries, str) and self.entries == "symbolic"

    @property
    def pi_ring(self) -> PiRing:
        return PiRing(self.field)

    @property
    def weights(self) -> tuple[int, ...]:
        """Weights making the minors homogeneous: each x[i][j] weighs
        n_{d-1} - n_{i-1} (with n_0 = 0) and pi weighs 1."""
        uni = self.universe()
        exps = (0,) + self.n_vec
        w = []
        for name in uni.names:
            if name == "pi":
                w.append(1)
            elif name.startswith("x["):
                i = int(name[2 : name.index("]")])
                w.append(self.n_vec[-1] - exps[i - 1])
            else:
                w.append(0)
        return tuple(w)

    def universe(self) -> VarUniverse:
        extras = []
        if self.is_symbolic:
            for l in range(self.n + 1):
                for i in range(1, self.d + 1):
                    for j in range(1, self.d + 1):
                        extras.append(f"A[{i}][{j}][{l}]")
        return grid_universe(self.d, self.n, pi=True, extras_back=extras)

    def to_dict(self) -> dict:
        ring = self.pi_ring
        return {
            "d": self.d,
            "n": self.n,
            "n_vec": list(self.n_vec),
            "field": "Q" if self.field.characteristic == 0 else {"Fp": self.field.characteristic},
            "entries": "symbolic"
            if self.is_symbolic
            else [
                [[ring.format(e) for e in row] for row in mat] for mat in self.entries
            ],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatticeConfig":
        fld = base_field(data.get("field", {"Fp": 32003}))
        entries = data["entries"]
        if entries == "symbolic":
            ent = "symbolic"
        elif entries == "random":
            return random_config(
                data["d"],
                data["n"],
                tuple(data["n_vec"]),
                fld,
                int(data.get("seed", 0)),
            )
        else:
            ring = PiRing(fld)
            ent = tuple(
                tuple(tuple(ring.parse(e) for e in row) for row in mat)
                for mat in entries
            )
        return cls(
            d=int(data["d"]),
            n=int(data["n"]),
            n_vec=tuple(data["n_vec"]),
            field=fld,
            entries=ent,
            seed=data.get("seed"),
        )


def _det(matrix, dom):
    """Exact determinant by cofactor expansion along the first row, over
    any domain with ``zero``/``add``/``sub``/``mul`` (a field or the
    pi-ring); the matrices here are at most d x d."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    out = dom.zero
    sign = True
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = dom.mul(matrix[0][j], _det(minor, dom))
        out = dom.add(out, term) if sign else dom.sub(out, term)
        sign = not sign
    return out


def random_config(d: int, n: int, n_vec, field, seed: int) -> LatticeConfig:
    """Uniform random matrices over the base field (constant in pi), each
    resampled until invertible mod pi, up to 200 draws.  Deterministic per
    seed."""
    fld = base_field(field)
    rng = random.Random(("config", seed, d, n, tuple(n_vec)).__repr__())
    mats = []
    for _ in range(n + 1):
        for _attempt in range(200):
            mat = [[fld.random(rng) for _ in range(d)] for _ in range(d)]
            if not fld.is_zero(_det(mat, fld)):
                break
        else:
            raise DomainError("could not sample an invertible matrix")
        mats.append(tuple(tuple((e,) if not fld.is_zero(e) else () for e in row) for row in mat))
    return LatticeConfig(d, n, tuple(n_vec), fld, tuple(mats), seed=seed)


# ---------------------------------------------------------------------------
# matrices and minors


def _minors(config: LatticeConfig) -> list:
    """All 2x2 minors of the d x (n+1) matrix of column forms (entry r of
    column l is (g_l . x_col l)_r), zeros kept: columns alpha < beta, and
    for each pair rows gamma < delta, C(n+1,2)*C(d,2) polynomials.  They are
    read off the entries, not multiplied out: the minor of columns a < b
    and rows r < s has the coefficient M_a[r][i] M_b[s][j] - M_a[s][i]
    M_b[r][j] at x[i][a] x[j][b] pi^(e_i + e_j), a pi-ring element spread
    over the powers of pi, or for symbolic entries a difference of two
    products of A's."""
    uni, dom, d = config.universe(), config.field, config.d
    exps, pos, cols = (0,) + config.n_vec, uni.index("pi"), range(config.n + 1)
    x = [[uni.index(f"x[{i + 1}][{l}]") for i in range(d)] for l in cols]
    symbolic, M, ring = config.is_symbolic, config.entries, config.pi_ring
    if symbolic:  # M[l][r][i] is the position of A[r+1][i+1][l]
        M = [[[uni.index(f"A[{r + 1}][{i + 1}][{l}]") for i in range(d)] for r in range(d)]
             for l in cols]
    gens = []
    for (a, b), (r, s) in itertools.product(
        itertools.combinations(cols, 2), itertools.combinations(range(d), 2)
    ):
        terms = {}
        for i, j in itertools.product(range(d), repeat=2):
            mono = [0] * uni.nvars
            mono[x[a][i]] = mono[x[b][j]] = 1
            mono[pos] = exps[i] + exps[j]
            if symbolic:
                plus = list(mono)
                plus[M[a][r][i]] = plus[M[b][s][j]] = mono[M[a][s][i]] = mono[M[b][r][j]] = 1
                terms[tuple(plus)], terms[tuple(mono)] = dom.one, dom.neg(dom.one)
                continue
            coeff = ring.sub(ring.mul(M[a][r][i], M[b][s][j]), ring.mul(M[a][s][i], M[b][r][j]))
            for k, c in enumerate(coeff):
                if not dom.is_zero(c):
                    mono[pos] = exps[i] + exps[j] + k
                    terms[tuple(mono)] = c
        gens.append(MPoly(uni, dom, terms, _clean=True))
    return gens


def minors_ideal(config: LatticeConfig) -> Ideal:
    """The ideal of the minors (``_minors``), the vanishing ones dropped."""
    return Ideal(_minors(config), config.universe(), config.field)


def mustafin_ideal(
    config: LatticeConfig,
    *,
    cap_seconds: float | None = None,
    trace_log: list | None = None,
) -> Ideal:
    """Saturation of the minors ideal with respect to pi.

    The saturation is flat over L[pi].  ``LatticeConfig`` rejects every M_l
    that is singular mod pi, so every g_l is invertible over L(pi) and the
    generic fibre is the diagonal P^{d-1} in (P^{d-1})^{n+1}.  The special
    fibre therefore has the diagonal's Hilbert function C(|a|+d-1, d-1) in
    every column multidegree a, which the fast path gets as its Hilbert
    target.
    """
    if config.is_symbolic:
        raise DomainError("saturation needs concrete entries")
    I = minors_ideal(config)
    if I.is_zero():
        return I
    uni = I.universe
    pi = MPoly.var(uni, config.field, "pi")
    d = config.d
    return saturate(
        I,
        [pi],
        pi_fast_weights=config.weights,
        cap_seconds=cap_seconds,
        trace_log=trace_log,
        hilbert=(uni.grid_indices(), lambda a: comb(sum(a) + d - 1, d - 1)),
    )


def fibre_universe(d: int, n: int) -> VarUniverse:
    return grid_universe(d, n, pi=False)


def reduce_ideal_mod_pi(I: Ideal, config: LatticeConfig) -> Ideal:
    """Coefficientwise reduction mod pi of the given generators, as an ideal
    over the residue field in the grid variables."""
    uni_k = fibre_universe(config.d, config.n)
    dom = config.field
    pi_pos = I.universe.index("pi")
    gens = []
    for g in I.generators:
        kept = {m: c for m, c in g.terms.items() if m[pi_pos] == 0}
        if kept:
            gens.append(MPoly(I.universe, dom, kept, _clean=True).relabel(uni_k))
    return Ideal(gens, uni_k, dom)


def fibre_weight_order(config: LatticeConfig) -> WeightedOrder:
    """The weights of ``LatticeConfig.weights`` on the fibre's grid variables."""
    w = dict(zip(config.universe().names, config.weights))
    return WeightedOrder(tuple(w[v] for v in fibre_universe(config.d, config.n).names))


def special_fibre(
    config: LatticeConfig,
    *,
    cap_seconds: float | None = None,
    trace_log: list | None = None,
    saturation: Ideal | None = None,
) -> Ideal:
    """Ideal of the special fibre: reduce a pi-saturated basis mod pi.

    Along the fast path the saturation basis is reduced under
    ``WeightedPiOrder``, and every element is weight-homogeneous and free of
    pi content, so its leading monomial carries the least pi power, none.
    On pi-free monomials the fibre order ``korder`` agrees with that order.
    So reading the basis mod pi keeps every leading term and drops only
    tail terms: the result already is the reduced fibre basis, in
    ascending ``korder`` order.  Each fibre generator carries the leading
    term of its saturation element, pi removed, as its ``korder`` leading
    term, so none is searched for; over Q, where dropping the pi terms
    changes the content, the generators are normalized again.  Otherwise a
    fresh basis over the residue field is computed.  Both steps share one
    time budget, with phases ``saturation`` and ``fibre``.  ``saturation``
    is a pi-saturation the caller already has: the result of
    ``mustafin_ideal``, or the model of a subvariety from
    ``degeneration.model_ideal``, whose fast path uses the same order.
    """
    deadline = Deadline(cap_seconds)
    sat = saturation
    if sat is None:
        sat = deadline.run("saturation", mustafin_ideal, config, trace_log=trace_log)
    if sat.is_zero():
        return Ideal((), fibre_universe(config.d, config.n), config.field)
    worder = WeightedPiOrder(config.weights, sat.universe.index("pi"))
    fast = worder in sat._gb_cache
    reduced = reduce_ideal_mod_pi(sat, config)
    korder = fibre_weight_order(config)
    if fast:
        gens = list(reduced.generators)
        pos = sat.universe.index("pi")
        for f, g in zip(gens, sat.generators, strict=True):
            lc, lm = g.leading_term(worder)
            f._lt = {korder: (lc, lm[:pos] + lm[pos + 1:])}
        if config.field.characteristic == 0:
            gens = [field_normalize(g, korder) for g in gens]
    else:
        gens = deadline.run("fibre", buchberger, list(reduced.generators), korder)
    out = Ideal(gens, reduced.universe, reduced.domain)
    out._gb_cache[korder] = tuple(gens)
    return out


# ---------------------------------------------------------------------------
# component vectors and their monomial ideals


@dataclass(frozen=True)
class ComponentVector:
    """Integer vector v indexing the monomial ideal I_v."""

    v: tuple[int, ...]
    d: int

    def __post_init__(self):
        if any(e < 0 or e > self.d - 1 for e in self.v):
            raise DomainError("entries must lie in [0, d-1]")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.v) if e < self.d - 1)

    @property
    def length(self) -> int:
        return len(self.support)

    @property
    def primary(self) -> bool:
        return any(e == 0 for e in self.v)

    @property
    def star(self) -> bool:
        return any(e == self.d - 1 for e in self.v)


def component_vectors(d: int, n: int) -> list[ComponentVector]:
    """All v in [0, d-1]^{n+1} with sum v_i = n(d-1), in lex order."""
    if d < 2 or n < 0:
        raise DomainError("need d >= 2, n >= 0")
    total = n * (d - 1)
    out = []
    for v in itertools.product(range(d), repeat=n + 1):
        if sum(v) == total:
            out.append(ComponentVector(v, d))
    return out


def ideal_Iv(vec: ComponentVector, universe: VarUniverse, domain) -> Ideal:
    """I_v = < x[i][j] : 1 <= i <= v_j >, over the grid universe of ``vec``'s
    d and n."""
    gens = []
    for j, vj in enumerate(vec.v):
        for i in range(1, vj + 1):
            gens.append(MPoly.var(universe, domain, f"x[{i}][{j}]"))
    return Ideal(gens, universe, domain)


def expected_intersection(d: int, n: int, domain) -> Ideal:
    """Minimal generators of the intersection of I_v over all component
    vectors, in ascending exponent order, read off from t-vectors.

    Every I_v is generated by variables, so the intersection is squarefree
    and a monomial m lies in I_v exactly when one of its variables does.  In
    column j only the variable of smallest row matters; write it x[d-t_j][j]
    with t_j in [1, d-1] (t_j = 0 when m has none there: x[d][j] lies in no
    I_v).  Then m is outside I_v iff t_j <= d-1-v_j for every j.  The vectors
    w = (d-1-v_j)_j are exactly those in [0, d-1]^{n+1} with sum d-1, and a
    t in [0, d-1]^{n+1} lies below one of them iff sum t <= d-1.  So m is in
    every I_v iff sum t >= d.  A proper divisor of a squarefree m drops some
    variable, so m is a minimal generator iff moreover it holds one variable
    per nonzero t_j and dropping any one of them, sum t - t_j < d, leaves the
    intersection.  ``intersect_monomial_ideals`` over the ``ideal_Iv`` is the
    slow oracle of this in the tests.
    """
    if d < 2 or n < 0:
        raise DomainError("need d >= 2, n >= 0")
    uni = fibre_universe(d, n)
    pos = [[uni.index(f"x[{d - e}][{j}]") for e in range(d)] for j in range(n + 1)]
    monos = []
    for t in itertools.product(range(d), repeat=n + 1):
        total = sum(t)
        if total < d or total - min(e for e in t if e) >= d:
            continue
        mono = [0] * uni.nvars
        for j, e in enumerate(t):
            if e:
                mono[pos[j][e]] = 1
        monos.append(tuple(mono))
    monos.sort()
    return Ideal([MPoly.term(uni, domain, domain.one, m) for m in monos], uni, domain)


# ---------------------------------------------------------------------------
# the decomposition check


@dataclass
class ConjectureReport:
    """Outcome of one containment/equality check of the fibre ideal against
    the intersection of the I_v.

    ``fibre`` is the fibre ideal that was checked and ``saturation`` the
    pi-saturation of the minors it was read off (``mustafin_ideal``), both
    None for a capped run; they are left out of ``to_dict``.
    """

    equal: bool
    mode: str
    forward_failures: list[str] = field(default_factory=list)
    backward_failures: list[str] = field(default_factory=list)
    d: int = 0
    n: int = 0
    n_vec: tuple = ()
    field_name: str = ""
    seed: int | None = None
    capped: bool = False
    fibre: Ideal | None = field(default=None, compare=False, repr=False)
    saturation: Ideal | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "equal": self.equal,
            "mode": self.mode,
            "forward_failures": self.forward_failures,
            "backward_failures": self.backward_failures,
            "d": self.d,
            "n": self.n,
            "n_vec": list(self.n_vec),
            "field": self.field_name,
            "seed": self.seed,
            "capped": self.capped,
        }


def conjecture_check(
    config: LatticeConfig,
    mode: str = "both-containments",
    *,
    cap_seconds: float | None = None,
) -> ConjectureReport:
    """Check the expected fibre decomposition.

    Forward direction: every generator of the intersection of the I_v lies
    in the fibre ideal (normal form against its basis).  Backward (only in
    both-containments mode): every fibre basis element lies in the monomial
    intersection, a term-by-term divisibility scan.  One containment plus
    the shared Hilbert polynomial already forces equality, which is why
    forward-only mode exists.  The saturation and the fibre share one
    time budget; a capped run reports ``capped``.
    """
    if mode not in ("both-containments", "forward-only"):
        raise DomainError(f"unknown mode {mode!r}")
    report = ConjectureReport(
        equal=False,
        mode=mode,
        d=config.d,
        n=config.n,
        n_vec=config.n_vec,
        field_name=config.field.name,
        seed=config.seed,
    )
    deadline = Deadline(cap_seconds)
    try:
        sat = deadline.run("saturation", mustafin_ideal, config)
        fibre = deadline.run("fibre", special_fibre, config, saturation=sat)
    except ResourceCapExceeded:
        report.capped = True
        return report
    report.fibre, report.saturation = fibre, sat
    korder = fibre_weight_order(config)
    fibre_gb = list(fibre.groebner_basis(korder))
    inter = expected_intersection(config.d, config.n, config.field)

    if config.n == 0:
        report.equal = fibre.is_zero() and inter.is_zero()
        return report

    remainders = normal_forms(inter.generators, fibre_gb, korder)
    for g, r in zip(inter.generators, remainders):
        if r:
            report.forward_failures.append(g.text())
    if mode == "both-containments":
        inter_monos = [next(iter(g.terms)) for g in inter.generators]
        inside = in_monomial_ideal(fibre.generators, inter_monos)
        for g, ok in zip(fibre.generators, inside):
            if not ok:
                report.backward_failures.append(g.text(korder))
    report.equal = not report.forward_failures and not report.backward_failures
    return report


def fibre_hilbert_tables(config: LatticeConfig, bound: int = 2, fibre: Ideal | None = None):
    """Hilbert tables of the fibre ideal and of the expected intersection on
    the multidegree box [0, bound]^{n+1}.  ``fibre`` is the special fibre of
    ``config`` when the caller already has it (``ConjectureReport.fibre``)."""
    if fibre is None:
        fibre = special_fibre(config)
    inter = expected_intersection(config.d, config.n, config.field)
    blocks = fibre.universe.grid_indices()
    box = (bound,) * (config.n + 1)
    return (
        hilbert_function(fibre, blocks, box, order=fibre_weight_order(config)),
        hilbert_function(inter, blocks, box),
    )


# ---------------------------------------------------------------------------
# the explicit d=4 fibre


def expected_fibre_d4(domain) -> Ideal:
    """The explicit generator families of the d=4, n=3 fibre ideal."""
    uni = fibre_universe(4, 3)

    def xv(i, j):
        return MPoly.var(uni, domain, f"x[{i}][{j}]")

    gens = []
    rng = range(4)
    for i, j in itertools.combinations(rng, 2):
        gens.append(xv(1, i) * xv(1, j))
    for i, j in itertools.combinations(rng, 2):
        gens.append(xv(2, i) * xv(2, j))
    for i, j in itertools.permutations(rng, 2):
        gens.append(xv(1, i) * xv(2, j))
    for i, j in itertools.permutations(rng, 2):
        gens.append(xv(1, i) * xv(3, j))
    for i, j, l in itertools.permutations(rng, 3):
        gens.append(xv(2, i) * xv(3, j) * xv(3, l))
    gens.append(xv(3, 0) * xv(3, 1) * xv(3, 2) * xv(3, 3))
    monos = minimalize_monomials([next(iter(g.terms)) for g in gens])
    return Ideal([MPoly.term(uni, domain, domain.one, m) for m in sorted(monos)], uni, domain)


# ---------------------------------------------------------------------------
# Borel-fixedness


def borel_fixed_check(I: Ideal, d: int, n: int) -> bool:
    """Stability of a monomial grid ideal under moving any x[i][j] to
    x[i'][j] with i' < i (the combinatorial criterion, characteristic 0)."""
    if not I.is_monomial():
        raise DomainError("borel check needs a monomial ideal")
    uni = I.universe
    monos = [next(iter(g.terms)) for g in I.generators]

    def in_ideal(m):
        return any(mono_divides(g, m) for g in monos)

    for m in monos:
        for pos, e in enumerate(m):
            if not e:
                continue
            name = uni.names[pos]
            i = int(name[2 : name.index("]")])
            j = int(name[name.index("][") + 2 : -1])
            for i2 in range(1, i):
                swapped = list(m)
                swapped[pos] -= 1
                swapped[uni.index(f"x[{i2}][{j}]")] += 1
                if not in_ideal(tuple(swapped)):
                    return False
    return True


# ---------------------------------------------------------------------------
# the d=4 minor pipeline


@dataclass
class StageReport:
    stage: str
    ok: bool
    detail: str = ""

    def to_dict(self):
        return {"stage": self.stage, "ok": self.ok, "detail": self.detail}


@dataclass
class PipelineReport:
    ok: bool
    stages: list
    d: int = 4
    n: int = 3
    n_vec: tuple = ()
    field_name: str = ""
    seed: int | None = None

    def to_dict(self):
        return {
            "ok": self.ok,
            "stages": [s.to_dict() for s in self.stages],
            "d": self.d,
            "n": self.n,
            "n_vec": list(self.n_vec),
            "field": self.field_name,
            "seed": self.seed,
        }


def _grid_pos(uni, i, j):
    return uni.index(f"x[{i}][{j}]")


def minor_pipeline_d4(config: LatticeConfig) -> PipelineReport:
    """Replay the explicit minor combinations available at d=4, n=3.

    Every stage is checked for (a) divisibility by its pi power, (b) the
    support of the normalized reduction mod pi, and finally (c) the
    nonvanishing of the coefficient of pi^{2 n_2} x3a*x3b*x3c*x3d.
    """
    if config.d != 4 or config.n != 3:
        raise DomainError("pipeline is specific to d=4, n=3")
    n1, n2, n3 = config.n_vec
    if not (2 * n1 < n2 and 2 * n2 < n3):
        raise DomainError("pipeline needs 2*n_1 < n_2 and 2*n_2 < n_3")
    if config.is_symbolic:
        raise DomainError("pipeline needs concrete generic entries")

    uni = config.universe()
    dom = config.field
    pi_pos = uni.index("pi")
    exps = (0,) + config.n_vec
    # the minor of columns a < b and rows r < s (1-based), keyed ((a, b), (r, s))
    rows = list(itertools.combinations(range(1, 5), 2))
    keys = itertools.product(itertools.combinations(range(4), 2), rows)
    minor_of = dict(zip(keys, _minors(config)))
    stages: list[StageReport] = []
    report = PipelineReport(
        ok=True,
        stages=stages,
        n_vec=config.n_vec,
        field_name=dom.name,
        seed=config.seed,
    )

    def fail(stage, detail):
        stages.append(StageReport(stage, False, detail))
        report.ok = False

    def passed(stage, detail=""):
        stages.append(StageReport(stage, True, detail))

    def coeff_at(f, rows_cols, pi_power):
        """Coefficient of pi^power * prod x[row][col]."""
        mono = [0] * uni.nvars
        mono[pi_pos] = pi_power
        for i, j in rows_cols:
            mono[_grid_pos(uni, i, j)] += 1
        return f.terms.get(tuple(mono), dom.zero)

    # (row, column) of the variable at each position but pi's
    grid_at = {
        pos: (int(name[2 : name.index("]")]), int(name[name.index("][") + 2 : -1]))
        for pos, name in enumerate(uni.names)
        if pos != pi_pos
    }

    def support_check(stage, f, alphabet, expected_slice, content, offset=0):
        """Every term must be pi^{sum of row exponents - offset} times a
        monomial from the alphabet (the offset counts bare x3 factors that
        entered without their pi power); the slice at the claimed pi content
        must equal the expected set with nonzero coefficients.  Terms are
        read in sorted monomial order, so a failure names the least
        offending monomial, however f was built."""
        if not f:
            fail(stage, "combination vanished identically")
            return False
        slice_monos = set()
        for m in sorted(f.terms):
            rows_cols = []
            for pos, e in enumerate(m):
                if e and pos != pi_pos:
                    rows_cols.extend([grid_at[pos]] * e)
            key = tuple(sorted(rows_cols))
            if key not in alphabet:
                fail(stage, f"unexpected monomial {key} in support")
                return False
            if m[pi_pos] != sum(exps[i - 1] for i, _ in key) - offset:
                fail(stage, f"pi power off for {key}: {m[pi_pos]}")
                return False
            if m[pi_pos] == content:
                slice_monos.add(key)
        actual_content = min(m[pi_pos] for m in f.terms)
        if actual_content != content:
            fail(stage, f"pi content {actual_content} != claimed {content}")
            return False
        if slice_monos != expected_slice:
            fail(stage, f"slice support {sorted(slice_monos)} != expected")
            return False
        return True

    def aval(i, j, l):
        c = config.entries[l][i - 1][j - 1]
        return config.pi_ring.reduce_mod_pi(c)

    m4: dict[tuple, MPoly] = {}
    for a, b in itertools.permutations(range(4), 2):
        alphabet_m = {
            tuple(sorted([(i, a), (j, b)])): None for i in range(1, 5) for j in range(1, 5)
        }
        # columns (a, b) in this order: swapping the columns negates a minor
        minors = {
            rs: minor_of[(a, b), rs] if a < b else -minor_of[(b, a), rs]
            for rs in rows
        }
        tag = f"(a,b)=({a},{b})"
        for (r, s), mm in minors.items():
            if not support_check(
                f"minor{tag}",
                mm,
                alphabet_m,
                {tuple(sorted([(1, a), (1, b)]))},
                0,
            ):
                return report

        def c11(rs):
            return coeff_at(minors[rs], [(1, a), (1, b)], 0)

        m1 = [
            minors[(1, 2)].scale(c11((1, 3))) - minors[(1, 3)].scale(c11((1, 2))),
            minors[(1, 2)].scale(c11((2, 3))) - minors[(2, 3)].scale(c11((1, 2))),
            minors[(1, 3)].scale(c11((1, 4))) - minors[(1, 4)].scale(c11((1, 3))),
            minors[(1, 3)].scale(c11((3, 4))) - minors[(3, 4)].scale(c11((1, 3))),
            minors[(1, 2)].scale(c11((1, 4))) - minors[(1, 4)].scale(c11((1, 2))),
            minors[(1, 4)].scale(c11((2, 4))) - minors[(2, 4)].scale(c11((1, 4))),
        ]
        alphabet_1 = dict(alphabet_m)
        alphabet_1.pop(tuple(sorted([(1, a), (1, b)])))
        exp_slice_1 = {
            tuple(sorted([(1, a), (2, b)])),
            tuple(sorted([(2, a), (1, b)])),
        }
        for idx, f in enumerate(m1):
            if not support_check(f"m1[{idx + 1}]{tag}", f, alphabet_1, exp_slice_1, n1):
                return report

        m2 = [
            m1[0].scale(aval(2, 1, a)) - m1[1].scale(aval(1, 1, a)),
            m1[2].scale(aval(3, 1, a)) - m1[3].scale(aval(1, 1, a)),
            m1[4].scale(aval(4, 1, a)) - m1[5].scale(aval(1, 1, a)),
        ]
        alphabet_2 = {
            tuple(sorted([(i, a), (j, b)])): None for i in range(2, 5) for j in range(1, 5)
        }
        exp_slice_2 = {tuple(sorted([(2, a), (1, b)]))}
        for idx, f in enumerate(m2):
            if not support_check(f"m2[{idx + 1}]{tag}", f, alphabet_2, exp_slice_2, n1):
                return report

        # each further stage is the cross combination cancelling the current
        # lowest slot; the choice reproduces the intended objects up to a
        # nonzero scalar, which no check depends on
        def cross(f, g, rows_cols, power):
            cf = coeff_at(f, rows_cols, power)
            cg = coeff_at(g, rows_cols, power)
            return g.scale(cf) - f.scale(cg)

        x21 = [(2, a), (1, b)]
        m3 = [cross(m2[0], m2[1], x21, n1), cross(m2[0], m2[2], x21, n1)]
        alphabet_3 = dict(alphabet_2)
        alphabet_3.pop(tuple(sorted([(2, a), (1, b)])))
        exp_slice_3 = {tuple(sorted([(2, a), (2, b)]))}
        for idx, f in enumerate(m3):
            if not support_check(f"m3[{idx + 1}]{tag}", f, alphabet_3, exp_slice_3, 2 * n1):
                return report

        # one combination must clear all three remaining row-2 slots at once
        # (the pencil spanned by m3[0], m3[1] has rank one on those slots);
        # the support check below verifies exactly that
        f4 = cross(m3[1], m3[0], [(2, a), (2, b)], 2 * n1)
        alphabet_4 = {
            tuple(sorted([(i, a), (j, b)])): None for i in (3, 4) for j in range(1, 5)
        }
        exp_slice_4 = {tuple(sorted([(3, a), (1, b)]))}
        if not support_check(f"m4{tag}", f4, alphabet_4, exp_slice_4, n2):
            return report
        m4[(a, b)] = f4
        passed(f"columns{tag}")

    def alph5(a, b, c):
        out = {}
        for i in (3, 4):
            for j in range(1, 5):
                out[tuple(sorted([(3, a), (i, c), (j, b)]))] = None
                out[tuple(sorted([(3, c), (i, a), (j, b)]))] = None
        out.pop(tuple(sorted([(3, a), (3, c), (1, b)])), None)
        return out

    m5: dict[tuple, MPoly] = {}
    for a, b in itertools.permutations(range(4), 2):
        for c in range(4):
            if c in (a, b):
                continue
            c1 = coeff_at(m4[(a, b)], [(1, b), (3, a)], n2)
            c2 = coeff_at(m4[(c, b)], [(1, b), (3, c)], n2)
            x3a = MPoly.var(uni, dom, f"x[3][{a}]")
            x3c = MPoly.var(uni, dom, f"x[3][{c}]")
            f5 = (x3a * m4[(c, b)]).scale(c1) - (x3c * m4[(a, b)]).scale(c2)
            exp_slice_5 = {tuple(sorted([(3, a), (2, b), (3, c)]))}
            if not support_check(
                f"m5(a,b,c)=({a},{b},{c})",
                f5,
                alph5(a, b, c),
                exp_slice_5,
                n1 + n2,
                offset=n2,
            ):
                return report
            m5[(a, b, c)] = f5
    passed("triples")

    for perm in itertools.permutations(range(4)):
        a, b, c, dd = perm
        c1 = coeff_at(m5[(a, b, c)], [(3, a), (2, b), (3, c)], n1 + n2)
        c2 = coeff_at(m5[(a, b, dd)], [(3, a), (2, b), (3, dd)], n1 + n2)
        x3c = MPoly.var(uni, dom, f"x[3][{c}]")
        x3d = MPoly.var(uni, dom, f"x[3][{dd}]")
        f6 = (x3c * m5[(a, b, dd)]).scale(c1) - (x3d * m5[(a, b, c)]).scale(c2)
        alphabet_6: dict = {}
        for k in alph5(a, b, dd):
            alphabet_6[tuple(sorted(k + ((3, c),)))] = None
        for k in alph5(a, b, c):
            alphabet_6[tuple(sorted(k + ((3, dd),)))] = None
        cancelled = tuple(sorted([(3, a), (2, b), (3, c), (3, dd)]))
        alphabet_6.pop(cancelled, None)
        exp_slice_6 = {tuple(sorted([(3, a), (3, b), (3, c), (3, dd)]))}
        if not support_check(
            f"m6{perm}", f6, alphabet_6, exp_slice_6, 2 * n2, offset=2 * n2
        ):
            return report
        final = coeff_at(f6, [(3, a), (3, b), (3, c), (3, dd)], 2 * n2)
        if dom.is_zero(final):
            fail(f"m6{perm}", "coefficient of pi^(2n2) x3^4 vanishes")
            return report
    passed("quadruples")
    return report
