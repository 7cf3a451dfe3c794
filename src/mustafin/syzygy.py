"""Admissibility of syzygy-bundle data over a lattice configuration.

A datum consists of a twist rho, degrees d_0..d_n summing to n*rho, and
witnesses F_i: multihomogeneous polynomials in the grid variables of block
degree rho - d_j in every block j != i and degree 0 in block i.  The
substitution map sends block j to the inverse trivialization of factor j;
its image f_i is homogeneous of degree d_i in the ambient coordinates.  The
membership test asks whether the pi-normalized reduction of F_i keeps a
term using only the last-row variables x[d][j], j != i; witnesses passing
it produce tuples whose zero loci avoid the deepest stratum on each primary
component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffs import DomainError
from .groebner import Deadline, radical_membership, saturate
from .polyring import (
    Ideal,
    MPoly,
    Substitution,
    VarUniverse,
    parse_poly,
    pi_content,
    to_pi_coefficients,
    from_pi_coefficients,
    from_pi_element,
)
from .degeneration import ambient_universe, SubvarietyInput
from .varieties import LatticeConfig, _det


@dataclass(frozen=True)
class SyzygyDatum:
    """Twist, degree vector and witnesses for one admissibility check."""

    rho: int
    degrees: tuple[int, ...]
    witnesses: tuple  # F_0..F_n over the grid universe (pi included)

    def __post_init__(self):
        if self.rho < 1:
            raise DomainError("rho must be positive")
        degs = tuple(self.degrees)
        if any(dd < 0 or dd > self.rho for dd in degs):
            raise DomainError("degrees must lie in [0, rho]")
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if len(self.witnesses) != len(degs):
            raise DomainError("need one witness per degree")

    @property
    def n(self) -> int:
        return len(self.degrees) - 1


def _block_degrees(F: MPoly, d: int, n: int):
    blocks = F.universe.grid_indices()
    degs = F.multidegrees(blocks)
    if len(degs) != 1:
        raise DomainError("witness is not multihomogeneous in the blocks")
    return next(iter(degs))


def check_witness_profile(F: MPoly, i: int, data: SyzygyDatum, d: int):
    degs = _block_degrees(F, d, data.n)
    for j, dj in enumerate(degs):
        want = 0 if j == i else data.rho - data.degrees[j]
        if dj != want:
            raise DomainError(
                f"witness {i} has degree {dj} in block {j}, expected {want}"
            )


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
            adj[i][r] = from_pi_element(ring.neg(c) if (i + r) % 2 else c, uni, config.field)
    return adj


def upsilon(F: MPoly, i: int, config: LatticeConfig):
    """Substitute block j by the inverse trivialization of factor j.

    Returns (h, e) with the value equal to pi^e * h up to multiplication by
    units of the valuation ring; h carries no pi content.  Each block-j
    variable vector maps to adj(g_j) applied to the ambient coordinates, by
    one ``Substitution`` from the grid universe into the ambient one (pi
    maps to itself), and each block-j degree contributes a division by
    det(g_j) = unit * pi^N.  When the unit is a base-field constant the
    division is exact; a pi-dependent unit that does not divide exactly is
    left in place (same zero locus, and membership predicates are
    unit-invariant).
    """
    if config.is_symbolic:
        raise DomainError("substitution needs concrete entries")
    d, n = config.d, config.n
    if not F:
        raise DomainError("substitution of the zero polynomial")
    if not 0 <= i <= n:
        raise DomainError(f"factor index {i} out of range")
    degs = _block_degrees(F, d, n)
    if degs[i] != 0:
        raise DomainError(f"witness must have degree 0 in block {i}")
    dom = config.field
    ring = config.pi_ring
    amb = ambient_universe(d)
    yvec = [MPoly.var(amb, dom, f"y[{l}]") for l in range(1, d + 1)]

    # adj(g_j) . y, one linear form per grid row
    images: dict[str, MPoly] = {}
    for j in range(n + 1):
        if degs[j] == 0:
            continue
        adj = _adjugate(config, j, amb)
        for r in range(d):
            form = MPoly.zero(amb, dom)
            for l in range(d):
                form = form + adj[r][l] * yvec[l]
            images[f"x[{r + 1}][{j}]"] = form

    out = Substitution(F.universe, dom, images, amb)(F)
    if not out:
        return out, 0

    # divide by prod_j det(g_j)^{deg_j} = (prod det(M_j)^{deg_j]) * pi^(N*total)
    N = sum(config.n_vec)
    total = sum(e for j, e in enumerate(degs) if j != i)
    det_unit = ring.one
    for j, e in enumerate(degs):
        if j == i or e == 0:
            continue
        det_j = _det(config.entries[j], ring)
        for _ in range(e):
            det_unit = ring.mul(det_unit, det_j)
    content, h = pi_content(out)
    # strip the unit if it divides exactly in the pi-ring
    val = ring.pi_valuation(det_unit)
    det_unit = ring.unshift(det_unit, val)
    h_ring = to_pi_coefficients(h)
    try:
        divided = h_ring.map_coeffs(lambda c: ring.exact_div(c, det_unit))
        h = from_pi_coefficients(divided, amb)
    except DomainError:
        pass  # unit multiple is fine; zero loci and memberships agree
    return h, content - N * total - val


def sigma_membership(F: MPoly, i: int, d: int, n: int) -> bool:
    """Does the pi-normalized reduction of F keep a term supported on the
    last-row variables x[d][j], j != i, alone?  (Equivalently: that
    reduction is not in the ideal of the first d-1 rows outside block i.)"""
    if not F:
        return False
    uni = F.universe
    if not 0 <= i <= n:
        raise DomainError(f"factor index {i} out of range")
    allowed = {uni.index(f"x[{d}][{j}]") for j in range(n + 1) if j != i}
    # the reduction of F / pi^c mod pi drops the terms holding pi; pi is not
    # in ``allowed``, so those terms fail the test anyway
    _, work = pi_content(F)
    return any(all(pos in allowed for pos, e in enumerate(m) if e) for m in work.terms)


def admissibility_certificate(data: SyzygyDatum, config: LatticeConfig):
    """Check membership for every witness and produce the substituted tuple.

    Returns (admissible, sections) where sections[i] = (f_i, pi_power).
    Deciding admissibility of an externally given tuple without witnesses is
    a different (linear-algebra over K) problem and is not attempted.
    """
    d, n = config.d, config.n
    if data.n != n:
        raise DomainError("datum length does not match the configuration")
    if sum(data.degrees) != n * data.rho:
        raise DomainError("degrees must sum to n*rho")
    admissible = True
    sections = []
    for i, F in enumerate(data.witnesses):
        check_witness_profile(F, i, data, d)
        if not sigma_membership(F, i, d, n):
            admissible = False
        sections.append(upsilon(F, i, config))
    return admissible, sections


def curve_cover_check(X: SubvarietyInput, sections, *, cap_seconds=None) -> bool:
    """True iff the subvariety misses the common zero locus of the tuple in
    projective space over the fraction field: each coordinate y_l lies in
    the radical of sat(I' + <f_0..f_n>, pi).  Equivalently, 1 lies in
    <I' + <f_i>, 1 - s*pi, 1 - t*y_l>; the saturation is computed once and
    every y_l is one radical query against its basis.  ``cap_seconds``
    bounds the whole call."""
    fs = [f[0] if isinstance(f, tuple) else f for f in sections]
    uni, dom = X.universe, X.domain
    d = sum(1 for nm in uni.names if nm.startswith("y["))
    base = Ideal([*X.generators, *(f.relabel(uni) for f in fs if f)], uni, dom)
    deadline = Deadline(cap_seconds)
    sat = deadline.run("saturation", saturate, base, [MPoly.var(uni, dom, "pi")])
    return all(
        deadline.run(f"cover y[{l}]", radical_membership, MPoly.var(uni, dom, f"y[{l}]"), sat)
        for l in range(1, d + 1)
    )


def parse_datum(payload: dict, config: LatticeConfig) -> SyzygyDatum:
    """Datum from JSON: {"rho": int, "degrees": [..], "witnesses": [str..]}."""
    uni = config.universe() if not config.is_symbolic else None
    if uni is None:
        raise DomainError("need a concrete configuration")
    witnesses = tuple(
        parse_poly(t, uni, config.field) for t in payload["witnesses"]
    )
    return SyzygyDatum(int(payload["rho"]), tuple(payload["degrees"]), witnesses)
