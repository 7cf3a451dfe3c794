import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from mustafin import groebner
from mustafin.coeffs import DomainError, GF
from mustafin.degeneration import SubvarietyInput, ambient_universe
from mustafin.groebner import ResourceCapExceeded, buchberger
from mustafin.polyring import (
    MPoly,
    VarUniverse,
    default_order,
    from_pi_coefficients,
    pi_content,
)
from mustafin.syzygy import (
    SyzygyDatum,
    _adjugate,
    admissibility_certificate,
    curve_cover_check,
    sigma_membership,
    upsilon,
)
from mustafin.varieties import LatticeConfig, _det, random_config
from substitution_oracle import substitute

F = GF(32003)


def identity_config(d, n, n_vec):
    ident = tuple(
        tuple(tuple((F.one,) if i == j else () for j in range(d)) for i in range(d))
        for _ in range(n + 1)
    )
    return LatticeConfig(d, n, n_vec, F, ident)


def grid_var(cfg, name):
    return MPoly.var(cfg.universe(), F, name)


def test_upsilon_identity_examples():
    cfg = identity_config(2, 1, (1,))
    # x[1][1] maps to y1 (pi powers cancel)
    h, e = upsilon(grid_var(cfg, "x[1][1]"), 0, cfg)
    assert h.text() == "y[1]" and e == 0
    # x[2][1] maps to pi^{-1} y2
    h2, e2 = upsilon(grid_var(cfg, "x[2][1]"), 0, cfg)
    assert h2.text() == "y[2]" and e2 == -1
    # degree bookkeeping: output degree equals the sum of block degrees
    cfg3 = random_config(3, 2, (1, 2), F, seed=2)
    uni = cfg3.universe()
    Fw = MPoly.var(uni, F, "x[3][1]") * MPoly.var(uni, F, "x[3][2]")
    h3, _e3 = upsilon(Fw, 0, cfg3)
    assert h3.total_degree() == 2


def test_upsilon_profile_errors():
    cfg = identity_config(2, 1, (1,))
    with pytest.raises(DomainError):
        upsilon(grid_var(cfg, "x[1][0]"), 0, cfg)  # block-0 degree not 0
    mixed = grid_var(cfg, "x[1][1]") + grid_var(cfg, "x[1][0]")
    with pytest.raises(DomainError):
        upsilon(mixed, 0, cfg)  # not multihomogeneous


@st.composite
def witness_case(draw):
    """A random configuration, a factor index i and a multihomogeneous
    witness of degree 0 in block i, with pi powers in its terms."""
    d, n = draw(st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    cfg = random_config(d, n, tuple(range(1, d)), F, seed=draw(st.integers(0, 40)))
    i = draw(st.integers(0, n))
    degs = [0 if j == i else draw(st.integers(0, 2)) for j in range(n + 1)]
    uni = cfg.universe()
    w = MPoly.zero(uni, F)
    for _ in range(draw(st.integers(1, 4))):
        term = MPoly.const(uni, F, draw(st.integers(1, 32002))) * grid_var(cfg, "pi") ** draw(
            st.integers(0, 2)
        )
        for j, e in enumerate(degs):
            for _ in range(e):
                term = term * grid_var(cfg, f"x[{draw(st.integers(1, d))}][{j}]")
        w = w + term
    return cfg, i, degs, w


@given(witness_case())
@settings(max_examples=60, deadline=None)
def test_upsilon_matches_the_per_term_substitution(case):
    # the per-term oracle with the same images adj(g_j) . y gives the value;
    # upsilon returns it as pi^e * h divided by prod_j det(g_j)^{deg_j}
    cfg, i, degs, w = case
    if not w:
        return
    h, e = upsilon(w, i, cfg)
    amb = ambient_universe(cfg.d)
    ys = [MPoly.var(amb, F, f"y[{l}]") for l in range(1, cfg.d + 1)]
    images = {}
    for j, dj in enumerate(degs):
        if dj:
            adj = _adjugate(cfg, j, amb)
            for r in range(cfg.d):
                images[f"x[{r + 1}][{j}]"] = sum((a * y for a, y in zip(adj[r], ys)), MPoly.zero(amb, F))
    value = substitute(w, images, amb)
    if not value:
        assert not h and e == 0
        return
    ring = cfg.pi_ring
    unit = ring.one
    for j, dj in enumerate(degs):
        for _ in range(dj):
            unit = ring.mul(unit, _det(cfg.entries[j], ring))
    pi = MPoly.var(amb, F, "pi")
    shift = e + sum(cfg.n_vec) * sum(degs)
    assert shift >= 0 and pi_content(h)[0] == 0
    assert value == pi ** shift * h * from_pi_coefficients(MPoly.const(VarUniverse(()), ring, unit), amb)


def test_sigma_membership_examples():
    cfg = identity_config(2, 1, (1,))
    uni = cfg.universe()
    x11 = MPoly.var(uni, F, "x[1][1]")
    x21 = MPoly.var(uni, F, "x[2][1]")
    pi = MPoly.var(uni, F, "pi")
    assert not sigma_membership(x11, 0, 2, 1)
    assert sigma_membership(x21, 0, 2, 1)
    # pi content is stripped first
    assert sigma_membership(pi * x21, 0, 2, 1)
    assert not sigma_membership(MPoly.zero(uni, F), 0, 2, 1)
    # invariance under unit and pi-power scaling
    assert sigma_membership((pi * pi) * x21.scale(F.from_int(17)), 0, 2, 1)


def test_admissibility_certificate():
    # last-row monomial witnesses are always admissible
    cfg = random_config(3, 2, (1, 2), F, seed=3)
    uni = cfg.universe()

    def xv(i, j):
        return MPoly.var(uni, F, f"x[{i}][{j}]")

    # rho = 2, degrees (2, 1, 1): witness i has block-j degree rho - d_j for
    # j != i (so blocks of full degree rho are simply absent) and 0 in block i
    rho, degrees = 2, (2, 1, 1)
    witnesses = (
        xv(3, 1) * xv(3, 2),  # blocks 1, 2 with degree 1 each
        xv(3, 2),             # block 0 contributes degree 0, block 2 degree 1
        xv(3, 1),
    )
    datum = SyzygyDatum(rho, degrees, witnesses)
    admissible, sections = admissibility_certificate(datum, cfg)
    assert admissible
    for (h, _e), d_i in zip(sections, degrees):
        assert h.total_degree() == d_i
    # a witness landing in the forbidden ideal kills admissibility
    bad = SyzygyDatum(
        rho,
        degrees,
        (xv(1, 1) * xv(3, 2), witnesses[1], witnesses[2]),
    )
    admissible2, _ = admissibility_certificate(bad, cfg)
    assert not admissible2
    # degree constraint must hold
    with pytest.raises(DomainError):
        admissibility_certificate(SyzygyDatum(2, (2, 2, 1), witnesses), cfg)


def test_sigma_invariant_under_pi_scaling():
    cfg = random_config(3, 2, (1, 2), F, seed=5)
    uni = cfg.universe()
    pi = MPoly.var(uni, F, "pi")
    w = MPoly.var(uni, F, "x[3][1]") * MPoly.var(uni, F, "x[3][2]")
    assert sigma_membership(w, 0, 3, 2) == sigma_membership(pi * w, 0, 3, 2)
    assert sigma_membership(w.scale(F.from_int(5)), 0, 3, 2)


def test_curve_cover_check_examples():
    amb = ambient_universe(2)
    y1 = MPoly.var(amb, F, "y[1]")
    y2 = MPoly.var(amb, F, "y[2]")
    X = SubvarietyInput((y1,), 0, 1)
    # V(y1) in P^1 is the point (0:1); y2 does not vanish there
    assert curve_cover_check(X, [y2])
    # a tuple vanishing on X fails
    assert not curve_cover_check(X, [y1])
    # several sections: enough that their common zero misses X
    amb3 = ambient_universe(3)
    z1 = MPoly.var(amb3, F, "y[1]")
    z2 = MPoly.var(amb3, F, "y[2]")
    z3 = MPoly.var(amb3, F, "y[3]")
    Xline = SubvarietyInput((z1,), 1, 1)
    assert curve_cover_check(Xline, [z2, z3])
    assert not curve_cover_check(Xline, [z2 * z3])  # hits (0:0:1) and (0:1:0)


def two_auxiliary_cover_check(X, sections):
    """The cover check as one basis per coordinate: y_l is in the radical of
    sat(I' + <f_i>, pi) iff 1 is in <I' + <f_i>, 1 - s*pi, 1 - t*y_l>."""
    uni, dom = X.universe, X.domain
    d = sum(1 for nm in uni.names if nm.startswith("y["))
    base = list(X.generators) + [f.relabel(uni) for f in sections if f]
    big = uni.extend(["t[0]", "s[0]"])
    one = MPoly.const(big, dom, dom.one)
    inv_pi = one - MPoly.var(big, dom, "s[0]") * MPoly.var(big, dom, "pi")
    for l in range(1, d + 1):
        gens = [g.relabel(big) for g in base]
        gens.append(one - MPoly.var(big, dom, "t[0]") * MPoly.var(big, dom, f"y[{l}]"))
        gens.append(inv_pi)
        gb = buchberger(gens, default_order(big))
        if not any(g.is_constant() for g in gb):
            return False
    return True


F7 = GF(7)


@st.composite
def cover_case(draw):
    """A subvariety of P^1 or P^2 over GF(7) cut out by one or two forms,
    and one to three sections; coefficients are polynomials in pi."""
    d = draw(st.sampled_from([2, 3]))
    amb = ambient_universe(d)
    ys = [MPoly.var(amb, F7, f"y[{l}]") for l in range(1, d + 1)]
    pi = MPoly.var(amb, F7, "pi")
    coeff = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(
        lambda cs: sum(((pi ** k).scale(F7.from_int(c)) for k, c in enumerate(cs)), MPoly.zero(amb, F7))
    )

    def form():
        degree = draw(st.integers(1, 2))
        monos = [m for m in itertools.product(range(degree + 1), repeat=d) if sum(m) == degree]
        f = MPoly.zero(amb, F7)
        for m in draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True)):
            term = draw(coeff)
            for y, e in zip(ys, m):
                term = term * y ** e
            f = f + term
        return f

    gens = [g for g in (form() for _ in range(draw(st.integers(1, 2)))) if g]
    if not gens:
        gens = [ys[0]]
    sections = [form() for _ in range(draw(st.integers(1, 3)))]
    return SubvarietyInput(tuple(gens), 0, 1), sections


@given(cover_case())
@settings(max_examples=60, deadline=None)
def test_cover_check_matches_the_two_auxiliary_system(case):
    X, sections = case
    assert curve_cover_check(X, sections) == two_auxiliary_cover_check(X, sections)


def test_capped_cover_check_raises_once_for_the_whole_call(monkeypatch):
    real, caps = groebner.buchberger, []

    def slow(*args, cap_seconds=None, **kwargs):
        caps.append(cap_seconds)
        if cap_seconds is not None and cap_seconds < 0.05:
            time.sleep(cap_seconds)
            raise ResourceCapExceeded(f"buchberger exceeded {cap_seconds:g}s")
        time.sleep(0.05)
        return real(*args, cap_seconds=cap_seconds, **kwargs)

    amb = ambient_universe(3)
    y1, y2, y3 = (MPoly.var(amb, F, f"y[{l}]") for l in (1, 2, 3))
    X = SubvarietyInput((y1,), 1, 1)
    assert curve_cover_check(X, [y2, y3], cap_seconds=0.12)
    monkeypatch.setattr(groebner, "buchberger", slow)
    # four engine calls of 0.05 s each: the saturation and three radical
    # queries; each fits 0.12 s, all four do not
    t0 = time.monotonic()
    with pytest.raises(ResourceCapExceeded) as info:
        curve_cover_check(X, [y2, y3], cap_seconds=0.12)
    assert time.monotonic() - t0 < 0.2
    assert info.value.phase.startswith("cover y[") and "exceeded 0.12s" in str(info.value)
    assert len(caps) == 3 and caps[0] <= 0.12 and caps[2] < caps[1] < caps[0]


def test_admissible_sections_nonzero_on_primary_components():
    # at d=3 the membership test is exactly: the normalized reduction keeps
    # a term avoiding the first two rows outside block i, i.e. it stays
    # nonzero on the matching primary fibre component
    cfg = random_config(3, 2, (1, 2), F, seed=7)
    uni = cfg.universe()

    def xv(i, j):
        return MPoly.var(uni, F, f"x[{i}][{j}]")

    witness = xv(3, 1) * xv(3, 2)
    assert sigma_membership(witness, 0, 3, 2)
    from mustafin.varieties import fibre_universe
    from mustafin.groebner import normal_form
    from mustafin.polyring import DegRevLex, Ideal

    # reduction mod the 0-th primary component ideal stays nonzero
    uni_k = fibre_universe(3, 2)
    comp0 = Ideal(
        [MPoly.var(uni_k, F, "x[1][0]")]
        + [MPoly.var(uni_k, F, f"x[{r}][{j}]") for j in (1, 2) for r in (1, 2)],
        uni_k,
        F,
    )
    reduced = MPoly.var(uni_k, F, "x[3][1]") * MPoly.var(uni_k, F, "x[3][2]")
    assert normal_form(reduced, list(comp0.generators), DegRevLex())
