"""Models of subvarieties, their special fibres and the support analysis.

The model ideal is checked against the graph formulation below, which
eliminates the ambient coordinates and one scaling and one inverse
auxiliary per factor under a block order: the slow oracle.  A second
oracle saturates the minors plus the lifts, multiplied out of the column
forms, in one run from scratch, with no known prefix and no Hilbert target.
"""

import pathlib
import random
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from column_form_oracle import column_forms
from mustafin import groebner
from mustafin.cli import degen_group
from mustafin.coeffs import QQ, DomainError, GF
from mustafin.degeneration import (
    SubvarietyInput,
    ambient_universe,
    chow_component_bound,
    integral_model,
    model_ideal,
    special_fibre_of_model,
    support_analysis,
)
from mustafin.groebner import ResourceCapExceeded, buchberger, compositions, radical_membership
from mustafin.polyring import (
    Block,
    DegRevLex,
    Ideal,
    MPoly,
    VarUniverse,
    WeightedPiOrder,
    default_order,
    grid_universe,
    parse_poly,
    pi_content,
)
from mustafin.syzygy import _adjugate
from mustafin.varieties import (
    LatticeConfig,
    fibre_universe,
    fibre_weight_order,
    minors_ideal,
    mustafin_ideal,
    random_config,
    reduce_ideal_mod_pi,
    special_fibre,
)

F = GF(32003)
AMB = ambient_universe(3)


def identity_config(d, n, n_vec, dom=F):
    ident = tuple(
        tuple(tuple((dom.one,) if i == j else () for j in range(d)) for i in range(d))
        for _ in range(n + 1)
    )
    return LatticeConfig(d, n, n_vec, dom, ident)


def yvar(l):
    return MPoly.var(AMB, F, f"y[{l}]")


def random_line(seed):
    rng = random.Random(("line", seed).__repr__())
    f = MPoly.zero(AMB, F)
    while len(f.terms) < 3:
        f = MPoly.zero(AMB, F)
        for l in (1, 2, 3):
            f = f + yvar(l).scale(F.random(rng))
    return SubvarietyInput((f,), 1, 1)


# ---------------------------------------------------------------------------
# the graph formulation: the slow oracle for the model ideal


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


def model_ideal_via_graph(config, X):
    """The graph ideal

        < I'(y),  alpha_j * x[i][j] - (adj(g_j) . y)_i,  1 - t_j * alpha_j >

    in (y, t, alpha, x, pi) with y, then t, then alpha eliminated (the
    adjugate stands in for the inverse; its determinant is absorbed by the
    invertible alpha_j).  Not yet saturated by pi."""
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
    gb = buchberger(gens, order)
    drop = [big.index(v) for v in ynames + tnames + anames]
    kept = [h for h in gb if all(m[p] == 0 for m in h.terms for p in drop)]
    small = grid_universe(d, n, pi=True)
    return Ideal([h.relabel(small) for h in kept], small, dom)


def assert_routes_agree(cfg, X):
    """Reduced bases of the model under ``default_order`` and of the special
    fibre under degrevlex equal those of the oracle, text for text, and the
    fibre's generators are the oracle fibre's reduced basis under
    ``fibre_weight_order``, the read-off of ``special_fibre``."""
    fast = model_ideal(cfg, X)
    slow = integral_model(model_ideal_via_graph(cfg, X))
    order = default_order(fast.universe)
    assert [g.text(order) for g in fast.groebner_basis(order)] == [
        g.text(order) for g in slow.groebner_basis(order)
    ]
    reduced = list(reduce_ideal_mod_pi(slow, cfg).generators)
    fibre = special_fibre_of_model(cfg, X)
    for got, order in (
        (fibre.groebner_basis(DegRevLex()), DegRevLex()),
        (fibre.generators, fibre_weight_order(cfg)),
    ):
        assert [g.text() for g in got] == [g.text() for g in buchberger(reduced, order)]


def random_form(rng, dom, degree, d=3):
    """A random form of the given degree in y[1..d] with at least two terms."""
    uni = ambient_universe(d)
    while True:
        f = MPoly.zero(uni, dom)
        for m in compositions(degree, d):
            f = f + MPoly.term(uni, dom, dom.random(rng), tuple(m) + (0,))
        if len(f.terms) >= 2:
            return f


def test_subvariety_validation():
    with pytest.raises(DomainError):
        SubvarietyInput((yvar(1) + MPoly.const(AMB, F, F.one),), 1, 1)
    with pytest.raises(DomainError):
        SubvarietyInput((yvar(1),), -1, 1)
    X = SubvarietyInput.from_strings(["y[1] + 2*y[2]"], 1, 1, 3, F)
    assert X.dim == 1 and X.degree == 1


def test_model_ideal_point_example():
    # X = V(y2, y3) in P^2, identity matrices: both factors land on the
    # same coordinate point and the model is cut out by four variables
    cfg = identity_config(3, 1, (1, 2))
    X = SubvarietyInput((yvar(2), yvar(3)), 0, 1)
    model = integral_model(model_ideal(cfg, X))
    assert sorted(g.text() for g in model.generators) == [
        "x[2][0]",
        "x[2][1]",
        "x[3][0]",
        "x[3][1]",
    ]


def test_model_ideal_multihomogeneous():
    cfg = random_config(3, 1, (1, 2), F, seed=3)
    X = random_line(3)
    model = model_ideal(cfg, X)
    blocks = model.universe.grid_indices()
    for g in model.generators:
        assert g.is_multihomogeneous(blocks)


def test_integral_model_examples():
    uni = VarUniverse(("x", "y", "pi"))
    x = MPoly.var(uni, F, "x")
    y = MPoly.var(uni, F, "y")
    pi = MPoly.var(uni, F, "pi")
    # clearing pi powers: <pi*x> -> <x>
    out = integral_model(Ideal([pi * x]))
    assert sorted(g.text() for g in out.generators) == ["x"]
    # already integral and saturated: unchanged
    out2 = integral_model(out)
    assert sorted(g.text() for g in out2.generators) == ["x"]
    # <x + pi y, pi x> -> <x, y>
    out3 = integral_model(Ideal([x + pi * y, pi * x]))
    assert sorted(g.text() for g in out3.generators) == ["x", "y"]


def content_clearing_integral_model(tilde_I):
    """Divide every generator by its pi content, then saturate by pi."""
    uni, dom = tilde_I.universe, tilde_I.domain
    if tilde_I.is_zero():
        return tilde_I
    cleared = [pi_content(g)[1] for g in tilde_I.generators]
    return groebner.saturate(Ideal(cleared, uni, dom), [MPoly.var(uni, dom, "pi")])


F7 = GF(7)
UXY = VarUniverse(("x", "y", "pi"))


@given(
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3)),
            st.integers(1, 6).map(F7.from_int),
            min_size=1,
            max_size=4,
        ).map(lambda t: MPoly(UXY, F7, t)),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=80, deadline=None)
def test_integral_model_matches_content_clearing(gens):
    # pi is a unit modulo 1 - t*pi: clearing its content first changes
    # neither the ideal nor its reduced basis
    I = Ideal(gens, UXY, F7)
    new, old = integral_model(I), content_clearing_integral_model(I)
    assert new.generators == old.generators
    order = default_order(UXY)
    assert new._gb_cache[order] == old._gb_cache[order]


def test_fibre_of_trivial_model_is_ambient_fibre():
    # X = P(V): the zero ideal pulls back to the whole Mustafin fibre
    cfg = random_config(2, 1, (1,), F, seed=8)
    amb2 = ambient_universe(2)
    # V(0) cannot be encoded as SubvarietyInput (needs a generator), so use
    # the ambient special fibre directly as the reference
    fib = special_fibre(cfg)
    assert len(fib.generators) == 1


def test_special_fibre_of_line_components():
    # the fibre of a generic line decomposes into the three expected pieces:
    # the intersection of the component ideals <x1l, (x1i, x2i)_{i != l}>
    cfg = random_config(3, 2, (1, 2), F, seed=11)
    X = random_line(99)
    fib = special_fibre_of_model(cfg, X)
    uni = fibre_universe(3, 2)

    def comp(l):
        gens = [MPoly.var(uni, F, f"x[1][{l}]")]
        for i in range(3):
            if i != l:
                gens.append(MPoly.var(uni, F, f"x[1][{i}]"))
                gens.append(MPoly.var(uni, F, f"x[2][{i}]"))
        return Ideal(gens, uni, F)

    # radical equality of the fibre with the intersection of the three:
    # each component ideal generator product lies in sqrt(fibre), and fibre
    # generators lie in each component ideal's radical
    for g in fib.generators:
        for l in range(3):
            assert radical_membership(g, comp(l))
    # conversely the product of the three x[1][l] lies in the fibre radical
    prod = (
        MPoly.var(uni, F, "x[1][0]")
        * MPoly.var(uni, F, "x[1][1]")
        * MPoly.var(uni, F, "x[1][2]")
    )
    assert radical_membership(prod, fib)


def test_support_analysis_line():
    cfg = random_config(3, 2, (1, 2), F, seed=11)
    rep = support_analysis(cfg, random_line(99))
    assert rep.delta == 1 and rep.star_like and not rep.aborted
    # monotone in the level
    contained = [c for (_l, c, _w) in rep.per_level]
    assert contained == sorted(contained)
    assert all(primary for (_v, primary) in rep.minimal_support)
    assert len(rep.minimal_support) <= chow_component_bound(3, 2, 1, 1)


def test_support_analysis_consistency_with_ambient():
    # the model fibre sits inside the ambient fibre (radical containment of
    # every ambient generator certificate)
    cfg = random_config(3, 2, (1, 2), F, seed=12)
    X = random_line(5)
    fib_model = special_fibre_of_model(cfg, X)
    fib_amb = special_fibre(cfg)
    for g in fib_amb.generators:
        assert radical_membership(g, fib_model)


def test_model_ideal_routes_agree():
    # the lifted saturation and the full graph formulation give the same
    # integral model (compare reduced bases in a common order)
    cfg = random_config(3, 1, (1, 2), F, seed=4)
    assert_routes_agree(cfg, random_line(21))


def test_chow_component_bound_values():
    assert chow_component_bound(3, 2, 1, 1) == 3
    assert chow_component_bound(3, 2, 1, 2) == 6
    assert chow_component_bound(3, 2, 0, 5) == 5  # only the all-(d-1) vector
    assert chow_component_bound(2, 1, 1, 1) == 2
    with pytest.raises(DomainError):
        chow_component_bound(3, 2, 4, 1)


def test_model_ideal_n0_rewrites_ambient_ideal():
    # one factor only: the model is the ambient ideal written in x[i][0]
    cfg = identity_config(2, 0, (1,))
    amb2 = ambient_universe(2)
    X = SubvarietyInput((MPoly.var(amb2, F, "y[2]"),), 0, 1)
    model = integral_model(model_ideal(cfg, X))
    assert sorted(g.text() for g in model.generators) == ["x[2][0]"]


def test_point_lands_at_level_one():
    # a point maps into every stratum ideal's zero set, so the least level
    # whose family ideal is radically contained is 1 (level 0 is empty)
    cfg = random_config(3, 2, (1, 2), F, seed=13)
    X = SubvarietyInput((yvar(2), yvar(3)), 0, 1)
    rep = support_analysis(cfg, X)
    assert rep.delta == 1 and not rep.aborted
    assert rep.per_level[0][1] is False


def test_line_model_has_diagonal_curve_slice_counts():
    # specializing pi -> 1 turns the model of a line (d=3, n=1) into a
    # smooth (1,1)-curve in P^2 x P^2; its standard-monomial count in
    # multidegree (a, b) is a + b + 1 (sections of O(a+b) on P^1)
    from mustafin.groebner import hilbert_function
    from mustafin.specialize import subst

    cfg = random_config(3, 1, (1, 2), F, seed=6)
    X = random_line(42)
    model = model_ideal(cfg, X)
    one_for_pi = {"pi": F.one}
    gens = [subst(one_for_pi, g) for g in model.generators]
    gens = [g for g in gens if g]
    uni_k = gens[0].universe
    I = Ideal(gens, uni_k, F)
    hf = hilbert_function(I, uni_k.grid_indices(), (2, 2))
    for (a, b), count in hf.items():
        assert count == a + b + 1


# ---------------------------------------------------------------------------
# the lifted saturation against the graph oracle


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("degree", [1, 2], ids=["line", "conic"])
def test_model_matches_oracle_on_criterion_8_curves(seed, degree):
    from mustafin.acceptance import _random_curve

    cfg = random_config(3, 2, (1, 2), F, seed=seed)
    rng = random.Random(("c8-curve", seed).__repr__())
    # criterion 8 draws the line, then the conic, from one generator
    curves = [_random_curve(rng, F, 1), _random_curve(rng, F, 2)]
    assert_routes_agree(cfg, curves[degree - 1])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n, n_vec", [(1, (1, 3, 7)), (2, (1, 3, 7))], ids=["n1", "n2"])
def test_model_matches_oracle_on_d4_lines(seed, n, n_vec):
    cfg = random_config(4, n, n_vec, F, seed=seed)
    X = SubvarietyInput((random_form(random.Random(seed), F, 1, d=4),), 2, 1)
    assert_routes_agree(cfg, X)


# (config, generators, degree): identity configurations put a column-0
# variable into the model; the rest are special inputs on random configs
SPECIAL_CASES = {
    "identity-point": (lambda: identity_config(3, 1, (1, 2)), ["y[2]", "y[3]"], 1),
    "identity-n2-line": (lambda: identity_config(3, 2, (1, 2)), ["y[3]"], 1),
    "identity-triangle": (lambda: identity_config(3, 1, (1, 2)), ["y[1]*y[2]*y[3]"], 3),
    "identity-double-line": (lambda: identity_config(3, 2, (1, 2)), ["y[1]^2"], 2),
    "reducible-conic": (lambda: random_config(3, 2, (1, 2), F, seed=5), ["y[1]*y[2]"], 2),
    # mixed pi powers are not weight-homogeneous: elimination-route saturation
    "pi-coefficients": (
        lambda: random_config(3, 1, (1, 2), F, seed=9),
        ["y[1] + pi*y[2] + (1 + pi^2)*y[3]"],
        1,
    ),
    "non-saturated": (
        lambda: random_config(3, 1, (1, 2), F, seed=6),
        ["y[1]^2", "y[1]*y[2]", "y[1]*y[3]"],
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(SPECIAL_CASES))
def test_model_matches_oracle_on_special_inputs(case):
    make, texts, degree = SPECIAL_CASES[case]
    cfg = make()
    assert_routes_agree(cfg, SubvarietyInput.from_strings(texts, 1, degree, 3, cfg.field))


def test_model_matches_oracle_on_a_random_cubic():
    cfg = random_config(3, 1, (1, 2), F, seed=7)
    X = SubvarietyInput((random_form(random.Random(7), F, 3),), 1, 3)
    assert_routes_agree(cfg, X)


@pytest.mark.parametrize(
    "p, degree, n", [(2, 2, 1), (2, 3, 2), (3, 3, 1), (5, 5, 1)], ids=["GF2-conic", "GF2-cubic", "GF3-cubic", "GF5-quintic"]
)
def test_model_matches_oracle_in_small_characteristic(p, degree, n):
    # degree >= p: a multinomial expansion of f(g_0 x) would lose terms here
    dom = GF(p)
    rng = random.Random(repr(("small-char", p, degree)))
    cfg = random_config(3, n, (1, 2), dom, seed=p)
    X = SubvarietyInput((random_form(rng, dom, degree),), 1, degree)
    assert_routes_agree(cfg, X)


@pytest.mark.parametrize("degree", [1, 2], ids=["line", "conic"])
def test_model_matches_oracle_over_QQ(degree):
    cfg = random_config(3, 1, (1, 2), QQ, seed=3)
    X = SubvarietyInput((random_form(random.Random(degree), QQ, degree),), 1, degree)
    assert_routes_agree(cfg, X)


@settings(max_examples=8, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    degree=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    coeffs=st.lists(st.integers(0, 6), min_size=10, max_size=10),
)
def test_model_matches_oracle_property(n, degree, seed, coeffs):
    if n == 2 and degree == 3:
        degree = 2  # the graph oracle takes about 25 s on a d=3 n=2 cubic
    dom = GF(7)
    uni = ambient_universe(3)
    f = MPoly.zero(uni, dom)
    for c, m in zip(coeffs, compositions(degree, 3)):
        f = f + MPoly.term(uni, dom, c, tuple(m) + (0,))
    if not f:
        f = MPoly.var(uni, dom, "y[1]") ** degree
    cfg = random_config(3, n, (1, 2), dom, seed=seed)
    assert_routes_agree(cfg, SubvarietyInput((f,), 1, degree))


# ---------------------------------------------------------------------------
# the extension of the ambient saturation against saturating from scratch


def column_form_lifts(f, config, uni):
    """The lifts F_b(f) as products of the column-form ``MPoly``s."""
    cols = column_forms(config)
    d, n, dom = config.d, config.n, f.domain
    ypos = [f.universe.index(f"y[{l}]") for l in range(1, d + 1)]
    pipos, upi = f.universe.index("pi"), uni.index("pi")
    terms = []
    for m, c in f.terms.items():
        pimono = [0] * uni.nvars
        pimono[upi] = m[pipos]
        factors = [l for l in range(d) for _ in range(m[ypos[l]])]
        terms.append((MPoly.term(uni, dom, c, tuple(pimono)), factors))
    out = []
    for b in compositions(len(terms[0][1]), n + 1):
        owner = [j for j in range(n + 1) for _ in range(b[j])]
        F = MPoly.zero(uni, dom)
        for coeff, factors in terms:
            for k, l in enumerate(factors):
                coeff = coeff * cols[owner[k]][l]
            F = F + coeff
        out.append(F)
    return out


def model_ideal_from_scratch(config, X):
    """sat(minors + lifts, pi) in one saturation, with no known prefix and
    no Hilbert target: the second oracle of ``model_ideal``."""
    minors = minors_ideal(config)
    uni, dom = minors.universe, config.field
    gens = list(minors.generators)
    for f in X.generators:
        gens.extend(column_form_lifts(f, config, uni))
    pi = MPoly.var(uni, dom, "pi")
    return groebner.saturate(Ideal(gens, uni, dom), [pi], pi_fast_weights=config.weights)


def assert_extension_matches_scratch(cfg, X):
    fast, slow = model_ideal(cfg, X), model_ideal_from_scratch(cfg, X)
    assert [g.text() for g in fast.generators] == [g.text() for g in slow.generators]
    order = default_order(fast.universe)
    assert [g.text(order) for g in fast.groebner_basis(order)] == [
        g.text(order) for g in slow.groebner_basis(order)
    ]
    return fast


def test_lifts_read_off_the_entries_equal_the_column_form_products():
    from mustafin.degeneration import _lifts

    cases = [
        (random_config(3, 2, (1, 2), F, seed=5), "y[1]*y[2] + 2*y[3]^2 + pi*y[1]*y[3]"),
        (random_config(4, 1, (1, 3, 7), QQ, seed=2), "y[1]*y[4] - y[2]*y[3] + 3*y[1]^2"),
        (SPECIAL_CASES["pi-coefficients"][0](), "y[1] + pi*y[2] + (1 + pi^2)*y[3]"),
        (identity_config(3, 2, (1, 2)), "y[1]^3"),
    ]
    for cfg, text in cases:
        uni = minors_ideal(cfg).universe
        f = parse_poly(text, ambient_universe(cfg.d), cfg.field)
        assert _lifts(f, cfg, uni) == column_form_lifts(f, cfg, uni)


def test_model_extends_the_ambient_saturation_on_a_d4_quadric_surface():
    # the first surface any test covers
    cfg = random_config(4, 2, (1, 3, 7), F, seed=1)
    X = SubvarietyInput.from_strings(["y[1]*y[4] - y[2]*y[3] + 3*y[1]^2"], 2, 2, 4, F)
    assert_extension_matches_scratch(cfg, X)


def test_model_extends_the_ambient_saturation_on_a_space_curve():
    # a curve in P^3 cut out by two quadrics
    cfg = random_config(4, 1, (1, 3, 7), F, seed=3)
    rng = random.Random(3)
    X = SubvarietyInput(tuple(random_form(rng, F, 2, d=4) for _ in range(2)), 1, 4)
    assert_extension_matches_scratch(cfg, X)


@pytest.mark.parametrize("case", sorted(SPECIAL_CASES))
def test_model_extends_the_ambient_saturation_on_special_inputs(case):
    # "pi-coefficients" takes the elimination route on both sides
    make, texts, degree = SPECIAL_CASES[case]
    cfg = make()
    X = SubvarietyInput.from_strings(texts, 1, degree, 3, cfg.field)
    fast = assert_extension_matches_scratch(cfg, X)
    worder = WeightedPiOrder(cfg.weights, fast.universe.index("pi"))
    assert (worder in fast._gb_cache) == (case != "pi-coefficients")


def conic_case():
    cfg = random_config(3, 2, (1, 2), F, seed=11)
    X = SubvarietyInput.from_strings(["y[1]^2 + 2*y[2]*y[3] - y[3]^2"], 1, 2, 3, F)
    return cfg, X, mustafin_ideal(cfg)


def test_the_model_run_of_a_conic_prunes_pairs_by_its_hilbert_target(monkeypatch):
    cfg, X, sat = conic_case()
    plain = model_ideal(cfg, X, saturation=sat)
    answers = []
    real = groebner._HilbertGate.complete

    def complete(self, lms, l):
        answers.append(real(self, lms, l))
        return answers[-1]

    runs = []
    real_buchberger = groebner.buchberger

    def buchberger(gens, order, **kwargs):
        runs.append((len(gens), kwargs.get("gb_prefix", 0)))
        return real_buchberger(gens, order, **kwargs)

    monkeypatch.setattr(groebner._HilbertGate, "complete", complete)
    monkeypatch.setattr(groebner, "buchberger", buchberger)
    gated = model_ideal(cfg, X, saturation=sat)
    assert any(answers)
    assert gated.generators == plain.generators
    # the basis of I' in y, then the model: the saturation as a known
    # prefix, followed by the six lifts of the conic into n + 1 = 3 columns
    assert runs[-1] == (len(sat.generators) + 6, len(sat.generators))


def test_a_wrong_hilbert_target_raises_instead_of_returning_a_basis(monkeypatch):
    from mustafin import degeneration

    cfg, X, sat = conic_case()
    real = degeneration._hilbert_target

    def too_high(X, deadline):
        target = real(X, deadline)
        return lambda a: target(a) + 1

    monkeypatch.setattr(degeneration, "_hilbert_target", too_high)
    with pytest.raises(DomainError, match="below its Hilbert target"):
        model_ideal(cfg, X, saturation=sat)


def test_support_analysis_saturates_the_minors_once(monkeypatch):
    from mustafin import degeneration, varieties

    calls = {"mustafin_ideal": 0, "minors_ideal": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (varieties, degeneration):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(varieties, name)))
    cfg = random_config(3, 2, (1, 2), F, seed=11)
    rep = support_analysis(cfg, random_line(99))
    assert rep.delta == 1
    assert calls == {"mustafin_ideal": 1, "minors_ideal": 1}


# ---------------------------------------------------------------------------
# CLI outputs recorded from the elimination route, and the support queries

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("curve", ["line", "conic"])
@pytest.mark.parametrize("command", ["model", "fibre", "support"])
def test_degen_outputs_match_the_elimination_route(tmp_path, command, curve):
    # the files were written by `degen <command>` when the model was still
    # computed by eliminating t_j and alpha_j; the reports must not move
    out = tmp_path / "out.json"
    res = CliRunner().invoke(
        degen_group,
        [command, "--config", str(GOLDEN / "config.json"), "--curve",
         str(GOLDEN / f"{curve}.json"), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (GOLDEN / f"{command}-{curve}.out.json").read_bytes()


def test_support_analysis_asks_each_radical_query_once(monkeypatch):
    from mustafin import degeneration

    asked = []

    def counting(f, I, **kwargs):
        asked.append(f)
        return radical_membership(f, I, **kwargs)

    cfg = random_config(3, 2, (1, 2), F, seed=11)
    X = random_line(99)
    plain = support_analysis(cfg, X)
    monkeypatch.setattr(degeneration, "radical_membership", counting)
    memo = support_analysis(cfg, X)
    assert memo == plain
    assert asked and len(asked) == len(set(asked))


def test_support_analysis_lifts_and_packs_the_fibre_basis_once(monkeypatch):
    from mustafin import degeneration

    asked, builds, lifts = [], [], []
    real_known = groebner._Reducers.known.__func__
    real_relabel = MPoly.relabel

    def known(cls, order, universe, domain, pk, basis):
        if basis and "t[0]" in universe:
            builds.append((pk.width, len(basis)))
        return real_known(cls, order, universe, domain, pk, basis)

    def relabel(self, universe):
        if asked and "t[0]" in universe:
            lifts.append(self)
        return real_relabel(self, universe)

    def counting(f, I, **kwargs):
        asked.append(f)
        return radical_membership(f, I, **kwargs)

    monkeypatch.setattr(groebner._Reducers, "known", classmethod(known))
    monkeypatch.setattr(MPoly, "relabel", relabel)
    monkeypatch.setattr(degeneration, "radical_membership", counting)
    support_analysis(random_config(3, 2, (1, 2), F, seed=11), random_line(99))
    # one table of the fibre basis, at one-byte fields; besides the basis
    # lifted once, one relabel per query (its f) that is not a constant
    (width, size), = builds
    queries = [f for f in asked if not f.is_constant()]
    assert width == 1 and len(queries) > 1
    assert len(lifts) == size + len(queries)


def test_deadline_hands_each_call_the_time_left():
    seen = []

    def slow(*, cap_seconds):
        seen.append(cap_seconds)
        time.sleep(0.05)
        return cap_seconds

    deadline = groebner.Deadline(10.0)
    first = deadline.run("model", slow)
    second = deadline.run("fibre", slow)
    assert 9.9 < first <= 10.0 and second <= first - 0.05
    assert groebner.Deadline(None).run("model", lambda: "no cap") == "no cap"

    def capped(*, cap_seconds):
        raise ResourceCapExceeded(f"buchberger exceeded {cap_seconds:g}s")

    with pytest.raises(ResourceCapExceeded) as info:
        deadline.run("level 1", capped)
    assert info.value.phase == "level 1"
    assert str(info.value).startswith("level 1: exceeded 10s (buchberger exceeded ")
    # an inner phase survives an outer one
    with pytest.raises(ResourceCapExceeded) as info:
        deadline.run("fibre", lambda cap_seconds: deadline.run("model", capped))
    assert info.value.phase == "model"
    # a nested budget keeps its phase and detail but names the outer cap
    with pytest.raises(ResourceCapExceeded) as info:
        deadline.run("check", lambda cap_seconds: groebner.Deadline(cap_seconds).run("saturation", capped))
    assert info.value.phase == "saturation"
    assert str(info.value).startswith("saturation: exceeded 10s (buchberger exceeded ")
    spent = groebner.Deadline(0.0)
    with pytest.raises(ResourceCapExceeded, match="^star: exceeded 0s$"):
        spent.run("star", slow)
