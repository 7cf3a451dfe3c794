import collections
import itertools
import json
import math
import pathlib
import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from column_form_oracle import build_g, column_forms

from mustafin.cli import mustafin_group
from mustafin.coeffs import DomainError, GF, PiRing, QQ
from mustafin.groebner import interreduce, intersect_monomial_ideals, normal_form, saturate
from mustafin.polyring import (
    DegRevLex,
    Ideal,
    MPoly,
    VarUniverse,
    WeightedPiOrder,
    from_pi_coefficients,
    mono_divides,
)
from mustafin.varieties import (
    ComponentVector,
    LatticeConfig,
    _g_matrix,
    _minors,
    borel_fixed_check,
    component_vectors,
    conjecture_check,
    expected_fibre_d4,
    expected_intersection,
    fibre_universe,
    fibre_weight_order,
    ideal_Iv,
    minor_pipeline_d4,
    minors_ideal,
    mustafin_ideal,
    random_config,
    reduce_ideal_mod_pi,
    special_fibre,
)

F = GF(32003)


def identity_config(d, n, n_vec):
    ident = tuple(
        tuple(tuple((F.one,) if i == j else () for j in range(d)) for i in range(d))
        for _ in range(n + 1)
    )
    return LatticeConfig(d, n, n_vec, F, ident)


def test_config_validation():
    with pytest.raises(DomainError):
        identity_config(3, 1, (2, 1))  # not increasing
    with pytest.raises(DomainError):
        identity_config(3, 1, (1,))  # wrong length
    singular = tuple(
        tuple(tuple((F.one,) for _ in range(2)) for _ in range(2)) for _ in range(2)
    )
    with pytest.raises(DomainError):
        LatticeConfig(2, 1, (1,), F, singular)


def test_build_g_examples():
    cfg = identity_config(2, 1, (1,))
    g = build_g(cfg)
    # g_0 = diag(1, pi)
    assert g[0][0][0].text() == "1" and g[0][1][1].text() == "pi"
    assert not g[0][0][1] and not g[0][1][0]
    cfg3 = identity_config(3, 0, (1, 2))
    g3 = build_g(cfg3)
    assert g3[0][1][1].text() == "pi" and g3[0][2][2].text() == "pi^2"
    sym = LatticeConfig(2, 1, (1,), F, "symbolic")
    gs = build_g(sym)
    assert gs[1][0][1].text() == "A[1][2][1]*pi"


@pytest.mark.parametrize("field", [F, GF(7), QQ], ids=["F32003", "F7", "Q"])
@pytest.mark.parametrize("seed", range(4))
def test_g_matrices_equal_the_column_form_oracle(field, seed):
    # entries constant in pi, and the same entries plus pi-polynomials
    base = random_config(3, 2, (1, 2), field, seed)
    ring = base.pi_ring
    rng = random.Random(seed)

    def plus_pi(e):
        return ring.add(e, ring.shift((field.from_int(rng.randrange(1, 7)),), rng.randrange(1, 3)))

    mixed = tuple(tuple(tuple(plus_pi(e) for e in row) for row in mat) for mat in base.entries)
    for cfg in (base, LatticeConfig(3, 2, (1, 2), field, mixed)):
        uni, oracle = cfg.universe(), build_g(cfg)
        for l in range(cfg.n + 1):
            spread = [
                [from_pi_coefficients(MPoly.const(VarUniverse(()), ring, e), uni) for e in row]
                for row in _g_matrix(cfg, l)
            ]
            assert spread == oracle[l]


def test_minors_counts_and_example():
    assert len(minors_ideal(identity_config(2, 1, (1,))).generators) == 1
    assert len(minors_ideal(random_config(4, 3, (1, 3, 7), F, 1)).generators) == 36
    # d=3, n=2, identity: minor rows (1,2), columns (0,1) is
    # x10*pi*x21 - pi*x20*x11
    cfg = identity_config(3, 2, (1, 2))
    I = minors_ideal(cfg)
    uni = I.universe
    expected = MPoly.var(uni, F, "x[1][0]") * MPoly.var(uni, F, "pi") * MPoly.var(
        uni, F, "x[2][1]"
    ) - MPoly.var(uni, F, "pi") * MPoly.var(uni, F, "x[2][0]") * MPoly.var(
        uni, F, "x[1][1]"
    )
    assert any(g == expected or g == -expected for g in I.generators)


def column_form_minors(cfg):
    """The minors as products of the column forms, keyed (columns, rows) in
    the order of ``_minors``, which reads them off the entries."""
    cols = column_forms(cfg)
    return {
        ((a, b), (r, s)): cols[a][r] * cols[b][s] - cols[a][s] * cols[b][r]
        for a, b in itertools.combinations(range(cfg.n + 1), 2)
        for r, s in itertools.combinations(range(cfg.d), 2)
    }


def assert_minors_match_the_column_form_products(cfg):
    expected = column_form_minors(cfg)
    got = _minors(cfg)
    # key for key, a vanishing minor included, and term for term (monomial
    # and coefficient; a term dict's insertion order is not part of a
    # polynomial)
    assert len(got) == len(expected)
    for g, (key, h) in zip(got, expected.items()):
        assert g.terms == h.terms, key
    assert minors_ideal(cfg).generators == tuple(g for g in got if g)


@st.composite
def pi_mixing_configs(draw):
    """A random configuration over GF(7) or Q whose entries gain random
    multiples of pi and pi^2, so a coefficient of a minor spreads over
    several powers of pi; the constant parts stay invertible."""
    field = draw(st.sampled_from([GF(7), QQ]))
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    n_vec = tuple(sorted(draw(st.sets(st.integers(1, 7), min_size=d - 1, max_size=d - 1))))
    base = random_config(d, n, n_vec, field, seed=draw(st.integers(0, 200)))
    extra = st.lists(st.integers(-3, 3).map(field.from_int), max_size=2)
    entries = tuple(
        tuple(tuple(((e[0] if e else field.zero), *draw(extra)) for e in row) for row in mat)
        for mat in base.entries
    )
    return LatticeConfig(d, n, n_vec, field, entries)


@given(pi_mixing_configs())
@settings(max_examples=60, deadline=None)
def test_minors_match_the_column_form_products(cfg):
    assert_minors_match_the_column_form_products(cfg)


@pytest.mark.parametrize("n", [1, 2])
def test_symbolic_minors_match_the_column_form_products(n):
    assert_minors_match_the_column_form_products(LatticeConfig(3, n, (1, 2), F, "symbolic"))


def test_minors_of_random_configs_match_the_column_form_products():
    for field in (GF(7), QQ, F):
        for seed in range(5):
            assert_minors_match_the_column_form_products(random_config(3, 2, (1, 2), field, seed))
    assert_minors_match_the_column_form_products(random_config(4, 4, (1, 3, 7), F, 1))


def test_minors_keep_a_vanishing_minor_in_its_place():
    # row 1 of M_0 and of M_1 is zero, so the minors of rows (1, 2) and
    # (1, 3) vanish; ``LatticeConfig`` rejects such matrices, so the rows
    # are zeroed after validation
    cfg = identity_config(3, 1, (1, 2))
    object.__setattr__(cfg, "entries", tuple((((),) * 3,) + mat[1:] for mat in cfg.entries))
    assert [bool(g) for g in _minors(cfg)] == [False, False, True]
    assert len(minors_ideal(cfg).generators) == 1
    assert_minors_match_the_column_form_products(cfg)


def test_mustafin_ideal_properties():
    # n=0: no minors at all
    assert mustafin_ideal(identity_config(3, 0, (1, 2))).is_zero()
    # saturation is idempotent on the result
    cfg = random_config(2, 1, (1,), F, seed=3)
    M = mustafin_ideal(cfg)
    pi = MPoly.var(M.universe, F, "pi")
    again = saturate(M, [pi], pi_fast_weights=cfg.weights)
    assert sorted(g.text() for g in again.generators) == sorted(
        g.text() for g in M.generators
    )
    # every minor lies in the saturation
    order = fibre_weight_order(cfg)
    from mustafin.polyring import WeightedPiOrder

    worder = WeightedPiOrder(cfg.weights, M.universe.index("pi"))
    gb = list(M.groebner_basis(worder))
    for g in minors_ideal(cfg).generators:
        assert not normal_form(g, gb, worder)


def test_special_fibre_small_cases():
    # n=0: the fibre is the whole space
    assert special_fibre(identity_config(2, 0, (1,))).is_zero()
    # d=2, n=1 generic: principal, product supported on x10*x11 monomials
    cfg = random_config(2, 1, (1,), F, seed=5)
    fib = special_fibre(cfg)
    assert len(fib.generators) == 1
    g = fib.generators[0]
    assert g.leading_term(fibre_weight_order(cfg))[1] in g.terms
    rep = conjecture_check(cfg)
    assert rep.equal


def test_special_fibre_order_independent():
    cfg = random_config(2, 1, (1,), F, seed=7)
    fib = special_fibre(cfg)
    # reduced bases with respect to one fixed order agree across routes:
    # fast weighted route vs elimination-based saturation
    I = minors_ideal(cfg)
    pi = MPoly.var(I.universe, F, "pi")
    slow_sat = saturate(I, [pi])  # elimination route
    from mustafin.varieties import reduce_ideal_mod_pi
    from mustafin.groebner import buchberger

    slow_red = reduce_ideal_mod_pi(slow_sat, cfg)
    order = DegRevLex()
    slow_gb = buchberger(list(slow_red.generators), order)
    fast_gb = list(fib.groebner_basis(order))
    assert [g.text(order) for g in slow_gb] == [g.text(order) for g in fast_gb]


def fibre_by_interreduction(cfg):
    """The fast path's fibre as it was computed before: the saturation basis
    mod pi, interreduced under the fibre order."""
    return interreduce(list(reduce_ideal_mod_pi(mustafin_ideal(cfg), cfg).generators),
                       fibre_weight_order(cfg))


def assert_fibre_is_the_interreduced_saturation(cfg):
    fib = special_fibre(cfg)
    worder = WeightedPiOrder(cfg.weights, cfg.universe().index("pi"))
    assert worder in mustafin_ideal(cfg)._gb_cache  # the fast path
    expected = fibre_by_interreduction(cfg)
    # term for term and in order: the reports print the generators as they come
    assert [list(g.terms.items()) for g in fib.generators] == [
        list(g.terms.items()) for g in expected
    ]


@pytest.mark.parametrize(
    "d, n, n_vec", [(3, 4, (1, 2)), (3, 5, (1, 2)), (4, 3, (1, 3, 7)), (4, 4, (1, 3, 7))]
)
def test_special_fibre_is_the_interreduced_saturation_on_the_ladder(d, n, n_vec):
    assert_fibre_is_the_interreduced_saturation(random_config(d, n, n_vec, F, seed=1))


@st.composite
def fibre_configs(draw):
    field = draw(st.sampled_from([GF(2), GF(7), F, QQ]))
    d = draw(st.integers(2, 3 if field is QQ else 4))
    n = draw(st.integers(1, 2 if field is QQ else 3))
    n_vec = tuple(sorted(draw(st.sets(st.integers(1, 7), min_size=d - 1, max_size=d - 1))))
    return random_config(d, n, n_vec, field, seed=draw(st.integers(0, 200)))


@given(fibre_configs())
@settings(max_examples=25, deadline=None)
def test_special_fibre_is_the_interreduced_saturation(cfg):
    assert_fibre_is_the_interreduced_saturation(cfg)


def assert_fibre_carries_its_korder_leading_terms(cfg):
    korder = fibre_weight_order(cfg)
    for g in special_fibre(cfg).generators:
        fresh = MPoly(g.universe, g.domain, dict(g.terms))
        assert g._lt[korder] == fresh.leading_term(korder)


@pytest.mark.parametrize(
    "d, n, n_vec", [(3, 4, (1, 2)), (3, 5, (1, 2)), (4, 3, (1, 3, 7)), (4, 4, (1, 3, 7))]
)
def test_special_fibre_carries_its_korder_leading_terms_on_the_ladder(d, n, n_vec):
    assert_fibre_carries_its_korder_leading_terms(random_config(d, n, n_vec, F, seed=1))


@given(fibre_configs())
@settings(max_examples=25, deadline=None)
def test_special_fibre_carries_its_korder_leading_terms(cfg):
    assert_fibre_carries_its_korder_leading_terms(cfg)


def test_component_vectors_enumeration():
    vecs = component_vectors(3, 1)
    assert [v.v for v in vecs] == [(0, 2), (1, 1), (2, 0)]
    vecs2 = component_vectors(3, 2)
    assert len(vecs2) == 6
    assert {v.v for v in vecs2} == {
        (2, 2, 0),
        (2, 0, 2),
        (0, 2, 2),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
    }
    assert [v.v for v in component_vectors(5, 0)] == [(0,)]
    assert len(component_vectors(4, 3)) == 20


def test_ideal_Iv_examples():
    uni = fibre_universe(3, 1)
    I = ideal_Iv(ComponentVector((1, 1), 3), uni, F)
    assert sorted(g.text() for g in I.generators) == ["x[1][0]", "x[1][1]"]
    assert ideal_Iv(ComponentVector((0, 0), 3), uni, F).is_zero()
    I2 = ideal_Iv(ComponentVector((2, 0), 3), uni, F)
    assert sorted(g.text() for g in I2.generators) == ["x[1][0]", "x[2][0]"]


def test_component_flags():
    v = ComponentVector((1, 2, 2), 3)
    assert v.support == (0,) and v.length == 1
    assert not v.primary and v.star
    assert ComponentVector((0, 2, 2), 3).primary
    assert ComponentVector((1, 1, 2), 3).length == 2
    # primary vectors at d=3, n=2 have exactly one coordinate below d-1
    for v in component_vectors(3, 2):
        if v.primary:
            assert v.length == 1


def test_conjecture_check_trivial_and_d2():
    rep0 = conjecture_check(identity_config(2, 0, (1,)))
    assert rep0.equal
    rep = conjecture_check(random_config(2, 1, (1,), F, seed=1))
    assert rep.equal and rep.mode == "both-containments"
    with pytest.raises(DomainError):
        conjecture_check(random_config(2, 1, (1,), F, seed=1), mode="nope")


def test_conjecture_check_forward_failures_on_a_non_generic_config():
    # identity matrices are not generic: the forward failures are exactly
    # the intersection generators with a nonzero normal form
    cfg = identity_config(3, 1, (1, 2))
    rep = conjecture_check(cfg)
    korder = fibre_weight_order(cfg)
    gb = special_fibre(cfg).groebner_basis(korder)
    inter = expected_intersection(3, 1, F)
    expected = [g.text() for g in inter.generators if normal_form(g, gb, korder)]
    assert not rep.equal and len(expected) == 3
    assert rep.forward_failures == expected


@pytest.mark.parametrize("d, n, n_vec", [(2, 2, (1,)), (3, 1, (1, 2)), (4, 1, (1, 3, 7))])
def test_conjecture_check_backward_failures_on_a_non_generic_config(d, n, n_vec):
    # the backward failures are exactly the fibre generators with a term
    # that no generator of the monomial intersection divides
    cfg = identity_config(d, n, n_vec)
    rep = conjecture_check(cfg)
    inter = [next(iter(g.terms)) for g in expected_intersection(d, n, F).generators]
    expected = [
        g.text(fibre_weight_order(cfg))
        for g in special_fibre(cfg).generators
        if not all(any(mono_divides(m, t) for m in inter) for t in g.terms)
    ]
    assert expected and rep.backward_failures == expected


def test_conjecture_check_d3_and_hilbert():
    cfg = random_config(3, 2, (1, 2), F, seed=2)
    rep = conjecture_check(cfg)
    assert rep.equal
    # the report carries the fibre it checked, outside its dict
    assert list(rep.to_dict()) == [
        "equal", "mode", "forward_failures", "backward_failures", "d", "n", "n_vec",
        "field", "seed", "capped",
    ]
    assert rep.fibre.generators == special_fibre(cfg).generators
    from mustafin.varieties import fibre_hilbert_tables

    hf_fibre, hf_inter = fibre_hilbert_tables(cfg, bound=1)
    assert hf_fibre == hf_inter
    assert fibre_hilbert_tables(cfg, bound=1, fibre=rep.fibre) == (hf_fibre, hf_inter)


def test_conjecture_check_over_q():
    rep = conjecture_check(random_config(2, 1, (1,), QQ, seed=4))
    assert rep.equal


def test_expected_fibre_d4():
    exp = expected_fibre_d4(F)
    inter = expected_intersection(4, 3, F)
    assert [g.text() for g in exp.generators] == [g.text() for g in inter.generators]
    assert len(exp.generators) == 49
    # contains the deepest generator
    assert any(g.text() == "x[3][0]*x[3][1]*x[3][2]*x[3][3]" for g in exp.generators)


ORACLE_RUNGS = [
    (d, n)
    for d in range(2, 7)
    for n in range(0, 5)
    if len(component_vectors(d, n)) <= 80
]


@pytest.mark.parametrize("d, n", ORACLE_RUNGS)
def test_expected_intersection_matches_the_iterated_lcm_oracle(d, n):
    uni = fibre_universe(d, n)
    oracle = intersect_monomial_ideals([ideal_Iv(v, uni, F) for v in component_vectors(d, n)])
    got = expected_intersection(d, n, F)
    assert got.universe == uni
    assert [g.terms for g in got.generators] == [g.terms for g in oracle.generators]


@pytest.mark.parametrize("d, n", [(7, 3), (5, 5)])
def test_expected_intersection_membership_on_random_squarefree_monomials(d, n):
    # past the oracle's reach: a squarefree monomial is in the closed form
    # exactly when some variable of it generates each I_v
    uni = fibre_universe(d, n)
    gens = [next(iter(g.terms)) for g in expected_intersection(d, n, F).generators]
    ivs = [
        {uni.index(f"x[{i}][{j}]") for j, vj in enumerate(v.v) for i in range(1, vj + 1)}
        for v in component_vectors(d, n)
    ]
    rng = random.Random(f"squarefree {d} {n}")
    seen = collections.Counter()
    for _ in range(400):
        p = rng.uniform(0.02, 0.3)
        support = {k for k in range(uni.nvars) if rng.random() < p}
        mono = tuple(int(k in support) for k in range(uni.nvars))
        inside = all(support & iv for iv in ivs)
        assert any(mono_divides(g, mono) for g in gens) == inside
        seen[inside] += 1
    assert seen[True] >= 50 and seen[False] >= 50


@pytest.mark.parametrize("d, n", [(1, 2), (3, -1)])
def test_expected_intersection_rejects_bad_sizes(d, n):
    with pytest.raises(DomainError):
        expected_intersection(d, n, F)


def test_borel_fixed_examples():
    assert borel_fixed_check(expected_fibre_d4(F), 4, 3)
    uni = fibre_universe(2, 1)
    bad = Ideal([MPoly.var(uni, F, "x[2][0]")])
    assert not borel_fixed_check(bad, 2, 1)
    good = Ideal([MPoly.var(uni, F, "x[1][0]")])
    assert borel_fixed_check(good, 2, 1)


def test_minor_pipeline_generic_and_degenerate():
    rep = minor_pipeline_d4(random_config(4, 3, (1, 3, 7), F, seed=4))
    assert rep.ok
    rep_id = minor_pipeline_d4(identity_config(4, 3, (1, 3, 7)))
    assert not rep_id.ok
    # every term passes the alphabet and pi-power checks; the content fails
    assert [(s.stage, s.ok, s.detail) for s in rep_id.stages] == [
        ("minor(a,b)=(0,1)", False, "pi content 1 != claimed 0")
    ]
    with pytest.raises(DomainError):
        minor_pipeline_d4(random_config(4, 3, (1, 2, 3), F, seed=1))
    with pytest.raises(DomainError):
        minor_pipeline_d4(random_config(3, 2, (1, 2), F, seed=1))


def test_minor_pipeline_rejects_entries_that_depend_on_pi():
    # the argument reads the coefficient of x[i][a] x[j][b] at pi^(e_i + e_j)
    # alone; a generic configuration plus a multiple of pi in every entry
    # (seed 4 passes the pipeline, seed 1 is the configuration of the sweep
    # that found every such input failing at the first stage)
    for seed, shift in ((4, F.one), (1, F.from_int(5))):
        base = random_config(4, 3, (1, 3, 7), F, seed=seed)
        entries = tuple(
            tuple(tuple((e[0] if e else F.zero, shift) for e in row) for row in mat)
            for mat in base.entries
        )
        with pytest.raises(DomainError, match="constant in pi"):
            minor_pipeline_d4(LatticeConfig(4, 3, (1, 3, 7), F, entries, seed=seed))


def test_random_config_deterministic():
    a = random_config(3, 2, (1, 2), F, seed=9)
    b = random_config(3, 2, (1, 2), F, seed=9)
    assert a.entries == b.entries
    c = random_config(3, 2, (1, 2), F, seed=10)
    assert a.entries != c.entries


def test_config_roundtrip_via_dict():
    cfg = random_config(2, 1, (1,), F, seed=6)
    data = cfg.to_dict()
    back = LatticeConfig.from_dict(data)
    assert back.entries == cfg.entries and back.n_vec == cfg.n_vec


def test_conjecture_check_d4_over_q_forward():
    # the proved range 2n_1 < n_2, 2n_2 < n_3 over the rationals
    cfg = random_config(4, 3, (1, 3, 7), QQ, seed=5)
    rep = conjecture_check(cfg, "forward-only", cap_seconds=300)
    assert rep.equal and not rep.capped


# ---------------------------------------------------------------------------
# the Hilbert target of the saturation fast path

GOLDEN = pathlib.Path(__file__).parent / "golden"


def diagonal_target(d, extra=0):
    return lambda a: math.comb(sum(a) + d - 1, d - 1) + extra


def pi_mixing_config():
    # 1 + pi and 2 + 3 pi^2 mix pi powers, so the minors are not weight
    # homogeneous and saturation takes the elimination route
    ring = PiRing(F)
    mats = (
        (("1+pi", "2"), ("3", "1")),
        (("1", "0"), ("2+3*pi^2", "1")),
    )
    return LatticeConfig(2, 1, (1,), F, tuple(
        tuple(tuple(ring.parse(e) for e in row) for row in mat) for mat in mats
    ))


def test_target_one_too_large_is_caught():
    # a target above the true Hilbert function must trip the count (or
    # change the basis) on some rung
    caught = 0
    for d, n, n_vec, seed in ((2, 1, (1,), 1), (3, 2, (1, 2), 1), (3, 3, (1, 2), 2), (4, 2, (1, 3, 7), 1)):
        cfg = random_config(d, n, n_vec, F, seed)
        I = minors_ideal(cfg)
        pi = MPoly.var(I.universe, F, "pi")
        try:
            wrong = saturate(
                I, [pi], pi_fast_weights=cfg.weights,
                hilbert=(I.universe.grid_indices(), diagonal_target(d, extra=1)),
            )
        except DomainError as exc:
            assert "below its Hilbert target" in str(exc)
            caught += 1
            continue
        caught += wrong.generators != mustafin_ideal(cfg).generators
    assert caught


def test_pi_mixing_config_takes_the_elimination_route_without_the_target():
    cfg = pi_mixing_config()
    I = minors_ideal(cfg)
    pi = MPoly.var(I.universe, F, "pi")

    def never(a):
        raise AssertionError("the elimination route read the Hilbert target")

    log = []
    sat = saturate(
        I, [pi], pi_fast_weights=cfg.weights, trace_log=log,
        hilbert=(I.universe.grid_indices(), never),
    )
    worder = WeightedPiOrder(cfg.weights, I.universe.index("pi"))
    assert worder not in sat._gb_cache
    assert log and not any(line.endswith("-> pruned") for line in log)
    assert sat.generators == saturate(I, [pi]).generators == mustafin_ideal(cfg).generators


def test_fibre_verbose_on_the_elimination_route_matches_its_golden():
    # written by `mustafin fibre --verbose` while saturation still built
    # <I, 1 - t*pi> by hand; the trace pins the elimination route's pairs
    path = GOLDEN / "config-pimix.json"
    assert json.loads(path.read_text()) == pi_mixing_config().to_dict()
    res = CliRunner().invoke(mustafin_group, ["fibre", "--config", str(path), "--verbose"])
    assert res.exit_code == 0, res.output
    assert res.stdout == (GOLDEN / "fibre-verbose-pimix.out.json").read_text()
    assert res.stderr == (GOLDEN / "fibre-verbose-pimix.err.txt").read_text()


def test_fibre_verbose_shows_the_pruned_pairs(tmp_path):
    # every pair the unpruned run pops is popped again: pruned, or reduced
    # to zero or to a new element
    cfg = random_config(3, 2, (1, 2), F, 1)
    path = tmp_path / "d3n2.json"
    path.write_text(json.dumps(cfg.to_dict()))
    res = CliRunner().invoke(mustafin_group, ["fibre", "--config", str(path), "--verbose"])
    assert res.exit_code == 0, res.output
    lines = [line for line in res.stderr.splitlines() if line.startswith("pair (")]
    outcomes = collections.Counter(line.rsplit(" -> ", 1)[1] for line in lines)
    assert set(outcomes) <= {"pruned", "0", "new"} and outcomes["pruned"] > 0
    I = minors_ideal(cfg)
    plain_log = []
    saturate(I, [MPoly.var(I.universe, F, "pi")], pi_fast_weights=cfg.weights, trace_log=plain_log)
    assert sum(outcomes.values()) == len(plain_log)


def test_mustafin_fibre_d4_matches_the_unpruned_output(tmp_path):
    # written by `mustafin fibre` before the Hilbert target existed
    out = tmp_path / "out.json"
    res = CliRunner().invoke(
        mustafin_group, ["fibre", "--config", str(GOLDEN / "config-d4n3.json"), "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (GOLDEN / "mustafin-fibre-d4n3.out.json").read_bytes()
