import dataclasses
import functools
import hashlib
import json
import pathlib
import time
from fractions import Fraction
import re

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, reject, settings, strategies as st

import mustafin.specialize as specialize
from mustafin import groebner
from mustafin.cli import spec_group
from mustafin.coeffs import DomainError, GF, PiRing, QQ
from mustafin.groebner import buchberger, saturate
from mustafin.polyring import (
    Ideal,
    MPoly,
    Substitution,
    UniverseError,
    VarUniverse,
    default_order,
    parse_poly,
    pi_content,
)
from mustafin.specialize import (
    ObstructionSet,
    check_specialization,
    generic_sample,
    obstruction_polynomials,
    subst,
)
from substitution_oracle import substitute

F = GF(32003)


def example_setup(dom):
    uni = VarUniverse(("x", "y", "A[1][1][0]", "A[2][1][0]", "pi"))
    x = MPoly.var(uni, dom, "x")
    y = MPoly.var(uni, dom, "y")
    A1 = MPoly.var(uni, dom, "A[1][1][0]")
    A2 = MPoly.var(uni, dom, "A[2][1][0]")
    pi = MPoly.var(uni, dom, "pi")
    return uni, x, y, A1, A2, pi


def test_subst_examples():
    uni, x, y, A1, A2, pi = example_setup(F)
    f = pi * A1 * x + A2 * y
    g = subst({"A[1][1][0]": F.from_int(2), "A[2][1][0]": F.from_int(3)}, f)
    assert g.text() == "2*x*pi + 3*y"
    # identity on parameter-free input
    h = subst({}, x + y)
    assert h.text() == (x + y).text()
    # missing parameter errors
    with pytest.raises(DomainError):
        subst({"A[1][1][0]": F.one}, f)
    # pi-ring tuple values spread over the pi variable
    ring = PiRing(F)
    g2 = subst({"A[1][1][0]": ring.one, "A[2][1][0]": ring.pi}, f)
    assert g2.text() == "x*pi + y*pi"


def test_subst_commutes_with_minor_expansion():
    from mustafin.varieties import LatticeConfig, minors_ideal, random_config

    sym = LatticeConfig(2, 1, (1,), F, "symbolic")
    sym_minors = minors_ideal(sym)
    cfg = random_config(2, 1, (1,), F, seed=2)
    assignment = {}
    for l, mat in enumerate(cfg.entries):
        for i in range(2):
            for j in range(2):
                assignment[f"A[{i+1}][{j+1}][{l}]"] = cfg.pi_ring.reduce_mod_pi(
                    mat[i][j]
                )
    spec = subst(assignment, sym_minors)
    conc = minors_ideal(cfg)
    assert sorted(g.text() for g in spec.generators) == sorted(
        g.text() for g in conc.generators
    )


def test_obstructions_contain_a2():
    uni, x, y, A1, A2, pi = example_setup(F)
    obs = obstruction_polynomials([pi * A1 * x + A2 * y], pi)
    texts = obs.texts()
    assert "A[2][1][0]" in texts["unit_conditions"]
    assert not obs.incomplete
    # single generator with parameter leading coefficient
    obs2 = obstruction_polynomials([A1 * x], pi)
    assert obs2.texts()["unit_conditions"] == ["A[1][1][0]"]
    # parameter-free generators give no conditions
    obs3 = obstruction_polynomials([x + y], pi)
    assert obs3.texts()["unit_conditions"] == []


def test_check_specialization_pass_and_fail():
    uni, x, y, A1, A2, pi = example_setup(F)
    gens = [pi * A1 * x + A2 * y]
    obs = obstruction_polynomials(gens, pi)
    good = check_specialization(
        gens, pi, {"A[1][1][0]": F.from_int(5), "A[2][1][0]": F.from_int(7)},
        obstructions=obs,
    )
    assert good.ok and good.groebner_ok and good.commutation_ok
    ring = PiRing(F)
    bad = check_specialization(
        gens, pi, {"A[1][1][0]": F.from_int(5), "A[2][1][0]": ring.pi},
        obstructions=obs,
    )
    assert not bad.ok and not bad.groebner_ok and not bad.commutation_ok
    assert "A[2][1][0]" in bad.diagnosis
    # parameter-free inputs are always fine
    triv = check_specialization([x + y], pi, {})
    assert triv.ok


def test_leading_term_stability_on_passing_samples():
    import random

    from mustafin.groebner import _adjoin_inverses, buchberger
    from mustafin.specialize import _symbolic_order

    uni, x, y, A1, A2, pi = example_setup(F)
    gens = [pi * A1 * x + A2 * y]
    big, (aux,), lifted = _adjoin_inverses(uni, gens, [pi])
    order, group = _symbolic_order(big, aux)
    gb = buchberger(lifted, order)
    rng = random.Random("lt-stability")
    for _ in range(10):
        a1, a2 = F.random(rng), F.random(rng)
        if F.is_zero(a1) or F.is_zero(a2):
            continue
        assignment = {"A[1][1][0]": a1, "A[2][1][0]": a2}
        for g in gb:
            sg = subst(assignment, g)
            _c, m = g.leading_term(order)
            # the leading monomial, with parameter positions forgotten,
            # survives specialization
            main = tuple(
                e
                for pos, e in enumerate(m)
                if not big.names[pos].startswith("A[")
            )
            _c2, m2 = sg.leading_term(
                _symbolic_order(sg.universe, aux)[0]
            )
            assert m2 == main


def test_generic_sample_determinism_and_obstructions():
    s1 = generic_sample(1, F, (2, 1))
    s2 = generic_sample(1, F, (2, 1))
    assert s1.assignment == s2.assignment and s1.seed == 1
    # an obstruction forcing resampling: A[1][1][0] must be a unit
    uni = VarUniverse(("A[1][1][0]",))
    cond = MPoly.var(uni, F, "A[1][1][0]")
    obs = ObstructionSet([cond])
    rep = generic_sample(2, F, (2, 1), obs)
    assert not F.is_zero(rep.assignment["A[1][1][0]"])


def test_generic_sample_small_field_cap():
    # over F_2 with many unit conditions the cap trips quickly: a constant
    # value v makes A - 1 the constant v - 1, violated exactly when v = 1
    F2 = GF(2)
    uni = VarUniverse(tuple(f"A[{i}][{j}][0]" for i in (1, 2) for j in (1, 2)))
    conds = [
        MPoly.var(uni, F2, name) - MPoly.const(uni, F2, F2.one)
        for name in uni.names
    ]
    obs = ObstructionSet(conds)
    # requiring every entry different from 1 contradicts invertibility mod 2
    with pytest.raises(DomainError):
        generic_sample(1, F2, (2, 0), obs, max_attempts=40)


def test_commutation_on_sampled_assignments():
    uni, x, y, A1, A2, pi = example_setup(F)
    gens = [pi * A1 * x + A2 * y, A1 * x * x]
    obs = obstruction_polynomials(gens, pi)
    import random

    rng = random.Random("commutation")
    checked = 0
    for _ in range(8):
        a1, a2 = F.random(rng), F.random(rng)
        assignment = {"A[1][1][0]": a1, "A[2][1][0]": a2}
        if any(
            F.is_zero(subst(assignment, c).terms.get((0,) * 3, F.zero))
            and not subst(assignment, c)
            for c in obs.unit_conditions
        ):
            continue
        ok = True
        for c in obs.unit_conditions:
            v = subst(assignment, c)
            if not v or ("pi" in v.universe and min(m[v.universe.index("pi")] for m in v.terms) > 0):
                ok = False
        if not ok:
            continue
        rep = check_specialization(gens, pi, assignment, obstructions=obs)
        assert rep.ok, rep.diagnosis
        checked += 1
    assert checked >= 3


# ---------------------------------------------------------------------------
# subst against the per-term substitution


def subst_oracle(assignment, f):
    """Reference substitution: the values spread into the shrunk universe,
    then the per-term ``substitute``."""
    uni, dom = f.universe, f.domain
    used = {f.universe.names[i] for m in f.terms for i, e in enumerate(m) if e}
    missing = {n for n in used if n.startswith("A[") and n not in assignment}
    if missing:
        raise DomainError(f"assignment misses parameters {sorted(missing)}")
    small = specialize._shrunk_universe(uni, assignment)
    values = {}
    for name, val in assignment.items():
        if name not in uni:
            continue
        if isinstance(val, MPoly):
            values[name] = val.relabel(small)
        elif isinstance(val, tuple):
            if len(val) > 1 and "pi" not in small:
                raise DomainError("pi-polynomial value needs a pi variable")
            acc = MPoly.zero(small, dom)
            for k, c in enumerate(val):
                if not dom.is_zero(c):
                    mono = [0] * small.nvars
                    if k:
                        mono[small.index("pi")] = k
                    acc = acc + MPoly.term(small, dom, c, tuple(mono))
            values[name] = acc
        else:
            values[name] = MPoly.const(small, dom, val)
    return substitute(f, values, small)


F7 = GF(7)
R7 = PiRing(F7)
SUBST_UNI = VarUniverse(("x", "y", "A[1][1][0]", "A[2][1][0]", "pi"))
VALUE_UNI = VarUniverse(("y", "pi"))
subst_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 5), st.integers(1, 6), max_size=6
).map(lambda t: MPoly(SUBST_UNI, F7, t))
values = st.one_of(
    st.integers(0, 6),  # a coefficient, zero included
    st.lists(st.integers(0, 6), max_size=3).map(R7.element),  # a pi-ring element
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 6), max_size=3).map(
        lambda t: MPoly(VALUE_UNI, F7, t)
    ),
)


@given(
    subst_polys,
    st.dictionaries(st.sampled_from(["A[1][1][0]", "A[2][1][0]", "x", "pi", "z"]), values),
)
@settings(max_examples=300, deadline=None)
def test_subst_matches_the_per_term_oracle(f, assignment):
    """Coefficient, pi-tuple and polynomial values; unassigned variables and
    parameters; a name outside the universe; values needing a pi variable
    that was substituted away."""
    try:
        expected = subst_oracle(assignment, f)
    except (DomainError, UniverseError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            subst(assignment, f)
        return
    got = subst(assignment, f)
    assert got == expected
    assert got.universe == expected.universe
    assert got.universe.names == tuple(n for n in SUBST_UNI.names if n not in assignment)


@given(
    st.lists(subst_polys, max_size=4),
    st.dictionaries(st.sampled_from(["A[1][1][0]", "A[2][1][0]", "x", "pi", "z"]), values),
)
@settings(max_examples=200, deadline=None)
def test_a_batch_substitutes_as_one_call_per_polynomial(fs, assignment):
    """One plan for the list: the images of one call per polynomial, and,
    when some polynomial fails, the error that such a loop raises first."""
    expected = []
    try:
        for f in fs:
            expected.append(subst_oracle(assignment, f))
    except (DomainError, UniverseError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            subst(assignment, fs)
        return
    got = subst(assignment, fs)
    assert got == expected == [subst(assignment, f) for f in fs]
    assert [g.universe for g in got] == [g.universe for g in expected]


F32003 = GF(32003)
scalar_domains = {
    "GF(7)": (F7, st.integers(0, 6).map(F7.from_int)),
    "GF(32003)": (F32003, st.sampled_from([0, 1, 2, 32002, 16001, 7]).map(F32003.from_int)),
    "QQ": (QQ, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))),
}


@st.composite
def scalar_cases(draw):
    """Polynomials with exponents up to 5 over GF(7), GF(32003) or QQ, and
    an assignment of coefficients (zero included) to some of the
    variables; the first polynomial gains a multiple of A[1][1][0] - v,
    which cancels after substitution when A[1][1][0] takes the value v."""
    dom, value = scalar_domains[draw(st.sampled_from(sorted(scalar_domains)))]
    coeff = value.filter(lambda c: not dom.is_zero(c))
    poly = st.dictionaries(st.tuples(*[st.integers(0, 5)] * 5), coeff, max_size=6).map(
        lambda t: MPoly(SUBST_UNI, dom, t)
    )
    fs = draw(st.lists(poly, min_size=1, max_size=4))
    names = st.sampled_from(["A[1][1][0]", "A[2][1][0]", "x", "pi", "z"])
    assignment = draw(st.dictionaries(names, value))
    v = draw(value)
    if draw(st.booleans()):
        assignment["A[1][1][0]"] = v
    a1 = MPoly.var(SUBST_UNI, dom, "A[1][1][0]")
    fs[0] = fs[0] + (a1 - MPoly.const(SUBST_UNI, dom, v)) * draw(poly)
    return fs, assignment, v


@given(scalar_cases())
@settings(max_examples=300, deadline=None)
def test_scalar_values_substitute_as_the_per_term_oracle(case):
    """All-coefficient assignments take the plan's coefficient path: one
    plan for the list, the oracle's images, the oracle's first error."""
    fs, assignment, v = case
    expected = []
    try:
        for f in fs:
            expected.append(subst_oracle(assignment, f))
    except (DomainError, UniverseError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            subst(assignment, fs)
        return
    got = subst(assignment, fs)
    assert got == expected == [subst(assignment, f) for f in fs]
    kept = tuple(n for n in SUBST_UNI.names if n not in assignment)
    assert all(g.universe.names == kept for g in got)


@given(scalar_cases(), st.sampled_from(["x", "y", "pi"]))
@settings(max_examples=150, deadline=None)
def test_a_scalar_plan_raises_for_a_free_variable_missing_from_its_target(case, dropped):
    fs, assignment, _v = case
    values = {k: val for k, val in assignment.items() if k in SUBST_UNI}
    assume(dropped not in values)
    pos = SUBST_UNI.index(dropped)
    small = VarUniverse(tuple(n for n in SUBST_UNI.names if n not in values))
    target = VarUniverse(tuple(n for n in small.names if n != dropped))
    plan = Substitution(SUBST_UNI, fs[0].domain, values, target)
    message = re.escape(f"variable {dropped} missing from target")
    for f in fs:
        if any(m[pos] for m in f.terms):
            with pytest.raises(UniverseError, match=message):
                plan(f)
        else:
            assert plan(f) == substitute(f, values, small).relabel(target)


def test_a_scalar_plan_grows_its_power_lists_and_cancels_terms():
    uni, x, y, A1, A2, pi = example_setup(QQ)
    half = Fraction(1, 2)
    f = A1 ** 5 * x - x.scale(Fraction(1, 32)) + A2 ** 3 * y + A2 * x
    got = subst({"A[1][1][0]": half, "A[2][1][0]": QQ.zero}, f)
    assert got == subst_oracle({"A[1][1][0]": half, "A[2][1][0]": QQ.zero}, f)
    assert not got  # A1^5 x cancels, every A2 term dies with the zero value


def test_a_batch_over_two_universes_raises():
    uni, x, y, A1, A2, pi = example_setup(F)
    small = VarUniverse(("A[2][1][0]", "pi"))
    a2 = MPoly.var(small, F, "A[2][1][0]")
    assignment = {"A[1][1][0]": F.from_int(2), "A[2][1][0]": PiRing(F).pi}
    with pytest.raises(UniverseError):
        subst(assignment, [pi * A1 * x + A2 * y, a2 + MPoly.var(small, F, "pi")])


def test_substitute_into_a_target_universe():
    uni = VarUniverse(("x", "y", "t"))
    x, y, t = (MPoly.var(uni, F7, v) for v in uni.names)
    small = VarUniverse(("y", "x"))
    f = x * x * t + y * t * t + x.scale(F7.from_int(3))
    yx = MPoly.var(small, F7, "y") + MPoly.var(small, F7, "x")
    got = Substitution(uni, F7, {"t": yx}, small)(f)
    assert got.universe is small
    assert got == Substitution(uni, F7, {"t": yx.relabel(uni)})(f).relabel(small)
    assert got == substitute(f, {"t": yx}, small)
    with pytest.raises(UniverseError):
        Substitution(uni, F7, {"x": F7.one}, VarUniverse(("x", "t")))(f)


# ---------------------------------------------------------------------------
# the symbolic basis carried on ObstructionSet


def test_check_reuses_the_obstruction_basis_only_for_its_generators(monkeypatch):
    uni, x, y, A1, A2, pi = example_setup(F)
    gens = [pi * A1 * x + A2 * y]
    obs = obstruction_polynomials(gens, pi)
    assert obs.basis is not None and obs.lifted is not None
    mismatched = obstruction_polynomials(gens + [A1 * x * x], pi)
    capped = obstruction_polynomials(gens, pi, cap_seconds=1e-9)
    assert capped.incomplete and capped.basis is None
    texts = obs.texts()
    parsed = ObstructionSet([parse_poly(t, uni, F) for t in texts["unit_conditions"]])
    assert parsed.texts() == texts and parsed.basis is None

    calls, lifts = [], []
    real, adjoin = specialize.buchberger, specialize._adjoin_inverses

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def counting_lifts(*args):
        lifts.append(1)
        return adjoin(*args)

    monkeypatch.setattr(specialize, "buchberger", counting)
    # a reused basis comes with its lifted generators: none is relabelled
    monkeypatch.setattr(specialize, "_adjoin_inverses", counting_lifts)
    ring = PiRing(F)
    for assignment in (
        {"A[1][1][0]": F.from_int(5), "A[2][1][0]": F.from_int(7)},
        {"A[1][1][0]": F.from_int(5), "A[2][1][0]": ring.pi},
    ):
        for given_obs, builds in ((obs, 0), (mismatched, 1), (capped, 1), (parsed, 1)):
            fresh = check_specialization(
                gens, pi, assignment,
                obstructions=dataclasses.replace(given_obs, basis=None, lifted=None),
            )
            calls.clear()
            lifts.clear()
            rep = check_specialization(gens, pi, assignment, obstructions=given_obs)
            assert len(calls) == len(lifts) == builds
            assert rep == fresh


# ---------------------------------------------------------------------------
# the unit conditions against plain MPoly arithmetic


def leading_group(f, order, group_pos):
    """Leading monomial in the grouped variables together with its
    polynomial coefficient in the remaining ones."""
    gset = set(group_pos)
    _, lm = f.leading_term(order)
    lead = tuple(e if i in gset else 0 for i, e in enumerate(lm))
    coeff = {}
    for m, c in f.terms.items():
        if tuple(e if i in gset else 0 for i, e in enumerate(m)) == lead:
            coeff[tuple(0 if i in gset else e for i, e in enumerate(m))] = c
    return lead, MPoly(f.universe, f.domain, coeff, _clean=True)


def mpoly_unit_conditions(gb, order, group_pos):
    """Slow reference for the conditions read from a symbolic basis: the
    leading-group coefficient of every element, pi content stripped, the
    non-constant ones once each in basis order."""
    unit = []
    for g in gb:
        stripped = pi_content(leading_group(g, order, group_pos)[1])[1]
        if not stripped.is_constant() and stripped not in unit:
            unit.append(stripped)
    return unit


HARVEST_UNI = VarUniverse(("x", "y", "A[1][1][0]", "A[2][1][0]", "pi"))
harvest_monos = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)
)
harvest_coeffs = {
    "GF(7)": (F7, st.integers(1, 6).map(F7.from_int)),
    "QQ": (QQ, st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2))),
}


@st.composite
def harvest_case(draw):
    """One to three generators over GF(7) or QQ whose coefficients involve
    the parameters and pi."""
    dom, coeff = harvest_coeffs[draw(st.sampled_from(sorted(harvest_coeffs)))]
    poly = st.dictionaries(harvest_monos, coeff, min_size=1, max_size=3).map(
        lambda t: MPoly(HARVEST_UNI, dom, t)
    )
    return draw(st.lists(poly, min_size=1, max_size=3))


@given(harvest_case())
@settings(max_examples=80, deadline=None)
def test_unit_conditions_match_the_mpoly_leading_coefficients(gens):
    pi = MPoly.var(HARVEST_UNI, gens[0].domain, "pi")
    big, (aux,), lifted = groebner._adjoin_inverses(HARVEST_UNI, gens, [pi])
    order, group_pos = specialize._symbolic_order(big, aux)
    # a few inputs have bases that take minutes
    try:
        gb = buchberger(lifted, order, cap_seconds=0.5)
    except groebner.ResourceCapExceeded:
        reject()
    obs = obstruction_polynomials(gens, pi)
    assert obs.basis == gb and not obs.incomplete
    assert obs.unit_conditions == mpoly_unit_conditions(gb, order, group_pos)


# ---------------------------------------------------------------------------
# `spec obstructions` reports recorded from the MPoly harvest

GOLDEN = pathlib.Path(__file__).parent / "golden"
# sha256 of the report on the symbolic d=3 n=2 minors
D3N2_SHA256 = "3dffd509840e095cfbbb2a4169c3fb22a5fb74099af7fc7931a3e5cabd698fb0"


def run_spec_obstructions(tmp_path, n):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "n": n, "n_vec": [1, 2], "field": {"Fp": 32003}, "entries": "symbolic"}))
    out = tmp_path / "out.json"
    res = CliRunner().invoke(spec_group, ["obstructions", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out.read_bytes()


def test_spec_obstructions_report_matches_the_mpoly_harvest(tmp_path):
    # written by `spec obstructions` when the harvest still ran reduce_one_step
    # on MPoly arithmetic, less the nonzero conditions since dropped; the
    # packed kernel must not move a byte
    assert run_spec_obstructions(tmp_path, 1) == (GOLDEN / "obstructions-d3n1.out.json").read_bytes()
    assert hashlib.sha256(run_spec_obstructions(tmp_path, 2)).hexdigest() == D3N2_SHA256


# the budget of the symbolic basis


def symbolic_minors_d3n1():
    from mustafin.varieties import LatticeConfig, minors_ideal

    minors = minors_ideal(LatticeConfig(3, 1, (1, 2), F, "symbolic"))
    return list(minors.generators), MPoly.var(minors.universe, F, "pi")


def test_a_capped_obstruction_basis_gives_an_empty_incomplete_set(monkeypatch):
    gens, pi = symbolic_minors_d3n1()
    full = obstruction_polynomials(gens, pi)
    assert len(full.basis) == 6 and full.unit_conditions
    # each of the basis's 10 S-pairs made 0.05 s slower: 0.5 s in all
    spoly = groebner._Reducers.spoly

    def slow(self, i, j):
        time.sleep(0.05)
        return spoly(self, i, j)

    monkeypatch.setattr(groebner._Reducers, "spoly", slow)
    start = time.monotonic()
    capped = obstruction_polynomials(gens, pi, cap_seconds=0.3)
    # the deadline is read before each pair, so at most one pair runs past it
    assert time.monotonic() - start < 0.3 + 0.2
    assert capped.incomplete and capped.basis is None and capped.unit_conditions == []
    assert obstruction_polynomials(gens, pi).unit_conditions == full.unit_conditions


# ---------------------------------------------------------------------------
# the messages of a violated condition


def test_violated_condition_messages():
    uni, x, y, A1, A2, pi = example_setup(F)
    gens = [pi * A1 * x + A2 * y]
    ring = PiRing(F)
    assignment = {"A[1][1][0]": F.from_int(5), "A[2][1][0]": ring.pi}
    unit = ObstructionSet([A2])
    assert check_specialization(gens, pi, assignment, obstructions=unit).diagnosis == (
        "unit condition A[2][1][0] violated"
    )
    # sampling counts the rejections per violation, without the suffix;
    # neither pi nor the zero polynomial ever takes valuation 0
    small = VarUniverse(("pi",))
    for obs, text in (
        (ObstructionSet([MPoly.var(small, F, "pi")]), "unit condition pi"),
        (ObstructionSet([MPoly.zero(small, F)]), "unit condition 0"),
    ):
        with pytest.raises(DomainError) as exc:
            generic_sample(1, F, (2, 1), obs, max_attempts=3)
        assert str(exc.value) == f"sampling cap 3 exceeded; rejections: {text} (3)"
    # over GF(2) most draws have a singular matrix: that reason comes first
    F2 = GF(2)
    with pytest.raises(DomainError) as exc:
        generic_sample(0, F2, (2, 1), ObstructionSet([MPoly.var(small, F2, "pi")]), max_attempts=50)
    assert str(exc.value) == (
        "sampling cap 50 exceeded; rejections: singular matrix (43), unit condition pi (7)"
    )


def first_violation_one_call_per_condition(assignment, obstructions):
    """``_first_violation`` as one ``subst`` call per condition, stopping at
    the first violated one: the reference for the batched version."""
    for cond in obstructions.unit_conditions:
        val = subst(assignment, cond)
        if not val or pi_content(val)[0] > 0:
            return f"unit condition {specialize.format_poly(cond)}"
    return ""


@given(st.tuples(*[st.lists(st.integers(0, 6), max_size=2).map(R7.element)] * 2))
@settings(max_examples=100, deadline=None)
def test_first_violation_names_the_condition_of_one_call_per_condition(vals):
    uni, x, y, A1, A2, pi = example_setup(F7)
    one = MPoly.const(uni, F7, F7.one)
    obs = ObstructionSet([A2, A1 + A2, A1 * A2 + pi, A1, A2 - pi, A1 * A2 + A1 + one])
    assignment = {"A[1][1][0]": vals[0], "A[2][1][0]": vals[1]}
    assert specialize._first_violation(assignment, obs) == first_violation_one_call_per_condition(
        assignment, obs
    )


def first_violation_substituting_each_first(assignment, obstructions):
    """``_first_violation`` as one ``subst`` call per condition, each made
    and checked before any is read: the reference for the errors of the
    batched version, which must be those of the first failing call."""
    values = [subst(assignment, cond) for cond in obstructions.unit_conditions]
    for cond, val in zip(obstructions.unit_conditions, values):
        if (not val) or pi_content(val)[0] > 0:
            return f"unit condition {specialize.format_poly(cond)}"
    return ""


@functools.cache
def small_field_obstructions(p):
    """The obstruction set of the symbolic d=3 n=1 minors over GF(p)."""
    from mustafin.varieties import LatticeConfig, minors_ideal

    dom = GF(p)
    minors = minors_ideal(LatticeConfig(3, 1, (1, 2), dom, "symbolic"))
    obs = obstruction_polynomials(list(minors.generators), MPoly.var(minors.universe, dom, "pi"))
    assert not obs.incomplete and obs.unit_conditions
    return obs


@st.composite
def small_field_samples(draw):
    """An assignment of the 18 parameters over GF(3) or GF(5): field values,
    now and then a value with pi terms, and one time in three up to
    three parameters left out."""
    p = draw(st.sampled_from([3, 5]))
    ring = PiRing(GF(p))
    field_value = st.integers(0, p - 1).map(GF(p).from_int)
    pi_value = st.lists(st.integers(0, p - 1), min_size=2, max_size=3).map(ring.element)
    names = [f"A[{i}][{j}][{l}]" for l in (0, 1) for i in (1, 2, 3) for j in (1, 2, 3)]
    assignment = {
        name: draw(pi_value if draw(st.integers(0, 9)) == 0 else field_value) for name in names
    }
    if draw(st.integers(0, 2)) == 0:
        for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
            del assignment[name]
    return p, assignment


@given(small_field_samples())
@settings(max_examples=200, deadline=None)
def test_first_violation_matches_substituting_all_conditions_at_once(case):
    p, assignment = case
    obs = small_field_obstructions(p)
    try:
        expected = first_violation_substituting_each_first(assignment, obs)
    except (DomainError, UniverseError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            specialize._first_violation(assignment, obs)
        return
    assert specialize._first_violation(assignment, obs) == expected


# ---------------------------------------------------------------------------
# the basis test over L[pi]_(pi) on pi-dependent values

# symbolic d=3 n=1 minors, n_vec (1, 2), GF(5): every unit condition takes
# a value of valuation 0, such as 1 + pi^2, a unit of L[pi]_(pi) but not of
# L[pi], and the Euclidean basis test over L[pi] rejected the specialized set
PI_DEPENDENT_CASE = {
    "A[1][1][0]": "1", "A[1][2][0]": "3", "A[1][3][0]": "3",
    "A[2][1][0]": "4", "A[2][2][0]": "2", "A[2][3][0]": "pi + pi^2",
    "A[3][1][0]": "4", "A[3][2][0]": "3", "A[3][3][0]": "1 + 3*pi + 3*pi^2",
    "A[1][1][1]": "3 + 3*pi + 2*pi^2", "A[1][2][1]": "2 + pi^2", "A[1][3][1]": "3",
    "A[2][1][1]": "3", "A[2][2][1]": "3 + 2*pi + 4*pi^2", "A[2][3][1]": "2 + 3*pi + 4*pi^2",
    "A[3][1][1]": "4 + pi^2", "A[3][2][1]": "1", "A[3][3][1]": "pi + 3*pi^2",
}


def test_a_pi_dependent_assignment_meeting_every_condition_is_certified():
    ring = PiRing(GF(5))
    assignment = {name: ring.parse(text) for name, text in PI_DEPENDENT_CASE.items()}
    obs = small_field_obstructions(5)
    assert specialize._first_violation(assignment, obs) == ""
    values = subst(assignment, obs.unit_conditions)
    assert all(pi_content(v)[0] == 0 for v in values)
    assert any(not v.is_constant() for v in values)
    rep = check_specialization(obs.gens, obs.a, assignment, obstructions=obs)
    assert rep.groebner_ok and rep.ok and rep.diagnosis == ""


def test_spec_check_certifies_the_pi_dependent_assignment(tmp_path):
    obs = small_field_obstructions(5)
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({
        "variables": list(obs.a.universe.names),
        "generators": [g.text() for g in obs.gens],
        "element": "pi",
        "field": {"Fp": 5},
    }))
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(PI_DEPENDENT_CASE))
    res = CliRunner().invoke(spec_group, ["check", "--gens", str(gens), "--assignment", str(assign)])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["verdict"] == "pass" and rep["groebner_ok"] is True


@st.composite
def pi_dependent_samples(draw):
    """An assignment of the 18 parameters over GF(p), p in 3, 5, 7: each
    value has a uniform constant coefficient and, one time in two, two
    more uniform coefficients."""
    p = draw(st.sampled_from([3, 5, 7]))
    ring = PiRing(GF(p))
    coeff = st.integers(0, p - 1)
    value = st.one_of(st.tuples(coeff), st.tuples(coeff, coeff, coeff)).map(ring.element)
    names = [f"A[{i}][{j}][{l}]" for l in (0, 1) for i in (1, 2, 3) for j in (1, 2, 3)]
    return p, {name: draw(value) for name in names}


@given(pi_dependent_samples())
@settings(max_examples=60, deadline=None)
def test_meeting_every_unit_condition_passes_the_basis_test(case):
    # the specialization theorem over L[pi]_(pi) in the module docstring:
    # the unit conditions alone certify the basis, whatever the values'
    # dependence on pi
    p, assignment = case
    obs = small_field_obstructions(p)
    values = subst(assignment, obs.unit_conditions)
    if all(v and pi_content(v)[0] == 0 for v in values):
        assert check_specialization(obs.gens, obs.a, assignment, obstructions=obs).groebner_ok


@given(st.sampled_from([3, 5, 7]), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_small_field_samples_come_within_the_cap_and_are_certified(p, seed):
    # the unit conditions alone leave the sampler room on small fields, and
    # every sample they pass is certified
    obs = small_field_obstructions(p)
    sample = generic_sample(seed, GF(p), (3, 1), obs)
    rep = check_specialization(obs.gens, obs.a, sample.assignment, obstructions=obs)
    assert rep.groebner_ok and rep.commutation_ok


def test_the_budget_runs_out_between_the_lifted_generators(monkeypatch):
    # the basis test reduces the surviving S-combinations and then the
    # specialized lifted generators on one table, checking the clock before
    # each; a clock that jumps past the budget during the first lifted
    # generator stops the check before the second
    from types import SimpleNamespace

    gens, pi = symbolic_minors_d3n1()
    obs = obstruction_polynomials(gens, pi)
    sample = generic_sample(1, F, (3, 1), obs)
    s_combinations = []
    s_combination = groebner._Reducers.s_combination

    def counted(self, i, j):
        s_combinations.append((i, j))
        return s_combination(self, i, j)

    monkeypatch.setattr(groebner._Reducers, "s_combination", counted)
    assert check_specialization(gens, pi, sample.assignment, obstructions=obs).ok
    pairs = len(s_combinations)
    assert pairs

    now = [0.0]
    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: now[0]))
    reductions = []
    reduce = groebner._Reducers.reduce

    def clocked(self, work, **kw):
        reductions.append(len(work))
        if len(reductions) == pairs + 1:  # the first lifted generator
            now[0] = 100.0
        return reduce(self, work, **kw)

    monkeypatch.setattr(groebner._Reducers, "reduce", clocked)
    with pytest.raises(groebner.ResourceCapExceeded) as exc:
        check_specialization(gens, pi, sample.assignment, obstructions=obs, cap_seconds=30)
    assert exc.value.phase == "basis test"
    assert str(exc.value).startswith("basis test: exceeded 30s (is_groebner exceeded 30s ")
    assert re.search(rf"\({pairs} of {pairs} pairs, 1 of \d+ members reduced\)$", exc.value.detail)
    assert len(reductions) == pairs + 1


def test_an_expired_deadline_stops_the_check_at_its_basis_test():
    # handed its basis, the check runs no capped call before the basis
    # test over L[pi], so a zero budget is spent exactly there
    uni, x, y, A1, A2, pi = example_setup(F)
    gens = [pi * A1 * x + A2 * y]
    obs = obstruction_polynomials(gens, pi)
    assignment = {"A[1][1][0]": F.from_int(5), "A[2][1][0]": F.from_int(3)}
    assert check_specialization(gens, pi, assignment, obstructions=obs).ok
    with pytest.raises(groebner.ResourceCapExceeded) as exc:
        check_specialization(gens, pi, assignment, obstructions=obs, cap_seconds=0)
    assert exc.value.phase == "basis test"
    assert str(exc.value) == "basis test: exceeded 0s"


def test_a_deadline_that_runs_out_inside_the_basis_test_stops_it(monkeypatch):
    # the seed-1 sample of the symbolic d=3 n=1 minors: its basis test over
    # L[pi] reduces 4 pairs; made to take 0.3 s each, they overrun the 0.5-s
    # budget, which the steps before the basis test hardly touch
    from mustafin.varieties import LatticeConfig, minors_ideal

    minors = minors_ideal(LatticeConfig(3, 1, (1, 2), F, "symbolic"))
    gens = list(minors.generators)
    pi = MPoly.var(minors.universe, F, "pi")
    obs = obstruction_polynomials(gens, pi)
    sample = specialize.generic_sample(1, F, (3, 1), obs)
    s_combination = groebner._Reducers.s_combination

    def slow(self, i, j):
        time.sleep(0.3)
        return s_combination(self, i, j)

    monkeypatch.setattr(groebner._Reducers, "s_combination", slow)
    with pytest.raises(groebner.ResourceCapExceeded) as exc:
        check_specialization(gens, pi, sample.assignment, obstructions=obs, cap_seconds=0.5)
    assert exc.value.phase == "basis test"
    assert exc.value.detail.startswith("is_groebner exceeded")
    # stopped inside the phase, not on entry: 2 of 4 unless the machine is slow
    assert re.search(r"\([123] of 4 pairs reduced\)$", exc.value.detail)


def test_one_converted_basis_shares_its_ring_and_universe(monkeypatch):
    # the specialized basis is converted to L[pi] coefficients element by
    # element; every element must carry the same ring and universe objects,
    # and the verdicts must match conversions that build fresh ones
    from mustafin import polyring
    from mustafin.varieties import LatticeConfig, minors_ideal

    minors = minors_ideal(LatticeConfig(3, 1, (1, 2), F, "symbolic"))
    minor_pi = MPoly.var(minors.universe, F, "pi")
    minor_obs = obstruction_polynomials(list(minors.generators), minor_pi)
    uni, x, y, A1, A2, pi = example_setup(F)
    example = [pi * A1 * x + A2 * y]
    example_obs = obstruction_polynomials(example, pi)
    ring = PiRing(F)
    samples = [specialize.generic_sample(s, F, (3, 1), minor_obs) for s in (1, 2, 3)]
    cases = [
        (list(minors.generators), minor_pi, sample.assignment, minor_obs) for sample in samples
    ] + [
        (example, pi, {"A[1][1][0]": F.from_int(5), "A[2][1][0]": a2}, example_obs)
        for a2 in (F.from_int(7), ring.pi)
    ]
    seen = []
    is_groebner = specialize.is_groebner

    def recording(basis, *args, **kwargs):
        seen.append(list(basis))
        return is_groebner(basis, *args, **kwargs)

    def fresh(f):
        polyring._pi_split.cache_clear()
        return polyring.to_pi_coefficients(f)

    def verdicts():
        return [check_specialization(g, p, a, obstructions=o) for g, p, a, o in cases]

    monkeypatch.setattr(specialize, "is_groebner", recording)
    shared = verdicts()
    assert max(len(basis) for basis in seen) > 1
    for basis in seen:
        assert all(g.domain is basis[0].domain and g.universe is basis[0].universe for g in basis)
    monkeypatch.setattr(specialize, "to_pi_coefficients", fresh)
    assert verdicts() == shared
    assert [rep.ok for rep in shared] == [True, True, True, True, False]


def test_same_ideal_makes_no_normal_form_call(monkeypatch):
    # equality is read off the two reduced bases; no normal form is taken
    uni, x, y, A1, A2, pi = example_setup(F)
    small, big = Ideal([x * y], uni, F), Ideal([x, y], uni, F)

    def forbidden(*args, **kwargs):
        raise AssertionError("normal form taken")

    monkeypatch.setattr(groebner, "normal_forms", forbidden)
    monkeypatch.setattr(groebner, "normal_form", forbidden)
    assert specialize._same_ideal(small, small)
    assert specialize._same_ideal(big, Ideal([x + y, y], uni, F))
    assert not specialize._same_ideal(big, small)
    assert not specialize._same_ideal(small, big)
    one = MPoly.const(uni, F, F.one)
    assert not specialize._same_ideal(Ideal([x + one], uni, F), Ideal([x + one + one], uni, F))
    assert not specialize._same_ideal(Ideal([], uni, F), small)
    assert specialize._same_ideal(Ideal([], uni, F), Ideal([], uni, F))


def same_ideal_oracle(A, B):
    """Ideal equality by normal forms: every generator of each side
    reduces to zero modulo the basis of the other (the reference for
    ``_same_ideal``)."""
    order = default_order(A.universe)
    gb_a = list(A.groebner_basis(order)) if not A.is_zero() else []
    gb_b = list(B.groebner_basis(order)) if not B.is_zero() else []
    return not any(groebner.normal_forms(A.generators, gb_b, order)) and not any(
        groebner.normal_forms(B.generators, gb_a, order)
    )


IDEAL_UNI = VarUniverse(("x", "y", "z", "pi"))
ideal_coeffs = {
    "GF(7)": (F7, st.integers(1, 6).map(F7.from_int)),
    "QQ": (QQ, st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2))),
}


@st.composite
def ideal_pairs(draw):
    """Pairs of ideals over GF(7) or QQ in x, y, z, pi: random ideals, the
    same ideal on other generators, and elimination-route saturations by
    z, whose bases ``saturate`` caches under ``default_order``."""
    dom, coeff = ideal_coeffs[draw(st.sampled_from(sorted(ideal_coeffs)))]
    mono = st.tuples(*[st.integers(0, 2)] * 3, st.integers(0, 1))
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(
        lambda t: MPoly(IDEAL_UNI, dom, t)
    )
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    other = draw(st.lists(poly, max_size=2))
    A = Ideal(gens, IDEAL_UNI, dom)
    # the same ideal: the first generator moved by a multiple of the others
    shift = gens[0]
    for g, c in zip(gens[1:], draw(st.lists(coeff, min_size=2, max_size=2))):
        shift = shift + g.scale(c)
    same = Ideal([shift, *gens[1:]], IDEAL_UNI, dom)
    # most often the same leading monomials, and another ideal
    moved = Ideal([gens[0] + MPoly.const(IDEAL_UNI, dom, draw(coeff)), *gens[1:]], IDEAL_UNI, dom)
    bigger = Ideal([*gens, *other], IDEAL_UNI, dom)
    z = MPoly.var(IDEAL_UNI, dom, "z")
    S = saturate(A, [z])
    assert default_order(IDEAL_UNI) in S._gb_cache
    fresh = Ideal(S.generators, IDEAL_UNI, dom)
    candidates = [A, same, moved, bigger, S, saturate(S, [z]), fresh, saturate(moved, [z])]
    return draw(st.sampled_from(candidates)), draw(st.sampled_from(candidates))


@given(ideal_pairs())
@settings(max_examples=150, deadline=None)
def test_same_ideal_matches_the_normal_form_oracle(pair):
    A, B = pair
    assert specialize._same_ideal(A, B) == same_ideal_oracle(A, B)
    assert specialize._same_ideal(B, A) == same_ideal_oracle(B, A)


@pytest.mark.parametrize("dom", [F7, QQ], ids=["GF(7)", "QQ"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_same_ideal_matches_the_oracle_on_fast_path_saturations(dom, seed):
    from mustafin.varieties import minors_ideal, random_config

    cfg = random_config(2, 1, (1,), dom, seed=seed)
    I = minors_ideal(cfg)
    pi = MPoly.var(I.universe, dom, "pi")
    fast = saturate(I, [pi], pi_fast_weights=cfg.weights)
    slow = saturate(I, [pi])
    assert default_order(I.universe) not in fast._gb_cache
    for A, B in ((fast, slow), (fast, I), (slow, I), (fast, saturate(fast, [pi]))):
        for X, Y in ((A, B), (B, A)):
            assert specialize._same_ideal(X, Y) == same_ideal_oracle(X, Y)
    assert specialize._same_ideal(fast, slow)
