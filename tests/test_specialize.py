import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

import mustafin.specialize as specialize
from mustafin.coeffs import DomainError, GF, PiRing
from mustafin.polyring import MPoly, UniverseError, VarUniverse, parse_poly
from mustafin.specialize import (
    ObstructionSet,
    check_specialization,
    generic_sample,
    obstruction_polynomials,
    subst,
)

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
    assert not bad.ok
    assert "A[2][1][0]" in bad.diagnosis
    # parameter-free inputs are always fine
    triv = check_specialization([x + y], pi, {})
    assert triv.ok


def test_leading_term_stability_on_passing_samples():
    import random

    from mustafin.groebner import buchberger
    from mustafin.specialize import _adjoin_saturator, _symbolic_order

    uni, x, y, A1, A2, pi = example_setup(F)
    gens = [pi * A1 * x + A2 * y]
    big, aux, lifted = _adjoin_saturator(gens, pi)
    order, group = _symbolic_order(big, aux)
    gb = buchberger(lifted, order, universe=big, domain=F)
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
    obs = ObstructionSet([cond], [])
    rep = generic_sample(2, F, (2, 1), obs)
    assert not F.is_zero(rep.assignment["A[1][1][0]"])


def test_generic_sample_small_field_cap():
    # over F_2 with many nonzero conditions the cap trips quickly
    F2 = GF(2)
    uni = VarUniverse(tuple(f"A[{i}][{j}][0]" for i in (1, 2) for j in (1, 2)))
    conds = [
        MPoly.var(uni, F2, name) - MPoly.const(uni, F2, F2.one)
        for name in uni.names
    ]
    obs = ObstructionSet([], conds)
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
            F.is_zero(subst(assignment, c).coeff_of((0,) * 3))
            and not subst(assignment, c)
            for c in obs.unit_conditions
        ):
            continue
        ok = True
        for c in obs.unit_conditions:
            v = subst(assignment, c)
            if not v or ("pi" in v.universe and min(m[v.universe.index("pi")] for m in v.terms) > 0):
                ok = False
        for c in obs.nonzero_conditions:
            if not subst(assignment, c):
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
    """Reference substitution: one MPoly per term and per power, added up."""
    uni, dom = f.universe, f.domain
    missing = {n for n in f.variables() if n.startswith("A[") and n not in assignment}
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
    out = MPoly.zero(small, dom)
    for m, c in f.terms.items():
        factor = MPoly.const(small, dom, c)
        residual = [0] * small.nvars
        for pos, e in enumerate(m):
            if e:
                name = uni.names[pos]
                if name in values:
                    factor = factor * values[name] ** e
                else:
                    residual[small.index(name)] = e
        out = out + factor.mono_shift(tuple(residual))
    return out


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


def test_substitute_into_a_target_universe():
    uni = VarUniverse(("x", "y", "t"))
    x, y, t = (MPoly.var(uni, F7, v) for v in uni.names)
    small = VarUniverse(("y", "x"))
    f = x * x * t + y * t * t + x.scale(F7.from_int(3))
    yx = MPoly.var(small, F7, "y") + MPoly.var(small, F7, "x")
    got = f.substitute({"t": yx}, small)
    assert got.universe is small
    assert got == (f.substitute({"t": yx.relabel(uni)})).relabel(small)
    with pytest.raises(UniverseError):
        f.substitute({"x": F7.one}, VarUniverse(("x", "t")))


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
    parsed = ObstructionSet(
        [parse_poly(t, uni, F) for t in texts["unit_conditions"]],
        [parse_poly(t, uni, F) for t in texts["nonzero_conditions"]],
    )
    assert parsed.texts() == texts and parsed.basis is None

    calls = []
    real = specialize.buchberger

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(specialize, "buchberger", counting)
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
            rep = check_specialization(gens, pi, assignment, obstructions=given_obs)
            assert len(calls) == builds
            assert rep == fresh
