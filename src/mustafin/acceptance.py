"""The acceptance suite: eleven criteria, one pass/fail line each.

Each criterion function returns a dict with at least ``criterion``,
``passed`` and ``details``; ``run_all`` executes a subset (default: all) and
aggregates.  ``quick=True`` shrinks trial counts for smoke runs; the
recorded tolerances themselves never change.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from .coeffs import DEFAULT_PRIME, GF, QQ, PiRing
from .groebner import (
    buchberger,
    hilbert_function,
    intersect_monomial_ideals,
    is_groebner,
    linear_relations,
    normal_form,
    saturate,
    span_member,
)
from .polyring import (
    Block,
    DegRevLex,
    Ideal,
    Lex,
    MPoly,
    VarUniverse,
    WeightedPiOrder,
    _packing,
)
from . import degeneration, specialize, varieties

FIELD = GF(DEFAULT_PRIME)


def _result(num, name, passed, details):
    return {"criterion": num, "name": name, "passed": bool(passed), "details": details}


# ---------------------------------------------------------------------------
# criterion 1: d=3 decomposition on seeded random configurations


def criterion_1(ctx, quick=False):
    per_n = 4 if quick else 20
    allowed_failures = 1
    details = {}
    passed = True
    ctx["c1_passing"] = []
    ctx["c1_fibres"] = {}  # (n, seed) -> the fibre ideal checked, for criterion 7
    for n in (2, 3):
        outcomes = []
        times = []
        for seed in range(1, per_n + 1):
            cfg = varieties.random_config(3, n, (1, 2), FIELD, seed=seed)
            t0 = time.monotonic()
            rep = varieties.conjecture_check(cfg, "both-containments", cap_seconds=60)
            times.append(time.monotonic() - t0)
            outcomes.append((seed, rep.equal))
            if rep.equal:
                ctx["c1_passing"].append((n, seed))
                ctx["c1_fibres"][(n, seed)] = rep.fibre
            elif not rep.capped:
                # a degenerate sample must pass on a fresh resample
                cfg2 = varieties.random_config(3, n, (1, 2), FIELD, seed=seed + 10_000)
                rep2 = varieties.conjecture_check(cfg2, "both-containments", cap_seconds=60)
                outcomes[-1] = (seed, rep.equal, rep2.equal)
        fails = [o for o in outcomes if not o[1]]
        ok = len(fails) <= allowed_failures and all(
            (len(o) < 3 or o[2]) for o in outcomes
        )
        ok = ok and max(times) < 60
        details[f"n={n}"] = {
            "trials": per_n,
            "failing_seeds": [o[0] for o in fails],
            "max_seconds": round(max(times), 2),
        }
        passed = passed and ok
    return _result(1, "d=3 decomposition, both containments", passed, details)


# ---------------------------------------------------------------------------
# criterion 2: explicit d=4 fibre


def criterion_2(ctx, quick=False):
    t0 = time.monotonic()
    exp = varieties.expected_fibre_d4(FIELD)
    inter = varieties.expected_intersection(4, 3, FIELD)
    elapsed = time.monotonic() - t0
    exp_texts = [g.text() for g in exp.generators]
    inter_texts = [g.text() for g in inter.generators]
    byte_identical = json.dumps(exp_texts) == json.dumps(inter_texts)
    # the stated family enumeration counts index tuples: 6+6+12+12+24+1
    index_count = (
        len(list(itertools.combinations(range(4), 2))) * 2
        + len(list(itertools.permutations(range(4), 2))) * 2
        + len(list(itertools.permutations(range(4), 3)))
        + 1
    )
    minimal_count = len(inter.generators)
    passed = (
        byte_identical
        and index_count == 61
        and minimal_count == 49
        and len(exp.generators) == minimal_count
        and elapsed < 1.0
    )
    return _result(
        2,
        "explicit d=4 fibre equals the intersection",
        passed,
        {
            "byte_identical": byte_identical,
            "index_tuple_count": index_count,
            "minimal_generators": minimal_count,
            "seconds": round(elapsed, 3),
            "note": "the stated 61 counts index tuples; 12 of the 24 triples repeat as monomials",
        },
    )


# ---------------------------------------------------------------------------
# criterion 3: d=4 decomposition instance, forward only


def criterion_3(ctx, quick=False):
    trials = 2 if quick else 5
    cap = 1800.0
    outcomes = []
    for seed in range(1, trials + 1):
        cfg = varieties.random_config(4, 3, (1, 3, 7), FIELD, seed=seed)
        t0 = time.monotonic()
        rep = varieties.conjecture_check(cfg, "forward-only", cap_seconds=cap)
        outcomes.append(
            {
                "seed": seed,
                "equal": rep.equal,
                "capped": rep.capped,
                "seconds": round(time.monotonic() - t0, 1),
            }
        )
    completed = [o for o in outcomes if not o["capped"]]
    fails = [o for o in completed if not o["equal"]]
    passed = len(completed) >= 2 and len(fails) <= (0 if quick else 1)
    return _result(
        3,
        "d=4 decomposition, forward containment",
        passed,
        {"outcomes": outcomes},
    )


# ---------------------------------------------------------------------------
# criterion 4: minor pipeline


def criterion_4(ctx, quick=False):
    trials = 2 if quick else 5
    outcomes = []
    for seed in range(1, trials + 1):
        cfg = varieties.random_config(4, 3, (1, 3, 7), FIELD, seed=seed)
        rep = varieties.minor_pipeline_d4(cfg)
        outcomes.append(
            {
                "seed": seed,
                "ok": rep.ok,
                "failed_stages": [s.stage for s in rep.stages if not s.ok],
            }
        )
    fails = [o for o in outcomes if not o["ok"]]
    passed = len(fails) <= (0 if quick else 1)
    return _result(4, "d=4 minor pipeline stage checks", passed, {"outcomes": outcomes})


# ---------------------------------------------------------------------------
# criterion 5: engine property suite


def _random_poly(rng, uni, dom, max_deg=3, terms=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        mono = [0] * uni.nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            mono[rng.randrange(uni.nvars)] += 1
        c = dom.random(rng)
        if not dom.is_zero(c):
            out[tuple(mono)] = c
    return MPoly(uni, dom, out)


def _monos_up_to(nv, dd):
    out = []

    def rec(i, rem, acc):
        if i == nv - 1:
            for e in range(rem + 1):
                out.append(tuple(acc + [e]))
            return
        for e in range(rem + 1):
            rec(i + 1, rem - e, acc + [e])

    if dd >= 0:
        rec(0, dd, [])
    return out


def _zfree_span(columns, zpos, dom):
    """Members of the span of ``columns`` with no z-variable: for each of
    the first ten columns whose z-part is a combination of the earlier
    columns' z-parts, that relation applied to the columns themselves (the
    kernel vector that the reduced row-echelon form assigns to that free
    column)."""
    zparts = [
        MPoly(col.universe, dom, {m: v for m, v in col.terms.items() if m[zpos]}, _clean=True)
        for col in columns
    ]
    out = []
    for combo in linear_relations(zparts, 10):
        member = MPoly.zero(columns[0].universe, dom)
        for k, lam in sorted(combo.items()):
            member = member + columns[k].scale(lam)
        if member:
            out.append(member)
    return out


def _la_membership(f, gens, deg_bound):
    """Degree-bounded linear-algebra membership oracle: is f a combination
    sum h_i g_i with deg(h_i) <= deg_bound - deg(g_i)?  Exact elimination
    over the coefficient field (``groebner.span_member``)."""
    return span_member(f, gens, deg_bound)


def criterion_5(ctx, quick=False):
    n_ideals = 40 if quick else 200
    failures = []
    uni = VarUniverse(("x", "y", "z"))
    order = DegRevLex()

    # order axioms on random monomials, tested on the compiled keys that
    # leading terms and the kernel compare: distinct monomials key apart,
    # a common factor (a packed sum) keeps their comparison, and 1 is least
    rng = random.Random("order-axioms")
    orders = [
        Lex(),
        DegRevLex(),
        Block((((0, 1), DegRevLex()), ((2,), DegRevLex()))),
        WeightedPiOrder((2, 1, 1), 2),
    ]
    pk = _packing(3, 1)
    keys = [(o.name, pk.order_key(o)) for o in orders]
    for _ in range(400):
        m1 = tuple(rng.randrange(4) for _ in range(3))
        m2 = tuple(rng.randrange(4) for _ in range(3))
        m3 = tuple(rng.randrange(3) for _ in range(3))
        p1, p2, p3 = pk.pack(m1), pk.pack(m2), pk.pack(m3)
        for name, key in keys:
            k1, k2, s1, s2 = key(p1), key(p2), key(p1 + p3), key(p2 + p3)
            if (k1 == k2) != (p1 == p2):
                failures.append(f"antisymmetry {name}")
            if (k1 > k2) - (k1 < k2) != (s1 > s2) - (s1 < s2):
                failures.append(f"translation {name}")
            if p1 and k1 <= key(0):
                failures.append(f"minimality {name}")

    for trial in range(n_ideals):
        dom = FIELD if trial % 2 == 0 else QQ
        rng = random.Random(("c5", trial).__repr__())
        gens = [g for g in (_random_poly(rng, uni, dom) for _ in range(rng.randint(1, 3))) if g]
        if not gens:
            continue
        I = Ideal(gens, uni, dom)
        gb = list(I.groebner_basis(order))
        # GB idempotence
        gb2 = buchberger(list(gb), order)
        if [g.leading_term(order)[1] for g in gb] != [
            g.leading_term(order)[1] for g in gb2
        ]:
            failures.append(f"idempotence trial {trial}")
        # explicit combination is a member
        combo = MPoly.zero(uni, dom)
        for g in gens:
            combo = combo + g * _random_poly(rng, uni, dom, max_deg=1, terms=2)
        if normal_form(combo, gb, order):
            failures.append(f"membership(combination) trial {trial}")
        # random candidate vs the linear-algebra oracle:
        # over the basis, degrevlex division keeps quotients within deg f,
        # so normal-form membership must coincide with bounded solvability;
        # over the raw generators, bounded solvability certifies membership
        f = _random_poly(rng, uni, dom, max_deg=3)
        if f:
            nf_member = not normal_form(f, gb, order)
            la_gb = _la_membership(f, gb, f.total_degree())
            if nf_member != la_gb:
                failures.append(f"oracle(gb) trial {trial}")
            if _la_membership(f, gens, 6) and not nf_member:
                failures.append(f"oracle(gens) trial {trial}")

    # saturation properties
    rng = random.Random("c5-sat")
    for trial in range(10 if quick else 40):
        dom = FIELD
        gens = [g for g in (_random_poly(rng, uni, dom, max_deg=2) for _ in range(2)) if g]
        if not gens:
            continue
        a = MPoly.var(uni, dom, "z")
        I = Ideal(gens, uni, dom)
        S1 = saturate(I, [a])
        S2 = saturate(S1, [a])
        if not specialize._same_ideal(S1, S2):
            failures.append(f"sat idempotence {trial}")
        gbS = list(S1.groebner_basis(order)) if not S1.is_zero() else []
        for g in I.generators:
            if gbS and normal_form(g, gbS, order):
                failures.append(f"sat containment {trial}")
        p = _random_poly(rng, uni, dom, max_deg=2)
        if p:
            J = Ideal(list(I.generators) + [a * p], uni, dom)
            SJ = saturate(J, [a])
            gbSJ = list(SJ.groebner_basis(order)) if not SJ.is_zero() else []
            if gbSJ and normal_form(p, gbSJ, order):
                failures.append(f"sat quotient {trial}")

    # the basis test over L[pi]_(pi) vs over Fp: lifted to pi-ring
    # coefficients, a pi-free set has unit leading coefficients, so the
    # valuation test must give the field test's verdict
    rng = random.Random("c5-ring")
    ring = PiRing(FIELD)
    for trial in range(6 if quick else 20):
        gens = [g for g in (_random_poly(rng, uni, FIELD, max_deg=2, terms=3) for _ in range(2)) if g]
        if not gens:
            continue
        gb = buchberger(list(gens), order)
        for label, G in (("basis", gb), ("generators", gens), ("dropped", gb[:-1])):
            lifted = [g.map_coeffs(ring.from_base, ring) for g in G]
            if is_groebner(lifted, order)[0] != is_groebner(G, order)[0]:
                failures.append(f"valuation/field {label} trial {trial}")

    # elimination vs a degree-bounded linear-algebra oracle: the span of
    # {m * g_i} up to degree 4 inside the subring without z must reduce to
    # zero against the computed elimination basis, and every elimination
    # generator must be a z-free member of the ideal
    from mustafin.groebner import eliminate

    rng = random.Random("c5-elim")
    for trial in range(8 if quick else 25):
        dom = FIELD
        gens = [
            g for g in (_random_poly(rng, uni, dom, max_deg=2) for _ in range(2)) if g
        ]
        if not gens:
            continue
        I = Ideal(gens, uni, dom)
        E = eliminate(I, ["z"])
        gbI = list(I.groebner_basis(order))
        zpos = uni.index("z")
        for g in E.generators:
            lifted = g.relabel(uni)
            if any(m[zpos] for m in lifted.terms):
                failures.append(f"elim not z-free {trial}")
            if normal_form(lifted, gbI, order):
                failures.append(f"elim outside ideal {trial}")
        # z-free combinations found by linear algebra must die against E
        columns = []
        for g in gens:
            dg = g.total_degree()
            for q in _monos_up_to(uni.nvars, max(0, 4 - dg)):
                columns.append(g.mono_shift(q))
        solutions = _zfree_span(columns, zpos, dom)
        gbE = (
            [g.relabel(uni) for g in E.groebner_basis(DegRevLex())]
            if not E.is_zero()
            else []
        )
        for sol in solutions[:6]:
            if normal_form(sol, gbE, order) if gbE else sol:
                failures.append(f"elim misses member {trial}")
                break

    # fast saturation path vs elimination route on small minors ideals
    for seed in (1, 2):
        cfg = varieties.random_config(2, 1, (1,), FIELD, seed=seed)
        I = varieties.minors_ideal(cfg)
        pi = MPoly.var(I.universe, FIELD, "pi")
        fast = saturate(I, [pi], pi_fast_weights=cfg.weights)
        slow = saturate(I, [pi])
        if not specialize._same_ideal(fast, slow):
            failures.append(f"sat fast/slow d=2 seed {seed}")

    # Hilbert additivity on monomial ideals
    rng = random.Random("c5-hf")
    guni = varieties.fibre_universe(2, 1)
    blocks = guni.grid_indices()
    for trial in range(5 if quick else 15):
        def rand_monomial_ideal():
            gens = []
            for _ in range(rng.randint(1, 3)):
                mono = [0] * guni.nvars
                for _ in range(rng.randint(1, 2)):
                    mono[rng.randrange(guni.nvars)] += 1
                gens.append(MPoly.term(guni, FIELD, FIELD.one, tuple(mono)))
            return Ideal(gens, guni, FIELD)

        A, B = rand_monomial_ideal(), rand_monomial_ideal()
        AB = intersect_monomial_ideals([A, B])
        ApB = Ideal(list(A.generators) + list(B.generators), guni, FIELD)
        box = (2, 2)
        h = lambda I: hilbert_function(I, blocks, box)
        hA, hB, hAB, hApB = h(A), h(B), h(AB), h(ApB)
        for key in hA:
            if hA[key] + hB[key] != hAB[key] + hApB[key]:
                failures.append(f"hf additivity {trial}")
                break

    return _result(
        5,
        "engine property suite",
        not failures,
        {"checked_ideals": n_ideals, "failures": failures[:10]},
    )


# ---------------------------------------------------------------------------
# criterion 6: specialization suite


def _example_setup():
    uni = VarUniverse(("x", "y", "A[1][1][0]", "A[2][1][0]", "pi"))
    dom = FIELD
    x = MPoly.var(uni, dom, "x")
    y = MPoly.var(uni, dom, "y")
    A1 = MPoly.var(uni, dom, "A[1][1][0]")
    A2 = MPoly.var(uni, dom, "A[2][1][0]")
    pi = MPoly.var(uni, dom, "pi")
    gens = [pi * A1 * x + A2 * y]
    return uni, dom, gens, pi


def criterion_6(ctx, quick=False):
    n_pass = 15 if quick else 100
    n_violate = 5 if quick else 10
    uni, dom, gens, pi = _example_setup()
    obs = specialize.obstruction_polynomials(gens, pi)
    details = {"unit_conditions": obs.texts()["unit_conditions"]}
    has_a2 = any("A[2][1][0]" == t for t in details["unit_conditions"])
    failures = []
    if not has_a2:
        failures.append("A2 missing from unit conditions")

    rng = random.Random("c6")
    passing = 0
    for k in range(n_pass):
        a1 = dom.random(rng)
        a2 = dom.random(rng)
        if dom.is_zero(a1) or dom.is_zero(a2):
            continue
        rep = specialize.check_specialization(
            gens,
            pi,
            {"A[1][1][0]": a1, "A[2][1][0]": a2},
            obstructions=obs,
        )
        if not rep.ok:
            failures.append(f"passing sample {k} rejected: {rep.diagnosis}")
        else:
            passing += 1
    violated = 0
    ring = PiRing(dom)
    for k in range(n_violate):
        a1 = dom.random(rng)
        unit = dom.random(rng)
        if dom.is_zero(a1) or dom.is_zero(unit):
            a1, unit = dom.one, dom.one
        a2_val = ring.shift((unit,), 1)  # unit * pi: zero mod pi
        rep = specialize.check_specialization(
            gens,
            pi,
            {"A[1][1][0]": a1, "A[2][1][0]": a2_val},
            obstructions=obs,
        )
        if rep.ok:
            failures.append(f"violating sample {k} accepted")
        elif "A[2][1][0]" not in rep.diagnosis:
            failures.append(f"violating sample {k} wrong diagnosis: {rep.diagnosis}")
        else:
            violated += 1
    details.update({"passing_checked": passing, "violations_detected": violated, "failures": failures[:10]})
    return _result(6, "specialization certificates", not failures, details)


# ---------------------------------------------------------------------------
# criterion 7: Hilbert cross-check


def criterion_7(ctx, quick=False):
    trials = ctx.get("c1_passing")
    if trials is None:
        criterion_1(ctx, quick=True)
        trials = ctx["c1_passing"]
    failures = []
    checked = 0
    for n, seed in trials:
        cfg = varieties.random_config(3, n, (1, 2), FIELD, seed=seed)
        hf_fibre, hf_inter = varieties.fibre_hilbert_tables(
            cfg, bound=2, fibre=ctx["c1_fibres"][(n, seed)]
        )
        checked += 1
        if hf_fibre != hf_inter:
            bad = [k for k in hf_fibre if hf_fibre[k] != hf_inter[k]][:3]
            failures.append(f"n={n} seed={seed} mismatch at {bad}")
    return _result(
        7,
        "Hilbert cross-check on the d=3 trials",
        checked > 0 and not failures,
        {"trials_checked": checked, "failures": failures[:5]},
    )


# ---------------------------------------------------------------------------
# criterion 8: plane-curve degenerations


def _random_curve(rng, dom, degree):
    uni = degeneration.ambient_universe(3)
    ys = [MPoly.var(uni, dom, f"y[{l}]") for l in (1, 2, 3)]
    while True:
        if degree == 1:
            f = MPoly.zero(uni, dom)
            for yv in ys:
                f = f + yv.scale(dom.random(rng))
        else:
            f = MPoly.zero(uni, dom)
            for i in range(3):
                for j in range(i, 3):
                    f = f + (ys[i] * ys[j]).scale(dom.random(rng))
        if f and len(f.terms) >= degree + 1:
            return degeneration.SubvarietyInput((f,), 1, degree)


def criterion_8(ctx, quick=False):
    seeds = range(1, (3 if quick else 10) + 1)
    outcomes = []
    ctx["c8_reports"] = []
    for seed in seeds:
        cfg = varieties.random_config(3, 2, (1, 2), FIELD, seed=seed)
        rng = random.Random(("c8-curve", seed).__repr__())
        for degree, label in ((1, "line"), (2, "conic")):
            X = _random_curve(rng, FIELD, degree)
            rep = degeneration.support_analysis(cfg, X, cap_seconds=120)
            ok = (
                not rep.aborted
                and rep.delta == 1
                and rep.star_like
                and all(primary for (_v, primary) in rep.minimal_support)
            )
            outcomes.append({"seed": seed, "curve": label, "ok": ok, "delta": rep.delta})
            ctx["c8_reports"].append((seed, label, degree, rep))
    fails = [o for o in outcomes if not o["ok"]]
    allowed = 0 if quick else 2  # one failure allowed per ten for each curve kind
    passed = len(fails) <= allowed
    return _result(
        8,
        "plane curve degenerations: delta=1, star-like",
        passed,
        {"outcomes": outcomes, "failures": len(fails)},
    )


# ---------------------------------------------------------------------------
# criterion 9: Borel-fixedness


def criterion_9(ctx, quick=False):
    checks = {}
    exp = varieties.expected_fibre_d4(FIELD)
    checks["expected_fibre_d4"] = varieties.borel_fixed_check(exp, 4, 3)
    for n in (2, 3):
        inter = varieties.expected_intersection(3, n, FIELD)
        checks[f"d=3 n={n} intersection"] = varieties.borel_fixed_check(inter, 3, n)
    negative = varieties.Ideal(
        [MPoly.var(varieties.fibre_universe(2, 1), FIELD, "x[2][0]")]
    )
    checks["negative control"] = not varieties.borel_fixed_check(negative, 2, 1)
    return _result(9, "Borel-fixedness", all(checks.values()), checks)


# ---------------------------------------------------------------------------
# criterion 10: Chow component bound


def criterion_10(ctx, quick=False):
    if "c8_reports" not in ctx:
        criterion_8(ctx, quick=True)
    failures = []
    hand = {1: 3, 2: 6}
    for seed, label, degree, rep in ctx["c8_reports"]:
        bound = degeneration.chow_component_bound(3, 2, 1, degree)
        if bound != hand[degree]:
            failures.append(f"bound({degree}) = {bound} != {hand[degree]}")
        fired = sum(1 for (_v, primary) in rep.minimal_support if primary)
        if rep.delta is not None and fired > bound:
            failures.append(f"seed {seed} {label}: fired {fired} > bound {bound}")
    return _result(
        10,
        "Chow component bound",
        not failures,
        {"failures": failures[:5], "reports": len(ctx["c8_reports"])},
    )


# ---------------------------------------------------------------------------
# criterion 11: determinism


def criterion_11(ctx, quick=False):
    def one_round():
        cfg = varieties.random_config(3, 2, (1, 2), FIELD, seed=17)
        rep = varieties.conjecture_check(cfg, "both-containments")
        pipe = varieties.minor_pipeline_d4(
            varieties.random_config(4, 3, (1, 3, 7), FIELD, seed=17)
        )
        fibre = varieties.special_fibre(cfg)
        return json.dumps(
            {
                "conjecture": rep.to_dict(),
                "pipeline": pipe.to_dict(),
                "fibre": sorted(g.text() for g in fibre.generators),
            },
            sort_keys=True,
        )

    a, b = one_round(), one_round()
    trace_a: list = []
    trace_b: list = []
    cfg = varieties.random_config(3, 2, (1, 2), FIELD, seed=23)
    I = varieties.minors_ideal(cfg)
    worder = WeightedPiOrder(cfg.weights, I.universe.index("pi"))
    buchberger(list(I.generators), worder, sat_var=I.universe.index("pi"), trace_log=trace_a)
    buchberger(list(I.generators), worder, sat_var=I.universe.index("pi"), trace_log=trace_b)
    # fresh interpreters with distinct hash seeds must also agree byte for byte
    import os
    import subprocess
    import sys
    import tempfile

    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(
                {
                    "d": 3,
                    "n": 2,
                    "n_vec": [1, 2],
                    "field": {"Fp": DEFAULT_PRIME},
                    "entries": "random",
                    "seed": 17,
                },
                fh,
            )
        # the fresh interpreters import this package from where it was imported
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
        for k, hash_seed in enumerate(("1", "2")):
            out_path = os.path.join(tmp, f"rep{k}.json")
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "from mustafin.cli import mustafin_group; mustafin_group()",
                    "conjecture",
                    "--config",
                    cfg_path,
                    "--trials",
                    "2",
                    "--out",
                    out_path,
                ],
                env=env,
                capture_output=True,
            )
            if proc.returncode != 0:
                return _result(
                    11, "byte-identical reruns", False,
                    {"subprocess": proc.stderr.decode()[:500]},
                )
            with open(out_path, "rb") as fh:
                outs.append(fh.read())
    passed = a == b and trace_a == trace_b and outs[0] == outs[1]
    return _result(
        11,
        "byte-identical reruns",
        passed,
        {
            "report_bytes": len(a),
            "trace_lines": len(trace_a),
            "cli_report_bytes": len(outs[0]),
        },
    )


# ---------------------------------------------------------------------------


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run_all(quick=False, criteria=None, echo=None):
    ctx: dict = {}
    results = []
    for num in sorted(CRITERIA):
        if criteria and num not in criteria:
            continue
        res = CRITERIA[num](ctx, quick=quick)
        results.append(res)
        if echo:
            status = "PASS" if res["passed"] else "FAIL"
            echo(f"criterion {num:2d} [{status}] {res['name']}")
    return {
        "quick": quick,
        "results": results,
        "all_passed": all(r["passed"] for r in results),
    }
