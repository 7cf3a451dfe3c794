"""The four benchmark workloads: input generation and item lists.

A workload is a fixed list of items; an item is one verdict.  Each workload
has a ``setup(seed, work)`` that writes or builds its inputs from the seed
alone, and an ``items(inputs)`` that returns fresh ``(name, run)`` pairs for
one pass.  ``run()`` returns ``(ok, canonical)``: whether the verdict obeys
the workload's rule, and a canonical text of the report that the drift
check hashes.  Items of one pass may share state; the next pass starts from
scratch.
"""

from __future__ import annotations

import json
import random

from mustafin import DEFAULT_PRIME, GF, MPoly, PiRing, VarUniverse
from mustafin import acceptance, cli, degeneration, specialize, varieties

FIELD = GF(DEFAULT_PRIME)

# (d, n, n_vec) rungs of the decomposition check; the last one is the
# frontier that ``item_max_s`` follows.  A pass stays near 5 s so that a run
# holds several passes and each rung gets a median over several samples.
LADDER = (
    (3, 4, (1, 2)),
    (3, 5, (1, 2)),
    (4, 3, (1, 3, 7)),
    (4, 4, (1, 3, 7)),
)
CURVE_CONFIGS = 2  # d=3 n=2 configurations, each with a line and a conic
# generic_sample + check_specialization pairs at d=3 n=1, one item each: a
# pair takes about 0.12 s, and ``item_p50_s`` is the median over all of them
SPEC_SAMPLES = 30
SPEC_EXAMPLE_CASES = 10  # passing and as many violating criterion-6 cases
ACCEPTANCE_CRITERIA = (1, 2, 4, 5, 6, 7, 9)


def invoke(group, args) -> int:
    """Run a click command group in-process and return its exit code."""
    try:
        group.main(args, prog_name=group.name, standalone_mode=False)
    except SystemExit as exc:
        return exc.code or 0
    return 0


def _write_json(path, data):
    path.write_text(json.dumps(data, sort_keys=True))
    return path


def _random_config_json(d, n, n_vec, seed):
    return {
        "d": d,
        "n": n,
        "n_vec": list(n_vec),
        "field": {"Fp": DEFAULT_PRIME},
        "entries": "random",
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# decomp_ladder: `mustafin conjecture` once per rung


def setup_decomp_ladder(seed, work):
    return [
        (
            f"d={d} n={n}",
            _write_json(work / f"rung-d{d}-n{n}.json", _random_config_json(d, n, nv, seed)),
            work / f"rung-d{d}-n{n}.out.json",
        )
        for d, n, nv in LADDER
    ]


def items_decomp_ladder(rungs):
    def item(config, out):
        code = invoke(cli.mustafin_group, ["conjecture", "--config", str(config), "--out", str(out)])
        text = out.read_text()
        report = json.loads(text)
        return code == 0 and all(t["equal"] for t in report["trials"]), text

    return [(name, lambda c=config, o=out: item(c, o)) for name, config, out in rungs]


# ---------------------------------------------------------------------------
# curve_support: `degen support` on a line and a conic per configuration


def draw_curve(rng, degree):
    """A random plane line or conic in y[1..3], drawn as criterion 8 does."""
    uni = degeneration.ambient_universe(3)
    ys = [MPoly.var(uni, FIELD, f"y[{l}]") for l in (1, 2, 3)]
    terms = ys if degree == 1 else [ys[i] * ys[j] for i in range(3) for j in range(i, 3)]
    while True:
        f = MPoly.zero(uni, FIELD)
        for term in terms:
            f = f + term.scale(FIELD.random(rng))
        if f and len(f.terms) >= degree + 1:
            return f


def setup_curve_support(seed, work):
    cases = []
    for s in range(seed, seed + CURVE_CONFIGS):
        config = _write_json(work / f"curve-config-{s}.json", _random_config_json(3, 2, (1, 2), s))
        rng = random.Random(repr(("c8-curve", s)))
        for degree, label in ((1, "line"), (2, "conic")):
            f = draw_curve(rng, degree)
            curve = _write_json(
                work / f"curve-{s}-{label}.json",
                {"generators": [f.text()], "dim": 1, "degree": degree},
            )
            cases.append((f"seed={s} {label}", config, curve, work / f"curve-{s}-{label}.out.json"))
    return cases


def items_curve_support(cases):
    def item(config, curve, out):
        code = invoke(
            cli.degen_group,
            ["support", "--config", str(config), "--curve", str(curve), "--out", str(out)],
        )
        text = out.read_text()
        rep = json.loads(text)
        ok = (
            code == 0
            and rep["delta"] == 1
            and rep["star_like"]
            and all(v["primary"] for v in rep["minimal_support"])
        )
        return ok, text

    return [(name, lambda c=cfg, v=cv, o=out: item(c, v, o)) for name, cfg, cv, out in cases]


# ---------------------------------------------------------------------------
# spec_certify: obstructions, generic samples and criterion-6 cases


def setup_spec_certify(seed, work):
    sym = varieties.LatticeConfig(3, 1, (1, 2), FIELD, "symbolic")
    minors = varieties.minors_ideal(sym)
    minors_pi = MPoly.var(minors.universe, FIELD, "pi")

    # the two-parameter example of criterion 6: pi*A1*x + A2*y
    uni = VarUniverse(("x", "y", "A[1][1][0]", "A[2][1][0]", "pi"))
    x, y, a1, a2, pi = (MPoly.var(uni, FIELD, v) for v in uni.names)
    example = [pi * a1 * x + a2 * y]

    rng = random.Random(repr(("c6", seed)))
    ring = PiRing(FIELD)

    def nonzero():
        while True:
            c = FIELD.random(rng)
            if not FIELD.is_zero(c):
                return c

    passing = [{"A[1][1][0]": nonzero(), "A[2][1][0]": nonzero()} for _ in range(SPEC_EXAMPLE_CASES)]
    violating = [
        {"A[1][1][0]": nonzero(), "A[2][1][0]": ring.shift((nonzero(),), 1)}
        for _ in range(SPEC_EXAMPLE_CASES)
    ]
    return {
        "minors": list(minors.generators),
        "minors_pi": minors_pi,
        "example": example,
        "example_pi": pi,
        "sample_seeds": list(range(seed, seed + SPEC_SAMPLES)),
        "passing": passing,
        "violating": violating,
    }


def _dump(data):
    return json.dumps(data, sort_keys=True)


def items_spec_certify(inp):
    state = {}

    def obstructions(key, gens, pi):
        obs = specialize.obstruction_polynomials(gens, pi)
        state[key] = obs
        return obs

    def minors_obstructions():
        obs = obstructions("minors", inp["minors"], inp["minors_pi"])
        return not obs.incomplete and bool(obs.unit_conditions), _dump(obs.texts())

    def example_obstructions():
        obs = obstructions("example", inp["example"], inp["example_pi"])
        return "A[2][1][0]" in obs.texts()["unit_conditions"], _dump(obs.texts())

    def sample_and_check(seed):
        obs = state["minors"]
        smp = specialize.generic_sample(seed, FIELD, (3, 1), obs)
        rep = specialize.check_specialization(
            inp["minors"], inp["minors_pi"], smp.assignment, obstructions=obs
        )
        return rep.ok, _dump({"sample": smp.to_dict(), "check": rep.to_dict()})

    def example_cases(assignments, should_pass):
        ok, reports = True, []
        for assignment in assignments:
            rep = specialize.check_specialization(
                inp["example"], inp["example_pi"], assignment, obstructions=state["example"]
            )
            if should_pass:
                ok = ok and rep.ok
            else:
                ok = ok and not rep.ok and "A[2][1][0]" in rep.diagnosis
            reports.append(rep.to_dict())
        return ok, _dump(reports)

    return [
        ("obstructions d=3 n=1", minors_obstructions),
        ("obstructions example", example_obstructions),
        *[(f"sample seed={s}", lambda s=s: sample_and_check(s)) for s in inp["sample_seeds"]],
        ("example passing", lambda: example_cases(inp["passing"], True)),
        ("example violating", lambda: example_cases(inp["violating"], False)),
    ]


# ---------------------------------------------------------------------------
# acceptance_quick: criteria in run_all order, quick mode, one shared context


def setup_acceptance_quick(seed, work):
    # the criteria draw from fixed internal seeds, so --seed does not reach them
    return ACCEPTANCE_CRITERIA


def _strip_timings(value):
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if "seconds" not in k}
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def items_acceptance_quick(criteria):
    ctx: dict = {}

    def item(num):
        # looked up by name on every call so that a traced pass sees the wrapper
        res = getattr(acceptance, f"criterion_{num}")(ctx, quick=True)
        return res["passed"], _dump(_strip_timings(res))

    return [(f"criterion {num}", lambda n=num: item(n)) for num in criteria]


WORKLOADS = {
    "decomp_ladder": (setup_decomp_ladder, items_decomp_ladder),
    "curve_support": (setup_curve_support, items_curve_support),
    "spec_certify": (setup_spec_certify, items_spec_certify),
    "acceptance_quick": (setup_acceptance_quick, items_acceptance_quick),
}
