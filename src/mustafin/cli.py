"""Command-line entry points.

Five top-level commands are installed: ``mustafin`` (fibre, conjecture,
pipeline, borel), ``degen`` (model, fibre, support, bound), ``spec``
(obstructions, check, sample), ``syz`` (admissible) and ``suite``
(acceptance).  All input and output is JSON; polynomial strings use the
canonical grammar, so reports can be fed back in as inputs.

Reports are byte-identical across reruns with the same inputs and seeds;
wall-clock timing is only embedded with --timing.  Exit codes: 0 for a
passing verdict, 1 for a failing one, 2 for usage or configuration errors.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time

import click

from .coeffs import DEFAULT_PRIME, DomainError, base_field
from .groebner import ResourceCapExceeded
from . import varieties
from . import degeneration
from . import specialize as spec_mod
from . import syzygy as syz_mod
from .polyring import parse_poly


def _resolve_field(field_flag, config_data):
    if field_flag:
        if field_flag == "Q":
            return "Q"
        return {"Fp": int(field_flag)}
    if config_data and "field" in config_data:
        return config_data["field"]
    env = os.environ.get("MUSTAFIN_FP")
    if env:
        return {"Fp": int(env)}
    return {"Fp": DEFAULT_PRIME}


def _load_json(path, what="config"):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SystemExit(_usage_error(f"{what} file not found: {path}"))
    except json.JSONDecodeError as exc:
        raise SystemExit(
            _usage_error(
                f"malformed {what} {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            )
        )


def _usage_error(message):
    click.echo(f"error: {message}", err=True)
    return 2


def _emit(report: dict, out_path, *, timing=None):
    if timing is not None:
        report = dict(report)
        report["timing_seconds"] = timing
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _capped(cfg, exc, out_path):
    """Report a run stopped by ``--cap-seconds``; returns exit code 1."""
    click.echo(f"error: resource cap exceeded: {exc}", err=True)
    _emit({"config": cfg.to_dict(), "verdict": "resource-capped", "detail": str(exc)}, out_path)
    return 1


def _apply_mem_cap(cap_mb):
    if not cap_mb:
        return
    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (cap_mb << 20, cap_mb << 20))
    except (ImportError, ValueError, OSError):  # pragma: no cover
        click.echo("warning: memory cap not supported on this platform", err=True)


def _config_from_flags(config_path, field_flag, seed):
    data = _load_json(config_path) if config_path else None
    if data is None:
        raise SystemExit(_usage_error("--config is required"))
    data = dict(data)
    data["field"] = _resolve_field(field_flag, data)
    if seed is not None and data.get("entries") == "random":
        data["seed"] = seed
    try:
        return varieties.LatticeConfig.from_dict(data), data
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(_usage_error(f"bad configuration: {exc}"))


_common = [
    click.option("--config", "config_path", type=click.Path(), help="JSON configuration"),
    click.option("--seed", type=int, default=None, help="base random seed"),
    click.option("--trials", type=click.IntRange(min=0), default=1, show_default=True),
    click.option("--field", "field_flag", default=None, help='"Q" or a prime'),
    click.option("--out", "out_path", type=click.Path(), default=None),
    click.option("--cap-seconds", type=float, default=None),
    click.option("--cap-mb", type=int, default=None),
    click.option("--jobs", type=int, default=None, help="worker processes for batches"),
    click.option("--timing", is_flag=True, default=False, help="embed wall-clock times"),
    click.option("--verbose", is_flag=True, default=False),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


# ---------------------------------------------------------------------------
# mustafin group


@click.group(name="mustafin")
def mustafin_group():
    """Mustafin varieties: fibres, decomposition checks, the d=4 pipeline."""


def _conjecture_trial(payload):
    data, mode, cap = payload
    cfg = varieties.LatticeConfig.from_dict(data)
    rep = varieties.conjecture_check(cfg, mode, cap_seconds=cap)
    return rep.to_dict()


@mustafin_group.command("fibre")
@_with_common
def mustafin_fibre(config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Ideal of the special fibre of the configured Mustafin variety."""
    _apply_mem_cap(cap_mb)
    cfg, data = _config_from_flags(config_path, field_flag, seed)
    t0 = time.monotonic()
    trace = [] if verbose else None
    try:
        fibre = varieties.special_fibre(cfg, cap_seconds=cap_seconds, trace_log=trace)
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(cfg, exc, out_path))
    if trace:
        for line in trace:
            click.echo(line, err=True)
    report = {
        "config": cfg.to_dict(),
        "generators": sorted(g.text() for g in fibre.generators),
        "verdict": "pass",
    }
    _emit(report, out_path, timing=time.monotonic() - t0 if timing else None)


@mustafin_group.command("conjecture")
@click.option("--mode", type=click.Choice(["both-containments", "forward-only"]), default="both-containments", show_default=True)
@_with_common
def mustafin_conjecture(mode, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Check the fibre decomposition on one or many seeded configurations."""
    _apply_mem_cap(cap_mb)
    cfg, data = _config_from_flags(config_path, field_flag, seed)
    base_seed = cfg.seed if cfg.seed is not None else 0
    t0 = time.monotonic()
    if trials == 0:
        _emit(
            {
                "config": cfg.to_dict(),
                "mode": mode,
                "trials": [],
                "pass_rate": None,
                "failing_seeds": [],
                "capped_seeds": [],
                "verdict": "pass",
            },
            out_path,
        )
        raise SystemExit(0)
    if data.get("entries") == "random" and trials > 1:
        payloads = []
        for k in range(trials):
            d2 = dict(data)
            d2["seed"] = base_seed + k
            payloads.append((d2, mode, cap_seconds))
        if jobs and jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_conjecture_trial, payloads))
        else:
            results = [_conjecture_trial(p) for p in payloads]
    else:
        results = [_conjecture_trial((data, mode, cap_seconds))]
    completed = [r for r in results if not r["capped"]]
    passes = [r for r in completed if r["equal"]]
    report = {
        "config": cfg.to_dict(),
        "mode": mode,
        "trials": results,
        "pass_rate": (len(passes) / len(completed)) if completed else None,
        "failing_seeds": [r["seed"] for r in completed if not r["equal"]],
        "capped_seeds": [r["seed"] for r in results if r["capped"]],
        "verdict": "pass" if completed and len(passes) == len(completed) else "fail",
    }
    _emit(report, out_path, timing=time.monotonic() - t0 if timing else None)
    raise SystemExit(0 if report["verdict"] == "pass" else 1)


def _pipeline_trial(payload):
    data, = payload
    cfg = varieties.LatticeConfig.from_dict(data)
    return varieties.minor_pipeline_d4(cfg).to_dict()


@mustafin_group.command("pipeline")
@_with_common
def mustafin_pipeline(config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Replay the d=4 minor combination pipeline with stage checks."""
    _apply_mem_cap(cap_mb)
    cfg, data = _config_from_flags(config_path, field_flag, seed)
    base_seed = cfg.seed if cfg.seed is not None else 0
    t0 = time.monotonic()
    payloads = []
    if data.get("entries") == "random" and trials > 1:
        for k in range(trials):
            d2 = dict(data)
            d2["seed"] = base_seed + k
            payloads.append((d2,))
    else:
        payloads.append((data,))
    try:
        if jobs and jobs > 1 and len(payloads) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_pipeline_trial, payloads))
        else:
            results = [_pipeline_trial(p) for p in payloads]
    except DomainError as exc:
        raise SystemExit(_usage_error(str(exc)))
    ok = [r for r in results if r["ok"]]
    report = {
        "config": cfg.to_dict(),
        "trials": results,
        "pass_rate": len(ok) / len(results),
        "failing_seeds": [r["seed"] for r in results if not r["ok"]],
        "verdict": "pass" if len(ok) == len(results) else "fail",
    }
    _emit(report, out_path, timing=time.monotonic() - t0 if timing else None)
    raise SystemExit(0 if report["verdict"] == "pass" else 1)


@mustafin_group.command("borel")
@_with_common
def mustafin_borel(config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Borel-fixedness of the expected fibre ideal for the configured d, n."""
    _apply_mem_cap(cap_mb)
    cfg, data = _config_from_flags(config_path, field_flag, seed)
    inter = varieties.expected_intersection(cfg.d, cfg.n, cfg.field)
    ok = varieties.borel_fixed_check(inter, cfg.d, cfg.n)
    report = {
        "config": cfg.to_dict(),
        "generators": sorted(g.text() for g in inter.generators),
        "borel_fixed": ok,
        "verdict": "pass" if ok else "fail",
    }
    if cfg.d == 4 and cfg.n == 3:
        exp = varieties.expected_fibre_d4(3, cfg.field)
        report["explicit_family_matches"] = sorted(
            g.text() for g in exp.generators
        ) == sorted(g.text() for g in inter.generators)
    _emit(report, out_path)
    raise SystemExit(0 if ok else 1)


# ---------------------------------------------------------------------------
# degen group


@click.group(name="degen")
def degen_group():
    """Mustafin degenerations of embedded subvarieties."""


def _load_curve(curve_path, cfg):
    if not curve_path:
        raise SystemExit(_usage_error("--curve is required"))
    payload = _load_json(curve_path, "curve")
    try:
        return degeneration.SubvarietyInput.from_strings(
            payload["generators"],
            int(payload.get("dim", payload.get("dimX", 1))),
            int(payload.get("degree", payload.get("degX", 1))),
            cfg.d,
            cfg.field,
        )
    except (DomainError, KeyError) as exc:
        raise SystemExit(_usage_error(f"bad curve file: {exc}"))


_curve_opt = click.option("--curve", "curve_path", type=click.Path(), required=False)


@degen_group.command("model")
@_curve_opt
@_with_common
def degen_model(curve_path, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Integral model ideal of the subvariety (pi-saturated)."""
    _apply_mem_cap(cap_mb)
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    X = _load_curve(curve_path, cfg)
    try:
        model = degeneration.integral_model(
            degeneration.model_ideal(cfg, X, cap_seconds=cap_seconds),
            cap_seconds=cap_seconds,
        )
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(cfg, exc, out_path))
    _emit(
        {
            "config": cfg.to_dict(),
            "generators": sorted(g.text() for g in model.generators),
            "verdict": "pass",
        },
        out_path,
    )


@degen_group.command("fibre")
@_curve_opt
@_with_common
def degen_fibre(curve_path, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Special fibre of the model of the subvariety."""
    _apply_mem_cap(cap_mb)
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    X = _load_curve(curve_path, cfg)
    try:
        fib = degeneration.special_fibre_of_model(cfg, X, cap_seconds=cap_seconds)
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(cfg, exc, out_path))
    _emit(
        {
            "config": cfg.to_dict(),
            "generators": sorted(g.text() for g in fib.generators),
            "verdict": "pass",
        },
        out_path,
    )


@degen_group.command("support")
@_curve_opt
@_with_common
def degen_support(curve_path, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Stratification level (delta) and star-likeness of the fibre."""
    _apply_mem_cap(cap_mb)
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    X = _load_curve(curve_path, cfg)
    try:
        rep = degeneration.support_analysis(cfg, X, cap_seconds=cap_seconds)
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(cfg, exc, out_path))
    report = {"config": cfg.to_dict(), **rep.to_dict()}
    report["verdict"] = "pass" if rep.delta is not None and not rep.aborted else "fail"
    _emit(report, out_path)
    raise SystemExit(0 if report["verdict"] == "pass" else 1)


@degen_group.command("bound")
@_curve_opt
@click.option("--dim", "dim_flag", type=int, default=None)
@click.option("--deg", "deg_flag", type=int, default=None)
@_with_common
def degen_bound(curve_path, dim_flag, deg_flag, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Upper bound for the number of irreducible fibre components."""
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    if curve_path:
        X = _load_curve(curve_path, cfg)
        dim_x, deg_x = X.dim, X.degree
    elif dim_flag is not None and deg_flag is not None:
        dim_x, deg_x = dim_flag, deg_flag
    else:
        raise SystemExit(_usage_error("need --curve or both --dim and --deg"))
    bound = degeneration.chow_component_bound(cfg.d, cfg.n, dim_x, deg_x)
    _emit(
        {
            "config": cfg.to_dict(),
            "dim": dim_x,
            "degree": deg_x,
            "bound": bound,
            "verdict": "pass",
        },
        out_path,
    )


# ---------------------------------------------------------------------------
# spec group


@click.group(name="spec")
def spec_group():
    """Parametric specialization of Groebner bases."""


def _symbolic_minors(cfg):
    sym = varieties.LatticeConfig(
        cfg.d, cfg.n, cfg.n_vec, cfg.field, "symbolic", seed=cfg.seed
    )
    I = varieties.minors_ideal(sym)
    from .polyring import MPoly

    pi = MPoly.var(I.universe, sym.field, "pi")
    return list(I.generators), pi


def _gens_from_payload(payload, field):
    from .polyring import VarUniverse

    dom = base_field(field)
    uni = VarUniverse(tuple(payload["variables"]))
    gens = [parse_poly(t, uni, dom) for t in payload["generators"]]
    elem = parse_poly(payload.get("element", "pi"), uni, dom)
    return gens, elem, uni, dom


@spec_group.command("obstructions")
@click.option("--gens", "gens_path", type=click.Path(), default=None, help="JSON {variables, generators, element}")
@click.option("--cap", "cap_seconds2", type=float, default=None)
@_with_common
def spec_obstructions(gens_path, cap_seconds2, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Unit and nonzero conditions for specializing a saturating basis."""
    _apply_mem_cap(cap_mb)
    cap = cap_seconds2 or cap_seconds
    if gens_path:
        payload = _load_json(gens_path, "generators")
        gens, elem, _uni, _dom = _gens_from_payload(payload, _resolve_field(field_flag, payload))
        shape = None
    else:
        cfg, _ = _config_from_flags(config_path, field_flag, seed)
        if cfg.d > 3 or cfg.n > 2:
            raise SystemExit(
                _usage_error("symbolic runs are capped at d<=3, n<=2; larger cases are certified statistically (see `spec check`)")
            )
        gens, elem = _symbolic_minors(cfg)
        shape = (cfg.d, cfg.n)
    obs = spec_mod.obstruction_polynomials(gens, elem, cap_seconds=cap)
    report = {"shape": list(shape) if shape else None, **obs.texts(), "verdict": "pass" if not obs.incomplete else "incomplete"}
    _emit(report, out_path)
    raise SystemExit(0 if not obs.incomplete else 1)


@spec_group.command("check")
@click.option("--gens", "gens_path", type=click.Path(), required=True)
@click.option("--assignment", "assignment_path", type=click.Path(), default=None)
@click.option("--cap", "cap_seconds2", type=float, default=None)
@_with_common
def spec_check(gens_path, assignment_path, cap_seconds2, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Verify a concrete specialization of a symbolic saturating basis."""
    _apply_mem_cap(cap_mb)
    payload = _load_json(gens_path, "generators")
    fld = _resolve_field(field_flag, payload)
    gens, elem, uni, dom = _gens_from_payload(payload, fld)
    if assignment_path:
        from .coeffs import PiRing

        raw = _load_json(assignment_path, "assignment")
        ring = PiRing(dom)
        assignment = {k: ring.parse(v) for k, v in raw.items()}
    else:
        params = sorted({n for n in uni.names if n.startswith("A[")})
        import random as _random

        rng = _random.Random(("cli-check", seed or 0).__repr__())
        assignment = {p: dom.random(rng) for p in params}
    obs = spec_mod.obstruction_polynomials(gens, elem, cap_seconds=cap_seconds2 or cap_seconds)
    rep = spec_mod.check_specialization(
        gens, elem, assignment, obstructions=obs, cap_seconds=cap_seconds2 or cap_seconds
    )
    report = {"assignment": {k: str(v) for k, v in sorted(assignment.items())}, **rep.to_dict()}
    report["verdict"] = "pass" if rep.ok else "fail"
    _emit(report, out_path)
    raise SystemExit(0 if rep.ok else 1)


@spec_group.command("sample")
@click.option("--obstructions", "obs_path", type=click.Path(), default=None)
@click.option("--cap", "max_attempts", type=int, default=200, show_default=True)
@_with_common
def spec_sample(obs_path, max_attempts, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Sample a generic parameter assignment for the configured shape."""
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    obs = None
    if obs_path:
        payload = _load_json(obs_path, "obstructions")
        sym = varieties.LatticeConfig(cfg.d, cfg.n, cfg.n_vec, cfg.field, "symbolic")
        uni = sym.universe()
        obs = spec_mod.ObstructionSet(
            [parse_poly(t, uni, cfg.field) for t in payload.get("unit_conditions", [])],
            [parse_poly(t, uni, cfg.field) for t in payload.get("nonzero_conditions", [])],
        )
    try:
        rep = spec_mod.generic_sample(
            seed if seed is not None else 0,
            cfg.field,
            (cfg.d, cfg.n),
            obs,
            max_attempts=max_attempts,
        )
    except DomainError as exc:
        _emit({"verdict": "fail", "detail": str(exc)}, out_path)
        raise SystemExit(1)
    _emit({**rep.to_dict(), "verdict": "pass"}, out_path)


# ---------------------------------------------------------------------------
# syz group


@click.group(name="syz")
def syz_group():
    """Syzygy-bundle admissibility certificates."""


@syz_group.command("admissible")
@click.option("--data", "data_path", type=click.Path(), required=True, help="JSON {rho, degrees, witnesses}")
@_with_common
def syz_admissible(data_path, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Membership checks plus the substituted tuple for a syzygy datum."""
    _apply_mem_cap(cap_mb)
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    payload = _load_json(data_path, "data")
    try:
        datum = syz_mod.parse_datum(payload, cfg)
        admissible, sections = syz_mod.admissibility_certificate(datum, cfg)
    except DomainError as exc:
        raise SystemExit(_usage_error(str(exc)))
    report = {
        "config": cfg.to_dict(),
        "admissible": admissible,
        "sections": [
            {"poly": h.text(), "pi_power": e} for (h, e) in sections
        ],
        "verdict": "pass" if admissible else "fail",
    }
    _emit(report, out_path)
    raise SystemExit(0 if admissible else 1)


# ---------------------------------------------------------------------------
# suite group


@click.group(name="suite")
def suite_group():
    """Verification suites."""


@suite_group.command("acceptance")
@click.option("--quick", is_flag=True, default=False, help="reduced trial counts")
@click.option("--criteria", default=None, help="comma-separated subset, e.g. 1,2,5")
@_with_common
def suite_acceptance(quick, criteria, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing, verbose):
    """Run the acceptance criteria and print one line per criterion."""
    _apply_mem_cap(cap_mb)
    from . import acceptance

    wanted = None
    if criteria:
        wanted = {int(c) for c in criteria.split(",")}
    report = acceptance.run_all(quick=quick, criteria=wanted, echo=click.echo)
    _emit(report, out_path)
    raise SystemExit(0 if report["all_passed"] else 1)
