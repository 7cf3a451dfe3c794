"""Command-line entry points.

Five top-level commands are installed: ``mustafin`` (fibre, conjecture,
pipeline, borel), ``degen`` (model, fibre, support, bound), ``spec``
(obstructions, check, sample), ``syz`` (admissible) and ``suite``
(acceptance).  All input and output is JSON; polynomial strings use the
canonical grammar, so reports can be fed back in as inputs.

Each command takes only the options it reads (the README lists them per
command); any other option is a usage error.  --trials and --jobs exist
only on the batch commands ``conjecture`` and ``pipeline``, whose trials go
through one seeded runner; --jobs > 1 spreads them over worker processes.
--timing exists on ``mustafin fibre|conjecture|pipeline`` and --verbose on
``mustafin fibre``.

Reports are byte-identical across reruns with the same inputs and seeds;
wall-clock timing is only embedded with --timing.  Exit codes: 0 for a
passing verdict, 1 for a failing one (or a run stopped by its resource
cap), 2 for usage or configuration errors.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time

import click

from .coeffs import DEFAULT_PRIME, DomainError, base_field
from .groebner import Deadline, ResourceCapExceeded
from . import varieties
from . import degeneration
from . import specialize as spec_mod
from . import syzygy as syz_mod
from .polyring import DegRevLex, default_order, parse_poly


def _resolve_field(field_flag, config_data):
    if field_flag:
        if field_flag == "Q":
            return "Q"
        return {"Fp": _integer(field_flag, "--field")}
    if config_data and "field" in config_data:
        return config_data["field"]
    env = os.environ.get("MUSTAFIN_FP")
    if env:
        return {"Fp": _integer(env, "MUSTAFIN_FP")}
    return {"Fp": DEFAULT_PRIME}


def _integer(text, what):
    """``text`` as an int; anything else is a usage error naming ``what``."""
    try:
        return int(text)
    except ValueError:
        raise SystemExit(_usage_error(f"{what} expects an integer, got {text!r}"))


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


def _capped(exc, out_path, **context):
    """Report a run stopped by its time cap, with the ``context`` entries
    (such as the config) in the report; returns exit code 1."""
    click.echo(f"error: resource cap exceeded: {exc}", err=True)
    report = {**context, "verdict": "resource-capped", "detail": str(exc)}
    if exc.phase:
        report["phase"] = exc.phase
    _emit(report, out_path)
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


_OPTIONS = {
    "config": click.option("--config", "config_path", type=click.Path(), help="JSON configuration"),
    "seed": click.option("--seed", type=int, default=None, help="base random seed"),
    "trials": click.option("--trials", type=click.IntRange(min=0), default=1, show_default=True),
    "field": click.option("--field", "field_flag", default=None, help='"Q" or a prime'),
    "out": click.option("--out", "out_path", type=click.Path(), default=None),
    "cap-seconds": click.option("--cap-seconds", type=float, default=None, help="time cap"),
    "cap-mb": click.option("--cap-mb", type=int, default=None, help="address-space cap"),
    "jobs": click.option("--jobs", type=int, default=None, help="worker processes for trials"),
    "timing": click.option("--timing", is_flag=True, default=False, help="embed wall-clock times"),
    "verbose": click.option("--verbose", is_flag=True, default=False, help="engine trace on stderr"),
}


def _options(*names):
    """Attach the named shared options; a command lists only those it reads."""

    def attach(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn

    return attach


def _trial(payload):
    """One trial, in this process or in a worker: (check, config data,
    keyword arguments) -> the check's report as a dict."""
    check, data, kwargs = payload
    return check(varieties.LatticeConfig.from_dict(data), **kwargs).to_dict()


def _run_trials(check, cfg, data, trials, jobs, **kwargs):
    """Run ``check`` on ``trials`` configurations: seeds cfg.seed,
    cfg.seed + 1, ... when the entries are random and trials > 1, else the
    configuration as given (none for trials = 0); ``jobs`` > 1 spreads them
    over worker processes."""
    if data.get("entries") == "random" and trials > 1:
        base_seed = cfg.seed if cfg.seed is not None else 0
        datas = [{**data, "seed": base_seed + k} for k in range(trials)]
    else:
        datas = [data][:trials]
    payloads = [(check, d, kwargs) for d in datas]
    try:
        if jobs and jobs > 1 and len(payloads) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(_trial, payloads))
        return [_trial(p) for p in payloads]
    except DomainError as exc:
        raise SystemExit(_usage_error(str(exc)))


# ---------------------------------------------------------------------------
# mustafin group


@click.group(name="mustafin")
def mustafin_group():
    """Mustafin varieties: fibres, decomposition checks, the d=4 pipeline."""


@mustafin_group.command("fibre")
@_options("config", "seed", "field", "out", "cap-seconds", "cap-mb", "timing", "verbose")
def mustafin_fibre(config_path, seed, field_flag, out_path, cap_seconds, cap_mb, timing, verbose):
    """Ideal of the special fibre of the configured Mustafin variety."""
    _apply_mem_cap(cap_mb)
    cfg, data = _config_from_flags(config_path, field_flag, seed)
    t0 = time.monotonic()
    trace = [] if verbose else None
    try:
        fibre = varieties.special_fibre(cfg, cap_seconds=cap_seconds, trace_log=trace)
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(exc, out_path, config=cfg.to_dict()))
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
@_options("config", "seed", "trials", "field", "out", "cap-seconds", "cap-mb", "jobs", "timing")
def mustafin_conjecture(mode, config_path, seed, trials, field_flag, out_path, cap_seconds, cap_mb, jobs, timing):
    """Check the fibre decomposition on one or many seeded configurations."""
    _apply_mem_cap(cap_mb)
    cfg, data = _config_from_flags(config_path, field_flag, seed)
    t0 = time.monotonic()
    results = _run_trials(
        varieties.conjecture_check, cfg, data, trials, jobs, mode=mode, cap_seconds=cap_seconds
    )
    completed = [r for r in results if not r["capped"]]
    passes = [r for r in completed if r["equal"]]
    report = {
        "config": cfg.to_dict(),
        "mode": mode,
        "trials": results,
        "pass_rate": (len(passes) / len(completed)) if completed else None,
        "failing_seeds": [r["seed"] for r in completed if not r["equal"]],
        "capped_seeds": [r["seed"] for r in results if r["capped"]],
        # no trials at all pass vacuously; only capped trials do not
        "verdict": "pass" if len(passes) == len(completed) and (completed or not results) else "fail",
    }
    _emit(report, out_path, timing=time.monotonic() - t0 if timing else None)
    raise SystemExit(0 if report["verdict"] == "pass" else 1)


@mustafin_group.command("pipeline")
@_options("config", "seed", "trials", "field", "out", "cap-mb", "jobs", "timing")
def mustafin_pipeline(config_path, seed, trials, field_flag, out_path, cap_mb, jobs, timing):
    """Replay the d=4 minor combination pipeline with stage checks."""
    _apply_mem_cap(cap_mb)
    cfg, data = _config_from_flags(config_path, field_flag, seed)
    t0 = time.monotonic()
    results = _run_trials(varieties.minor_pipeline_d4, cfg, data, trials, jobs)
    ok = [r for r in results if r["ok"]]
    report = {
        "config": cfg.to_dict(),
        "trials": results,
        "pass_rate": len(ok) / len(results) if results else None,
        "failing_seeds": [r["seed"] for r in results if not r["ok"]],
        "verdict": "pass" if len(ok) == len(results) else "fail",
    }
    _emit(report, out_path, timing=time.monotonic() - t0 if timing else None)
    raise SystemExit(0 if report["verdict"] == "pass" else 1)


@mustafin_group.command("borel")
@_options("config", "seed", "field", "out", "cap-mb")
def mustafin_borel(config_path, seed, field_flag, out_path, cap_mb):
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
        exp = varieties.expected_fibre_d4(cfg.field)
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
        dim, degree = payload["dim"], payload["degree"]
        if type(dim) is not int or type(degree) is not int:
            raise TypeError(f"dim and degree must be integers, not {dim!r} and {degree!r}")
        return degeneration.SubvarietyInput.from_strings(
            payload["generators"], dim, degree, cfg.d, cfg.field
        )
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(_usage_error(f"bad curve file: {exc}"))


_curve_opt = click.option("--curve", "curve_path", type=click.Path(), required=False)


@degen_group.command("model")
@_curve_opt
@_options("config", "seed", "field", "out", "cap-seconds", "cap-mb")
def degen_model(curve_path, config_path, seed, field_flag, out_path, cap_seconds, cap_mb):
    """Integral model ideal of the subvariety (pi-saturated), as its reduced
    basis under the grevlex-pi-last order."""
    _apply_mem_cap(cap_mb)
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    X = _load_curve(curve_path, cfg)
    deadline = Deadline(cap_seconds)
    try:
        model = deadline.run("model", degeneration.model_ideal, cfg, X)
        basis = deadline.run("model", model.groebner_basis, default_order(model.universe))
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(exc, out_path, config=cfg.to_dict()))
    _emit(
        {
            "config": cfg.to_dict(),
            "generators": sorted(g.text() for g in basis),
            "verdict": "pass",
        },
        out_path,
    )


@degen_group.command("fibre")
@_curve_opt
@_options("config", "seed", "field", "out", "cap-seconds", "cap-mb")
def degen_fibre(curve_path, config_path, seed, field_flag, out_path, cap_seconds, cap_mb):
    """Special fibre of the model of the subvariety, as its reduced
    degrevlex basis."""
    _apply_mem_cap(cap_mb)
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    X = _load_curve(curve_path, cfg)
    try:
        fib = degeneration.special_fibre_of_model(cfg, X, cap_seconds=cap_seconds)
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(exc, out_path, config=cfg.to_dict()))
    _emit(
        {
            "config": cfg.to_dict(),
            "generators": sorted(g.text() for g in fib.groebner_basis(DegRevLex())),
            "verdict": "pass",
        },
        out_path,
    )


@degen_group.command("support")
@_curve_opt
@_options("config", "seed", "field", "out", "cap-seconds", "cap-mb")
def degen_support(curve_path, config_path, seed, field_flag, out_path, cap_seconds, cap_mb):
    """Stratification level (delta) and star-likeness of the fibre."""
    _apply_mem_cap(cap_mb)
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    X = _load_curve(curve_path, cfg)
    try:
        rep = degeneration.support_analysis(cfg, X, cap_seconds=cap_seconds)
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(exc, out_path, config=cfg.to_dict()))
    report = {"config": cfg.to_dict(), **rep.to_dict()}
    report["verdict"] = "pass" if rep.delta is not None and not rep.aborted else "fail"
    _emit(report, out_path)
    raise SystemExit(0 if report["verdict"] == "pass" else 1)


@degen_group.command("bound")
@_curve_opt
@click.option("--dim", "dim_flag", type=int, default=None)
@click.option("--deg", "deg_flag", type=int, default=None)
@_options("config", "seed", "field", "out")
def degen_bound(curve_path, dim_flag, deg_flag, config_path, seed, field_flag, out_path):
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

    try:
        dom = base_field(field)
        uni = VarUniverse(tuple(payload["variables"]))
        gens = [parse_poly(t, uni, dom) for t in payload["generators"]]
        elem = parse_poly(payload.get("element", "pi"), uni, dom)
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(_usage_error(f"bad generators file: {exc}"))
    return gens, elem, uni, dom


@spec_group.command("obstructions")
@click.option("--gens", "gens_path", type=click.Path(), default=None, help="JSON {variables, generators, element}")
@_options("config", "field", "out", "cap-seconds", "cap-mb")
def spec_obstructions(gens_path, config_path, field_flag, out_path, cap_seconds, cap_mb):
    """Unit conditions that certify specializing a saturating basis."""
    _apply_mem_cap(cap_mb)
    if gens_path:
        payload = _load_json(gens_path, "generators")
        gens, elem, _uni, _dom = _gens_from_payload(payload, _resolve_field(field_flag, payload))
        shape = None
    else:
        cfg, _ = _config_from_flags(config_path, field_flag, None)
        gens, elem = _symbolic_minors(cfg)
        shape = (cfg.d, cfg.n)
    obs = spec_mod.obstruction_polynomials(gens, elem, cap_seconds=cap_seconds)
    report = {"shape": list(shape) if shape else None, **obs.texts(), "verdict": "pass" if not obs.incomplete else "incomplete"}
    _emit(report, out_path)
    raise SystemExit(0 if not obs.incomplete else 1)


@spec_group.command("check")
@click.option("--gens", "gens_path", type=click.Path(), required=True)
@click.option("--assignment", "assignment_path", type=click.Path(), default=None)
@_options("seed", "field", "out", "cap-seconds", "cap-mb")
def spec_check(gens_path, assignment_path, seed, field_flag, out_path, cap_seconds, cap_mb):
    """Verify a concrete specialization of a symbolic saturating basis."""
    _apply_mem_cap(cap_mb)
    payload = _load_json(gens_path, "generators")
    fld = _resolve_field(field_flag, payload)
    gens, elem, uni, dom = _gens_from_payload(payload, fld)
    if assignment_path:
        from .coeffs import PiRing

        raw = _load_json(assignment_path, "assignment")
        ring = PiRing(dom)
        try:
            assignment = {k: ring.parse(v) for k, v in raw.items()}
        except (AttributeError, DomainError, TypeError, ValueError) as exc:
            raise SystemExit(_usage_error(f"bad assignment file: {exc}"))
    else:
        params = sorted({n for n in uni.names if n.startswith("A[")})
        import random as _random

        rng = _random.Random(("cli-check", seed or 0).__repr__())
        assignment = {p: dom.random(rng) for p in params}
    shown = {k: str(v) for k, v in sorted(assignment.items())}
    deadline = Deadline(cap_seconds)
    try:
        obs = deadline.run("obstructions", spec_mod.obstruction_polynomials, gens, elem)
        if obs.incomplete:
            raise deadline.exceeded("obstructions")
        rep = deadline.run(
            "check", spec_mod.check_specialization, gens, elem, assignment, obstructions=obs
        )
    except ResourceCapExceeded as exc:
        raise SystemExit(_capped(exc, out_path, assignment=shown))
    report = {"assignment": shown, **rep.to_dict()}
    report["verdict"] = "pass" if rep.ok else "fail"
    _emit(report, out_path)
    raise SystemExit(0 if rep.ok else 1)


@spec_group.command("sample")
@click.option("--obstructions", "obs_path", type=click.Path(), default=None)
@click.option("--cap", "max_attempts", type=int, default=200, show_default=True, help="maximum attempts")
@_options("config", "seed", "field", "out")
def spec_sample(obs_path, max_attempts, config_path, seed, field_flag, out_path):
    """Sample a generic parameter assignment for the configured shape."""
    if max_attempts < 1:
        raise SystemExit(_usage_error(f"--cap must be positive, got {max_attempts}"))
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    obs = None
    if obs_path:
        payload = _load_json(obs_path, "obstructions")
        sym = varieties.LatticeConfig(cfg.d, cfg.n, cfg.n_vec, cfg.field, "symbolic")
        uni = sym.universe()
        try:
            obs = spec_mod.ObstructionSet(
                [parse_poly(t, uni, cfg.field) for t in payload.get("unit_conditions", [])]
            )
        except (AttributeError, DomainError, TypeError, ValueError) as exc:
            raise SystemExit(_usage_error(f"bad obstructions file: {exc}"))
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
@_options("config", "seed", "field", "out", "cap-mb")
def syz_admissible(data_path, config_path, seed, field_flag, out_path, cap_mb):
    """Membership checks plus the substituted tuple for a syzygy datum."""
    _apply_mem_cap(cap_mb)
    cfg, _ = _config_from_flags(config_path, field_flag, seed)
    payload = _load_json(data_path, "data")
    try:
        datum = syz_mod.parse_datum(payload, cfg)
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(_usage_error(f"bad data file: {exc}"))
    try:
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
@_options("out", "cap-mb")
def suite_acceptance(quick, criteria, out_path, cap_mb):
    """Run the acceptance criteria and print one line per criterion."""
    _apply_mem_cap(cap_mb)
    from . import acceptance

    wanted = None
    if criteria:
        wanted = {_integer(c, "--criteria") for c in criteria.split(",")}
        unknown = sorted(wanted - set(acceptance.CRITERIA))
        if unknown:
            known = sorted(acceptance.CRITERIA)
            raise SystemExit(_usage_error(f"unknown criteria {unknown}; choose from {known}"))
    report = acceptance.run_all(quick=quick, criteria=wanted, echo=click.echo)
    _emit(report, out_path)
    raise SystemExit(0 if report["all_passed"] else 1)
