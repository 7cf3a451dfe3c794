"""Outside-in span recorder for the mustafin layers.

``Recorder.install()`` replaces the public functions of the ``varieties``,
``groebner``, ``degeneration``, ``specialize``, ``acceptance`` and ``cli``
modules, plus ``Ideal.groebner_basis``, with wrappers that record a span
(name, start, end, parent) per call and count engine work at the boundary.
Modules bind names with ``from .groebner import ...``, so every module of
the package that holds the original object gets the wrapper, and
``restore()`` puts every original back.  Nothing inside ``src/`` changes.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  The spans stay in memory until ``dump()``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from mustafin import acceptance, cli, degeneration, groebner, specialize, varieties
from mustafin.groebner import ResourceCapExceeded
from mustafin.polyring import Ideal
from workloads import ACCEPTANCE_CRITERIA

# public functions wrapped per layer; the private linear-algebra oracles of
# criterion 5 are named because they are most of its time
TARGETS = {
    varieties: (
        "random_config",
        "minors_ideal",
        "mustafin_ideal",
        "special_fibre",
        "expected_intersection",
        "conjecture_check",
        "fibre_hilbert_tables",
        "minor_pipeline_d4",
        "expected_fibre_d4",
        "borel_fixed_check",
    ),
    groebner: (
        "buchberger",
        "saturate",
        "interreduce",
        "normal_form",
        "eliminate",
        "radical_membership",
        "intersect_monomial_ideals",
        "hilbert_function",
        "is_groebner",
    ),
    degeneration: ("model_ideal", "integral_model", "special_fibre_of_model", "support_analysis"),
    specialize: ("obstruction_polynomials", "check_specialization", "generic_sample", "subst"),
    acceptance: tuple(f"criterion_{n}" for n in sorted(acceptance.CRITERIA))
    + ("_la_membership", "_zfree_span"),
}
CLI_GROUPS = (cli.mustafin_group, cli.degen_group, cli.spec_group, cli.syz_group, cli.suite_group)
LAYERS = ("varieties", "groebner", "polyring", "degeneration", "specialize", "acceptance", "cli")

# (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    [
        (f"groebner.buchberger.{route}.{field}", unit, better)
        for route in ("satfast", "plain")
        for field, unit, better in (
            ("self_s", "s", "lower"),
            ("pairs", "count", "lower"),
            ("zero_reductions", "count", "lower"),
            ("useful_frac", "ratio", "higher"),
            ("basis_size", "count", "lower"),
        )
    ]
    + [
        ("groebner.buchberger.incremental.self_s", "s", "lower"),
        ("groebner.buchberger.incremental.calls", "count", "lower"),
        ("groebner.buchberger.ring.self_s", "s", "lower"),
        ("groebner.interreduce.self_s", "s", "lower"),
        ("groebner.normal_form.calls", "count", "lower"),
        ("groebner.normal_form.self_s", "s", "lower"),
        ("groebner.intersect_monomial_ideals.self_s", "s", "lower"),
        ("groebner.radical_membership.calls", "count", "lower"),
        ("groebner.radical_membership.true_frac", "ratio", "higher"),
        ("groebner.radical_membership.self_s", "s", "lower"),
        ("groebner.saturate.elim.self_s", "s", "lower"),
        ("groebner.is_groebner.self_s", "s", "lower"),
        ("groebner.eliminate.self_s", "s", "lower"),
        ("groebner.hilbert_function.self_s", "s", "lower"),
        ("groebner.hilbert_function.cells", "count", "lower"),
        ("polyring.Ideal.groebner_basis.calls", "count", "lower"),
        ("polyring.Ideal.groebner_basis.cache_hit_frac", "ratio", "higher"),
        ("varieties.minors_ideal.self_s", "s", "lower"),
        ("varieties.special_fibre.self_s", "s", "lower"),
        ("varieties.expected_intersection.total_s", "s", "lower"),
        ("varieties.conjecture_check.self_s", "s", "lower"),
        ("varieties.fibre_hilbert_tables.total_s", "s", "lower"),
        ("varieties.minor_pipeline_d4.total_s", "s", "lower"),
        ("degeneration.model_ideal.self_s", "s", "lower"),
        ("degeneration.model_ideal.total_s", "s", "lower"),
        ("degeneration.integral_model.total_s", "s", "lower"),
        ("degeneration.special_fibre_of_model.self_s", "s", "lower"),
        ("degeneration.support_analysis.self_s", "s", "lower"),
        ("specialize.obstruction_polynomials.total_s", "s", "lower"),
        ("specialize.check_specialization.self_s", "s", "lower"),
        ("specialize.subst.calls", "count", "lower"),
        ("specialize.subst.self_s", "s", "lower"),
        ("specialize.generic_sample.attempts", "count", "lower"),
    ]
    + [
        (f"acceptance.criterion_{n}.{field}", "s", "lower")
        for n in ACCEPTANCE_CRITERIA
        for field in ("total_s", "self_s")
    ]
    + [
        ("cli.mustafin_conjecture.self_s", "s", "lower"),
        ("cli.degen_support.self_s", "s", "lower"),
    ]
    + [(f"{layer}.capped", "count", "lower") for layer in LAYERS]
    + [
        ("bench.drift_items", "count", "lower"),
        ("bench.fail_frac", "ratio", "lower"),
        ("bench.untraced_wall_s", "s", "lower"),
        ("bench.traced_wall_s", "s", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
    ]
)


def _route(kwargs):
    if kwargs.get("sat_var") is not None:
        return "satfast"
    if kwargs.get("gb_prefix", 0) > 0:
        return "incremental"
    if kwargs.get("ring_mode"):
        return "ring"
    return "plain"


class Recorder:
    """Spans and boundary counts of one traced pass."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or None]
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)
        self._capped: set = set()

    # -- recording

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording a span per call.  ``before(args, kwargs)`` may
        rename the span and mutate kwargs; it returns (name, state).
        ``after(index, state, args, result)`` counts work."""
        rec = self

        def wrapper(*args, **kwargs):
            label, state = before(args, kwargs) if before else (name, None)
            index = len(rec.spans)
            span = [label, time.perf_counter(), None, rec._stack[-1] if rec._stack else None]
            rec.spans.append(span)
            rec._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except ResourceCapExceeded as exc:
                key = (label.split(".", 1)[0], id(exc))
                if key not in rec._capped:
                    rec._capped.add(key)
                    rec.counts[f"{key[0]}.capped"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
            if after:
                after(index, state, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _buchberger_before(self, args, kwargs):
        name = f"groebner.buchberger.{_route(kwargs)}"
        if kwargs.get("trace_log") is None:
            kwargs["trace_log"] = []
        log = kwargs["trace_log"]
        return name, (name, log, len(log))

    def _buchberger_after(self, index, state, args, result):
        name, log, start = state
        lines = log[start:]
        self.counts[f"{name}.pairs"] += len(lines)
        self.counts[f"{name}.zero_reductions"] += sum(1 for l in lines if l.endswith("-> 0"))
        self.counts[f"{name}.new"] += sum(1 for l in lines if l.endswith("-> new"))
        self.counts[f"{name}.basis_size"] += len(result)

    def _saturate_after(self, index, state, args, result):
        fast = any(
            s[3] == index and s[0] == "groebner.buchberger.satfast" for s in self.spans[index + 1 :]
        )
        self.spans[index][0] = "groebner.saturate." + ("fast" if fast else "elim")

    def _gb_cache_before(self, args, kwargs):
        return "polyring.Ideal.groebner_basis", len(args[0]._gb_cache)

    def _gb_cache_after(self, index, state, args, result):
        if len(args[0]._gb_cache) == state:
            self.counts["polyring.Ideal.groebner_basis.hits"] += 1

    def _count(self, key, value):
        def after(index, state, args, result):
            self.counts[key] += value(result)

        return after

    # -- patching

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        package = [m for n, m in sys.modules.items() if n == "mustafin" or n.startswith("mustafin.")]
        hooks = {
            "buchberger": (self._buchberger_before, self._buchberger_after),
            "saturate": (None, self._saturate_after),
            "radical_membership": (None, self._count("groebner.radical_membership.true", bool)),
            "hilbert_function": (None, self._count("groebner.hilbert_function.cells", len)),
            "generic_sample": (None, self._count("specialize.generic_sample.attempts", lambda r: r.attempts)),
        }
        for module, names in TARGETS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in names:
                original = getattr(module, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original, *hooks.get(attr, (None, None)))
                for m in package:
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, bound, wrapper)
        self._patch(
            Ideal,
            "groebner_basis",
            self.wrap("polyring.Ideal.groebner_basis", Ideal.groebner_basis, self._gb_cache_before, self._gb_cache_after),
        )
        for group in CLI_GROUPS:
            for command in group.commands.values():
                name = f"cli.{command.callback.__name__}"
                self._patch(command, "callback", self.wrap(name, command.callback))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results

    def metrics(self, extra):
        """Every PER_LAYER metric; ``extra`` supplies the bench.* values."""
        table = layer_table(self.spans)
        counts = self.counts

        def value(metric):
            if metric in extra:
                return extra[metric]
            base, _, field = metric.rpartition(".")
            row = table.get(base, {})
            calls = row.get("calls", 0)
            if field in ("calls", "total_s", "self_s"):
                return row.get(field, 0)
            if field == "useful_frac":
                return _ratio(counts[f"{base}.new"], counts[f"{base}.pairs"])
            if field == "true_frac":
                return _ratio(counts[f"{base}.true"], calls)
            if field == "cache_hit_frac":
                return _ratio(counts[f"{base}.hits"], calls)
            return counts.get(metric, 0)

        return {m: {"value": value(m), "unit": unit} for m, unit, _better in PER_LAYER}

    def top_self(self, k=3):
        """The k largest self times by span name, and by (owner, name) where
        the owner is the nearest enclosing span outside groebner and polyring."""
        selfs = self_times(self.spans)
        by_owner: dict = defaultdict(float)
        for i, span in enumerate(self.spans):
            owner = span[3]
            while owner is not None and self.spans[owner][0].startswith(("groebner.", "polyring.")):
                owner = self.spans[owner][3]
            by_owner[(self.spans[owner][0] if owner is not None else "-", span[0])] += selfs[i]
        by_name = sorted(((r["self_s"], n) for n, r in layer_table(self.spans).items()), reverse=True)[:k]
        by_pair = sorted(((v, f"{o} > {n}") for (o, n), v in by_owner.items()), reverse=True)[:k]
        return by_name, by_pair

    def dump(self, path, header):
        with open(path, "w") as fh:
            json.dump({**header, "counts": dict(self.counts), "spans": self.spans}, fh)


def _ratio(a, b):
    return a / b if b else 0.0


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_table(spans):
    """name -> calls, self_s, and total_s (counting only the outermost of
    nested spans with the same name)."""
    selfs = self_times(spans)
    table: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            row["total_s"] += end - start
    return dict(table)
