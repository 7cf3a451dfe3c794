"""Self-test of the benchmark's span arithmetic and wrapper hygiene.

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from mustafin import groebner, varieties  # noqa: E402
from mustafin.polyring import Ideal  # noqa: E402

BUCHBERGER = groebner.buchberger
GROEBNER_BASIS = Ideal.groebner_basis


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 7.0, 2],
        ["a", 6.5, 7.0, 3],  # a second "a", not nested in the first
        ["d", 2.0, 3.0, 1],
        ["d", 2.5, 3.5, 1],  # overlaps its sibling: covered once
    ]
    assert spans.self_times(tree) == [3.0, 1.5, 3.0, 0.5, 0.5, 1.0, 1.0]
    table = spans.layer_table(tree)
    assert table["a"] == {"calls": 2, "total_s": 3.5, "self_s": 2.0}
    assert table["d"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_recursive_spans_count_total_time_once():
    tree = [["f", 0.0, 4.0, None], ["f", 1.0, 3.0, 0], ["g", 1.5, 2.0, 1]]
    table = spans.layer_table(tree)
    assert table["f"] == {"calls": 2, "total_s": 4.0, "self_s": 3.5}


def test_times_scale_by_the_median_probe():
    ref = run.REFERENCE_PROBE_S
    assert run.scale([ref, ref, ref]) == 1.0
    # the median probe took four times the reference; times shrink by 4 ** exponent
    assert run.scale([3 * ref, 9 * ref, 4 * ref]) == 0.25**run.PROBE_EXPONENT


def _probe_items():
    seen = []

    def probe():
        seen.append((groebner.buchberger, varieties.buchberger, Ideal.groebner_basis))
        cfg = varieties.random_config(2, 1, (1,), {"Fp": 32003}, seed=1)
        return varieties.conjecture_check(cfg).equal, ""

    return seen, [("probe", probe)]


def test_untraced_run_installs_no_wrapper():
    seen, items = _probe_items()
    passes = run.measure(lambda: items, 0)
    assert passes[0][1][0][2] is True
    assert seen == [(BUCHBERGER, BUCHBERGER, GROEBNER_BASIS)]


def test_traced_pass_wraps_every_binding_and_restores_it():
    seen, items = _probe_items()
    recorder, (_wall, rows, _probes) = run.traced_pass(lambda: items)
    assert rows[0][2] is True
    wrapped = seen[0]
    assert all(f.__wrapped__ for f in wrapped)
    assert wrapped[0] is wrapped[1]  # the module binding and the import share one wrapper
    assert (groebner.buchberger, varieties.buchberger, Ideal.groebner_basis) == (
        BUCHBERGER,
        BUCHBERGER,
        GROEBNER_BASIS,
    )
    table = spans.layer_table(recorder.spans)
    assert table["groebner.buchberger.satfast"]["calls"] >= 1
    assert table["varieties.conjecture_check"]["calls"] == 1
    assert recorder.counts["groebner.buchberger.satfast.basis_size"] >= 1


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
