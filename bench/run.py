"""Benchmark of the mustafin package: four workloads, end-to-end metrics,
and an outside-in layer trace.

    python3 bench/run.py --workload decomp_ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, taken
over as many passes of the workload's item list as fit in ``--seconds``
(at least one): ``wall_s`` is the median pass, and each item's time is its
median over the passes.  These times are scaled to a host of fixed speed by
a probe loop run between the items; see ``REFERENCE_PROBE_S``.  With
``--trace 1`` one untraced pass is followed by one traced pass, and the
metrics are the per-layer ones.  An item fails when it
raises, hits a resource cap, or breaks its workload's verdict rule; any
failure makes the exit code 1.  ``--workload all`` runs every workload
serially, each in a fresh process.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference_seed1.json"
WORKLOAD_NAMES = ("decomp_ladder", "curve_support", "spec_certify", "acceptance_quick")
DEFAULT_SEED = 1
SETUP_REPEATS = 7
# Every end-to-end time is scaled to a host on which ``probe()`` takes
# REFERENCE_PROBE_S: a shared host's speed wanders by tens of percent within
# a minute, and the median of a run's probes, taken between its timed items,
# follows it.  The probe's time swings about twice as far as the package's
# (in log terms), so times scale by the PROBE_EXPONENT power of the ratio.
PROBE_ITERATIONS = 50_000
REFERENCE_PROBE_S = 0.010
PROBE_EXPONENT = 0.5
# the probe is noisier than a long item, so long items get several probes
PROBE_SHARE = 0.03
DEADLINE_S = 170
END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("item_max_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Overrun(BaseException):
    """The run passed its deadline; not an item failure, so not an Exception."""


def import_package():
    """Import mustafin from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import mustafin
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mustafin from {SRC}: {exc}")
    if Path(mustafin.__file__).resolve().parent != SRC / "mustafin":
        raise SystemExit(f"error: mustafin was imported from {mustafin.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def probe():
    """Time a fixed pure-Python loop of dict and integer work, the kind the
    package spends its time on, to gauge how fast the host runs right now."""
    t = time.perf_counter()
    acc = {}
    for i in range(PROBE_ITERATIONS):
        k = (i * 7919) % 1009
        acc[k] = (acc.get(k, 0) + i * i) % 1000003
    return time.perf_counter() - t


def scale(probes):
    """Factor that turns seconds measured while ``probes`` were taken into
    seconds on a host where the probe takes REFERENCE_PROBE_S."""
    return (REFERENCE_PROBE_S / statistics.median(probes)) ** PROBE_EXPONENT


def run_pass(items):
    """Run one pass with a probe before the first item, and after each item
    as many probes as take PROBE_SHARE of its time (at least one).

    Return (wall, [(name, seconds, ok, canonical, note)], probe times); the
    wall is the sum of the items' times, so the probes are not part of it."""
    rows = []
    probes = [probe()]
    for name, fn in items:
        t = time.perf_counter()
        try:
            ok, canonical = fn()
            note = "" if ok else "verdict rule broken"
        except Exception as exc:  # an item that raises is a failed item
            ok, canonical, note = False, None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        rows.append((name, seconds, ok, canonical, note))
        spent = 0.0
        while not spent or spent < PROBE_SHARE * seconds:
            probes.append(probe())
            spent += probes[-1]
    return sum(r[1] for r in rows), rows, probes


def measure(make_items, seconds):
    """Untraced passes while the next one, taking as long as the median pass
    so far, still ends within ``seconds`` (at least one pass)."""
    passes, lengths = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        t = time.perf_counter()
        passes.append(run_pass(make_items()))
        lengths.append(time.perf_counter() - t)
    return passes


def traced_pass(make_items):
    """One pass with every layer wrapped; the originals are restored after."""
    import spans

    recorder = spans.Recorder()
    recorder.install()
    try:
        result = run_pass(make_items())
    finally:
        recorder.restore()
    return recorder, result


def setup_seconds(workload, seed):
    """Median scaled wall time of fresh interpreters that import mustafin,
    build this workload's inputs and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    probes = [probe()]
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t)
        probes.append(probe())
    return statistics.median(times) * scale(probes)


def drift(rows, workload):
    """Items whose canonical report hash differs from the committed one."""
    reference = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.exists() else {}
    return [
        name for name, _t, ok, canonical, _n in rows
        if ok and reference.get(name) != _digest(canonical)
    ]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest() if text is not None else None


def update_reference(rows, workload):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[workload] = {name: _digest(canonical) for name, _t, _ok, canonical, _n in rows}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_workload(args):
    import workloads

    setup, items = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = setup(args.seed, work)
        if args.setup_only:
            return 0
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        make_items = lambda: items(inputs)  # noqa: E731
        if args.trace:
            untraced = run_pass(make_items())
            recorder, traced = traced_pass(make_items)
            passes = [untraced, traced]
            rows = traced[1]
        else:
            passes = measure(make_items, args.seconds)
            rows = passes[0][1]
        drifted = drift(rows, args.workload) if args.seed == DEFAULT_SEED else []
        if args.update_reference:
            update_reference(rows, args.workload)
        attempted = sum(len(r) for _w, r, _p in passes)
        failures = [(name, note) for _w, r, _p in passes for name, _t, ok, _c, note in r if not ok]
        names = [row[0] for row in rows]
        item_s = [statistics.median(r[i][1] for _w, r, _p in passes) for i in range(len(names))]
        probes = [t for _w, _r, p in passes for t in p]
        k = scale(probes)

        print(f"workload {args.workload} seed {args.seed}: {len(names)} items x {len(passes)} passes")
        print("  pass walls: " + ", ".join(f"{w:.3f} s" for w, _r, _p in passes))
        print(f"  host speed: the probe's median is {statistics.median(probes) * 1000:.2f} ms, "
              f"so times are scaled by {k:.4f}")
        for name, t in zip(names, item_s):
            print(f"  item {name:<24} raw {t:9.4f} s  scaled {t * k:9.4f} s")
        for name, note in failures:
            print(f"  FAILED {name}: {note}")
        if drifted:
            print(f"  drift from the seed-{DEFAULT_SEED} reference: {', '.join(drifted)}")

        if args.trace:
            # each pass is scaled by its own probes, so that a change of host
            # speed between the two does not read as tracing overhead
            untraced_wall = untraced[0] * scale(untraced[2])
            traced_wall = traced[0] * scale(traced[2])
            extra = {
                "bench.drift_items": len(drifted),
                "bench.fail_frac": len(failures) / attempted,
                "bench.untraced_wall_s": untraced_wall,
                "bench.traced_wall_s": traced_wall,
                "bench.trace_overhead_s": traced_wall - untraced_wall,
            }
            metrics = recorder.metrics(extra)
            by_name, by_owner = recorder.top_self()
            for label, top in (("name", by_name), ("owner > name", by_owner)):
                print(f"  top self time by {label}: " + "; ".join(f"{n} {v:.3f} s" for v, n in top))
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            recorder.dump(spans_path, {"workload": args.workload, "seed": args.seed, "env": env})
            print(f"  spans written to {spans_path.relative_to(ROOT)}")
        else:
            values = {
                "wall_s": statistics.median(w for w, _r, _p in passes) * k,
                "item_p50_s": statistics.median(item_s) * k,
                "item_max_s": max(item_s) * k,
                "setup_s": setup_seconds(args.workload, args.seed),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        for m, v in metrics.items():
            print(f"  metric {m} = {v['value']:.6g} {v['unit']}")
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }))
        return 0 if not failures else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args):
    """Every workload serially, each in its own fresh process."""
    results = {}
    code = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            code = 1
        if lines and lines[-1].startswith("{"):
            results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()) or 1,
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="build the inputs and exit")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite this workload's entry in the seed-1 reference hashes")
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)

    def overrun(signum, frame):
        raise Overrun()

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(DEADLINE_S)
    try:
        return run_workload(args)
    except Overrun:
        print(f"error: the run passed its {DEADLINE_S} s deadline", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
