"""Closed-loop benchmark of kpii-stem, run from the root of a checkout.

    python3 perfbench/run.py --workload field_sample --seed 1 --seconds 35 --trace 0

One client sends the next request when the previous one returns (a closed
loop, no think time), in this process, with the package imported from
``src/`` in its default configuration (``KPII_STEM_THREADS`` unset).  The
loop runs whole cycles of the workload's request mix until the requests have
taken ``--seconds``; each result is checked after its timed interval.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced cycles of the mix and prints
the per-layer metrics (see spans.py) and the tracing overhead.  The last line
of stdout is one JSON object; a readable summary goes to stderr, and a run
record plus the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
THREAD_ENV = ("KPII_STEM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_checkout() -> dict:
    """Benchmark definition; exits non-zero when the program is not beside it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "kpii_stem" / "__init__.py").is_file():
        raise SystemExit(f"error: no kpii_stem package under {SRC}")
    if not list((ROOT / "scenarios").glob("*.json")):
        raise SystemExit(f"error: no scenarios under {ROOT / 'scenarios'}")
    return spec


def environment(thread_env: dict) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "thread_env": thread_env}


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q[0], "median": q[1], "q3": q[2]}


def measure_setup(wl) -> list[dict]:
    """Fresh-interpreter set-up samples; the first run only fills the bytecode cache."""
    if wl.name == "stem_sweep":
        build = {"draws": [[r.case, list(r.k), r.p3, r.branch] for r in wl.requests[:wl.cycle]]}
    else:
        import workloads
        build = {"scenarios": [str(p) for p in workloads.scenario_paths(ROOT)]}
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps({"src": str(SRC), **build})]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.splitlines()[-1])
        if i:
            samples.append({"setup_s": rec["end"] - spawned,
                            "import_kpii_stem_s": rec["import_kpii_stem_s"]})
    return samples


@dataclass
class Loop:
    """Outcome of one closed loop: latencies, failures, request ids."""

    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    ids: list[str] = field(default_factory=list)


def attempt(loop: Loop, wl, req, api, tracer, rid: str) -> None:
    t0 = time.perf_counter()
    try:
        result = tracer.request_span(rid, wl.call, req, api) if tracer else wl.call(req, api)
        error = None
    except Exception as exc:                       # counted, never retried
        error = f"{type(exc).__name__}: {exc}"
    loop.latencies.append(time.perf_counter() - t0)
    loop.ids.append(rid)
    if error is None:
        try:
            error = wl.check(req, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        loop.failures.append(f"{rid}: {error}")


def run_loop(wl, api, seconds: float) -> Loop:
    loop = Loop()
    i = 0
    while sum(loop.latencies) < seconds or i % wl.cycle:
        attempt(loop, wl, wl.requests[i % len(wl.requests)], api, None, f"{wl.name}:{i}")
        i += 1
    return loop


def end_to_end(loop: Loop, setup: list[dict]) -> dict:
    lat_ms = [1e3 * v for v in loop.latencies]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        # completed requests per second of request time (checks excluded)
        "requests_per_s": (len(lat_ms) / sum(loop.latencies), "1/s"),
        "request_p50_ms": (statistics.median(lat_ms), "ms"),
        "request_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def traced_run(wl, api, seed: int, seconds: float, names: list[str]):
    """Untraced and traced cycles in turn, so that both meet the same host
    conditions; layers the workload does not reach are measured on one
    traced probe request of each other workload."""
    import spans
    import workloads
    tracer = spans.Tracer()
    untraced, probe, traced = Loop(), Loop(), Loop()
    tracer.install(api)
    try:
        for other in names:
            if other != wl.name:
                pw = workloads.make(other, seed, ROOT, OUT, cycles=1)
                attempt(probe, pw, pw.requests[0], api, tracer, f"probe:{other}")
    finally:
        tracer.uninstall()
    i = 0
    while sum(untraced.latencies) + sum(traced.latencies) < seconds:
        for loop, on in ((untraced, False), (traced, True)):
            if on:
                tracer.install(api)
            try:
                for _ in range(wl.cycle):
                    attempt(loop, wl, wl.requests[i % len(wl.requests)], api,
                            tracer if on else None, f"{wl.name}:{i}")
                    i += 1
            finally:
                if on:
                    tracer.uninstall()
    tracer.write(OUT / f"spans-{wl.name}.jsonl")
    probe_ids = set(probe.ids)
    metrics = spans.layer_metrics(tracer.spans, probe_ids, probe_ids)
    from_probe = set(metrics)
    own = spans.layer_metrics(tracer.spans, set(traced.ids), set(traced.ids[:wl.cycle]))
    metrics.update(own)
    p50 = lambda loop: 1e3 * statistics.median(loop.latencies)
    metrics["trace.overhead_p50_ms"] = (p50(traced) - p50(untraced), "ms")
    return [untraced, probe, traced], metrics, sorted(from_probe - set(own))


def main(argv=None) -> int:
    spec = load_checkout()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    thread_env = {k: os.environ.get(k) for k in THREAD_ENV}
    os.environ.pop("KPII_STEM_THREADS", None)
    sys.path.insert(0, str(SRC))
    import kpii_stem
    if Path(kpii_stem.__file__).resolve().parent != (SRC / "kpii_stem").resolve():
        raise SystemExit(f"error: imported kpii_stem from {kpii_stem.__file__}, not {SRC}")
    import workloads

    OUT.mkdir(exist_ok=True)
    api = workloads.library_api()
    wl = workloads.make(args.workload, args.seed, ROOT, OUT)
    setup = measure_setup(wl)

    if args.trace:
        loops, metrics, probed = traced_run(wl, api, args.seed, args.seconds, names)
        metrics["import.kpii_stem_s"] = (
            statistics.median(s["import_kpii_stem_s"] for s in setup), "s")
        wanted = spec["per_layer"]
    else:
        loops, probed = [run_loop(wl, api, args.seconds)], []
        metrics = end_to_end(loops[0], setup)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
    if missing:
        raise SystemExit(f"error: metrics not measured or with another unit: {missing}")
    attempted = sum(len(loop.latencies) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    # reported as attempted/failed in the result line; a metric that is 0
    # on a correct run cannot carry a relative bound
    metrics["failed_fraction"] = (len(failures) / attempted, "1")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(thread_env),
        "inputs": wl.info, "cycle": wl.cycle,
        "setup": {k: quartiles([s[k] for s in setup]) for k in setup[0]},
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "from_probe": probed,
    }
    (OUT / f"run-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    log(f"{wl.name} seed={args.seed} trace={args.trace}: {attempted} requests, "
        f"{len(failures)} failed")
    log(f"  inputs {json.dumps(wl.info)}; environment {json.dumps(record['environment'])}")
    log("  setup (fresh process, {n} samples): {q}".format(
        n=len(setup), q=json.dumps(record["setup"])))
    if not args.trace:
        n = len(loops[0].latencies)
        log(f"  p90 over {n} requests, {n - int(0.9 * n)} beyond it")
    for name, (value, unit) in sorted(metrics.items()):
        mark = "  (probe)" if name in probed else ""
        log(f"  {name:44s} {value:14.6g} {unit}{mark}")
    for f in failures[:5]:
        log(f"  FAILED {f}")

    out = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
