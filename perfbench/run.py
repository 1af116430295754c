#!/usr/bin/env python3
"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Run from the root of a checkout.  Options: ``--seed N`` (inputs),
``--seconds S`` (how long the measured phase lasts), ``--trace 0|1``
(``1`` runs the workload with spans on and reports per-layer metrics).

Every workload drives the program only through its public entry points
(``SweepRunner``, ``ExperimentContext``, ``DoEOrchestrator`` over the
committed specs, ``python -m repro serve`` over HTTP), checks the outputs,
prints every metric by name and unit, writes the full record to
``.perfbench-out/`` and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import service  # noqa: E402
from child import canonical, model_totals  # noqa: E402
from spans import LAYERS  # noqa: E402

#: The seed the committed expected digests (expected.json) belong to.
DEFAULT_SEED = 1
CORES = len(os.sched_getaffinity(0))
ALL_SPECS = ["table1", "table2", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9"]

WORKLOADS = {
    "static-ladder-cold": {
        "kind": "cold", "specs": ["figure6"], "instructions": 3000, "jobs": 1,
        "why": "fused static ladders (selective-ways, selective-sets, hybrid at 2-16 ways, "
               "d- and i-cache) are where cold time goes; inline, so no pool work",
    },
    "dynamic-resize-pool": {
        "kind": "cold", "specs": ["figure7", "figure8"], "instructions": 10000, "jobs": CORES,
        "why": "static vs miss-ratio dynamic resizing on two cores: unfused resizable "
               "replays through the pool and shared memory, interval close and resize",
    },
    "warm-replay": {
        "kind": "warm", "specs": ALL_SPECS, "instructions": 1000, "jobs": 1,
        "why": "the whole evaluation's job graph served from a warm cache: fingerprints "
               "and job-cache reads, no simulation",
    },
    "service-mixed": {
        "kind": "service", "instructions": service.SERVICE_INSTRUCTIONS,
        "why": "open-loop HTTP mix of settled reads, duplicate and fresh submissions: "
               "admission, queueing and render beside simulation",
    },
}

#: Cold passes per run at least (more while the run's seconds last).
MIN_COLD_PASSES = 3
#: Warm passes per run at least.
MIN_WARM_PASSES = 5
#: Set-up samples per run (extra ``setup`` children or probe servers make
#: up what the passes do not give).
MIN_SETUPS = 11
#: ``setup`` children started before each cold pass, so that set-up
#: samples are spread over the run rather than bunched at its end.
SETUPS_PER_PASS = 2
#: Untraced passes around the traced one, the baseline of its overhead.
UNTRACED_BASELINE_PASSES = 3
#: Cells re-run on the reference oracle per run.
SAMPLED_CELLS = 2

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms"}

PER_LAYER_UNITS = {
    "ladder.fused_self_s": "s", "ladder.rungs": "count", "ladder.ns_per_rung_instr": "ns",
    "predecode.decode_s": "s", "predecode.decode_builds": "count",
    "predecode.decode_memo_hits": "count", "predecode.pilot_s": "s",
    "predecode.pilot_builds": "count",
    "engine.replay_self_s": "s", "engine.replays": "count", "engine.close_interval_s": "s",
    "engine.intervals": "count", "resizing.observe_s": "s", "resizing.decisions": "count",
    "runner.fingerprint_s": "s", "runner.fingerprints": "count", "runner.fingerprint_us": "us",
    "runner.drain_s": "s", "runner.simulated": "count", "runner.cache_hits": "count",
    "runner.dedup_hits": "count",
    "jobcache.get_s": "s", "jobcache.hits": "count", "jobcache.misses": "count",
    "jobcache.put_s": "s", "jobcache.puts": "count",
    "experiments.plan_s": "s", "experiments.enqueue_s": "s", "experiments.analyze_s": "s",
    "pool.wait_s": "s", "pool.batches": "count", "pool.trace_bytes_pickled": "bytes",
    "pool.retries": "count", "pool.worker_deaths": "count", "shm.publish_s": "s",
    "shm.segments": "count",
    "workloads.ingest_s": "s", "workloads.ingest_calls": "count", "workloads.generate_s": "s",
    "tracecache.get_s": "s", "tracecache.hits": "count", "tracecache.misses": "count",
    "tracecache.put_s": "s",
    "service.accepted": "count", "service.deduped": "count", "service.cache_hits": "count",
    "service.shed": "count", "service.queue_depth_max": "count",
    "loadgen.lag_p99_ms": "ms", "loadgen.sent": "count",
    "model.l1d_misses": "count", "model.l1i_misses": "count", "model.l2_accesses": "count",
    "model.resizes": "count", "model.flush_writebacks": "count", "model.cycles": "cycles",
    "model.energy_delay": "nJ.cycles",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.attributed_share": "share",
}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"self_s.{_layer}"] = "s"


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, workload, seed, seconds, trace):
        self.name = workload
        self.config = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".perfbench-work", f"{workload}-s{seed}-{os.getpid()}")
        self.out_dir = os.path.join(ROOT, ".perfbench-out")
        self.tag = f"{workload}-seed{seed}-trace{trace}"
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self._children = 0

    def check(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        self.attempted += 1
        if not ok:
            self.failed += 1

    def child(self, request):
        """Run one ``child.py`` process; its JSON output."""
        self._children += 1
        base = os.path.join(self.work, f"child-{self._children}")
        request = dict(request, root=ROOT)
        request.setdefault("cache_dir", base + "-cache")
        request.setdefault("spans_path", os.path.join(self.out_dir, f"spans-{self.tag}.jsonl"))
        with open(base + "-request.json", "w", encoding="utf-8") as handle:
            json.dump(request, handle)
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), base + "-request.json",
             base + "-out.json"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=170,
        )
        shutil.rmtree(request["cache_dir"], ignore_errors=True)
        if completed.returncode != 0:
            raise RuntimeError(f"child {request['mode']} failed:\n{completed.stdout[-3000:]}")
        with open(base + "-out.json", encoding="utf-8") as handle:
            return json.load(handle)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


# ---------------------------------------------------------------- host facts
def host_facts():
    """Cores, measured two-process CPU speed-up, versions, start method."""
    loop = "import time\nt=time.perf_counter()\ns=0\nfor i in range(2_000_000): s+=i\n" \
           "print(time.perf_counter()-t)"

    def timed(copies):
        started = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", loop], stdout=subprocess.PIPE)
                 for _ in range(copies)]
        for proc in procs:
            proc.communicate()
        return time.perf_counter() - started

    one, two = timed(1), timed(2)
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": CORES,
        "two_process_speedup": round(2 * one / two, 3),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": os.environ.get("REPRO_MP_START_METHOD")
        or multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


# -------------------------------------------------------------------- inputs
def write_traces(run):
    """The 12 seeded traces as binary trace files; name -> path."""
    from repro.sim.runner import TraceSpec
    from repro.workloads.ingest import write_binary_trace
    from repro.workloads.profiles import SPEC_APPLICATION_NAMES

    directory = os.path.join(run.work, "traces")
    os.makedirs(directory, exist_ok=True)
    files = {}
    for application in SPEC_APPLICATION_NAMES:
        path = os.path.join(directory, f"{application}.rtrc2")
        trace = TraceSpec(application, run.config["instructions"], run.seed).materialize()
        write_binary_trace(trace, path)
        files[f"{application}-s{run.seed}"] = path
    return files


def sample_cells(run, files):
    """Seeded choice of static/dynamic cells for the reference oracle."""
    from repro.experiments.context import ExperimentContext
    from repro.experiments.orchestrator import DoEOrchestrator
    from repro.experiments.spec import load_builtin_spec

    orchestrator = DoEOrchestrator(ExperimentContext(
        n_instructions=run.config["instructions"], applications=sorted(files),
        trace_files=files,
    ))
    cells = sorted({
        (c.application, c.organization, c.target, c.associativity, c.core_kind, c.strategy)
        for name in run.config["specs"]
        for c in orchestrator.plan(load_builtin_spec(name)).cells
        if c.strategy in ("static", "dynamic")
    })
    return [list(cell) for cell in random.Random(run.seed).sample(cells, SAMPLED_CELLS)]


def check_outputs(run, digest, model, samples, reference):
    """Expected digest (default seed), reference oracle byte for byte."""
    if run.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
            expected = json.load(handle).get(run.name, {})
        run.check("rows digest matches expected.json",
                  digest == expected.get("rows_digest"), digest)
        run.check("model totals match expected.json", model == expected.get("model"))
    for key, value in sorted(reference.items()):
        run.check(f"reference oracle {key}", samples.get(key) == value)


# ------------------------------------------------------------------ workloads
#: Per-layer metric prefixes, and self times, measured inside pool workers.
WORKER_SIDE = ("ladder", "predecode", "engine", "resizing", "workloads", "tracecache")
WORKER_SIDE_SELF = tuple(
    f"self_s.{layer}"
    for layer in ("workloads", "sim.tracecache", "sim.predecode", "sim.ladder", "sim.engine",
                  "resizing")
)


def run_cold(run):
    files = write_traces(run)
    cells = sample_cells(run, files)
    request = {
        "mode": "cold", "specs": run.config["specs"], "jobs": run.config["jobs"],
        "n_instructions": run.config["instructions"], "trace_files": files, "samples": cells,
    }
    setup_request = dict(request, mode="setup")
    passes, setups = [], []
    if run.trace:
        # The traced pass sits between untraced ones, which are the
        # baseline of its overhead.
        passes.append(run.child(request))
        traced = run.child(dict(request, trace=1))
        passes += [run.child(request) for _ in range(UNTRACED_BASELINE_PASSES - 1)]
        setups = [p["setup_s"] for p in passes]
    else:
        started = time.perf_counter()
        # Another pass starts only while it is expected to end within the
        # run's seconds; the first MIN_COLD_PASSES always run.
        while len(passes) < MIN_COLD_PASSES or (
            (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= run.seconds
        ):
            for _ in range(SETUPS_PER_PASS):
                if len(setups) + len(passes) < MIN_SETUPS:
                    setups.append(run.child(setup_request)["setup_s"])
            passes.append(run.child(request))
        setups += [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(run.child(setup_request)["setup_s"])
    reference = run.child(dict(request, mode="reference", specs=[], jobs=1,
                               engine="reference", ladder_mode="per-config"))["samples"]

    first = passes[0]
    for index, record in enumerate(passes):
        run.attempted += record["jobs"]
        run.check(f"pass {index}: no job quarantined", record["runner"]["quarantined"] == 0)
        run.check(f"pass {index}: rows repeat", record["rows_digest"] == first["rows_digest"])
        run.check(f"pass {index}: model totals repeat", record["model"] == first["model"])
        run.check(f"pass {index}: every job simulated", record["runner"]["cache_hits"] == 0)
    check_outputs(run, first["rows_digest"], first["model"], first["samples"], reference)

    wall = median(p["wall_s"] for p in passes)
    result = {
        "end_to_end": {
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
            "op_p50_ms": wall * 1e3,
        },
        "detail": {
            "sim_minstr_per_s": first["instructions"] / wall / 1e6,
            "jobs_per_pass": first["jobs"],
            "instructions_per_pass": first["instructions"],
            "pass_wall_s": [p["wall_s"] for p in passes],
            "setup_samples_s": setups,
            "runner": first["runner"],
            "model": first["model"],
            "rows_digest": first["rows_digest"],
        },
    }
    if run.trace:
        check_repeat(run, "traced pass", traced, first)
        layers = per_layer(traced, wall, first["model"])
        if run.config["jobs"] > 1:
            # Worker-side spans are invisible from the parent, so the
            # simulation layers come from an inline traced pass and the
            # pool, shm and runner figures from the pooled one above.
            inline = run.child(dict(request, trace=1, jobs=1))
            check_repeat(run, "traced inline pass", inline, first)
            inline_layers = per_layer(inline, wall, first["model"])
            for key, value in inline_layers.items():
                if key.split(".")[0] in WORKER_SIDE or key in WORKER_SIDE_SELF:
                    layers[key] = value
            result["detail"]["inline_trace"] = inline_layers
        result["per_layer"] = layers
    return result


def check_repeat(run, label, record, first):
    run.check(f"{label}: rows repeat", record["rows_digest"] == first["rows_digest"])
    run.check(f"{label}: model totals repeat", record["model"] == first["model"])


def run_warm(run):
    files = write_traces(run)
    cells = sample_cells(run, files)
    request = {
        "mode": "warm", "specs": run.config["specs"], "jobs": 1,
        "n_instructions": run.config["instructions"], "trace_files": files, "samples": cells,
        "seconds": run.seconds,
        "min_passes": UNTRACED_BASELINE_PASSES if run.trace else MIN_WARM_PASSES,
    }
    # Set-up samples come from ``setup`` children, half before and half
    # after the warm series, plus the series' own set-up.
    extra = 0 if run.trace else MIN_SETUPS - 1
    setups = [run.child(dict(request, mode="setup"))["setup_s"] for _ in range(extra // 2)]
    record = run.child(dict(request, trace=run.trace))
    setups.append(record["setup_s"])
    setups += [run.child(dict(request, mode="setup"))["setup_s"]
               for _ in range(extra - extra // 2)]
    reference = run.child(dict(request, mode="reference", specs=[], engine="reference",
                               ladder_mode="per-config"))["samples"]
    fill, passes = record["fill"], record["passes"]
    for index, entry in enumerate(passes + ([record["traced"]] if run.trace else [])):
        run.attempted += entry["jobs"]
        run.check(f"pass {index}: nothing simulated", entry["runner"]["simulated"] == 0)
        run.check(f"pass {index}: every job served", entry["jobs"] == fill["jobs"])
        check_repeat(run, f"pass {index}", entry, fill)
    check_outputs(run, fill["rows_digest"], fill["model"], passes[0]["samples"], reference)

    walls = [p["wall_s"] for p in passes]
    wall = median(walls)
    result = {
        "end_to_end": {
            "setup_s": median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
            "op_p50_ms": wall * 1e3,
        },
        "detail": {
            "warm_jobs_per_s": fill["jobs"] / wall,
            "jobs_per_pass": fill["jobs"],
            "fill_wall_s": fill["wall_s"],
            "pass_wall_s": walls,
            "setup_samples_s": setups,
            "model": fill["model"],
            "rows_digest": fill["rows_digest"],
        },
    }
    if run.trace:
        result["per_layer"] = per_layer(
            dict(record["traced"], spans=record["spans"]), wall, fill["model"]
        )
    return result


def run_service(run):
    from repro.sim.results import SimulationResult
    from repro.workloads.profiles import SPEC_APPLICATION_NAMES

    def probe_setups(first, count):
        """Set-up samples of ``count`` extra servers that serve nothing."""
        samples = []
        for index in range(first, first + count):
            probe = service.Server(ROOT, new_dir(run, f"probe-{index}"))
            samples.append(probe.setup_s)
            run.check(f"probe server {index}: SIGTERM exit 0", probe.stop() == 0)
        return samples

    # Probe servers run half before and half after the measured server.
    extra = 0 if run.trace else MIN_SETUPS - 1
    setups = probe_setups(0, extra // 2)
    spans_path = os.path.join(run.out_dir, f"spans-{run.tag}.jsonl") if run.trace else None
    server = service.Server(ROOT, new_dir(run, "server"), spans_path=spans_path)
    try:
        setups.append(server.setup_s)
        apps = list(SPEC_APPLICATION_NAMES)
        primed = []
        for body in service.payloads(run.seed, apps, service.PRIMED_JOBS, 0):
            handle, status = service.settle(server, body)
            primed.append((handle, body, status))
        primed_by_handle = {handle: status for handle, _, status in primed}
        fresh = service.payloads(run.seed, apps, service.fresh_needed(run.seconds),
                                 service.PRIMED_JOBS)
        plan = service.schedule(run.seed, run.seconds, primed, fresh)
        before = server.metrics()
        records, depth_max = service.drive(
            server.port, plan, CORES, primed_by_handle, scrape_every=0.25 if run.trace else 0.0
        )
        after = server.metrics()
        rng = random.Random(run.seed)
        sampled = [(body, status["result"]) for _, body, status in rng.sample(primed, 2)]
        fresh_done = [r for r in records if r["kind"] == "fresh" and r["ok"]]
        for record in rng.sample(fresh_done, min(2, len(fresh_done))):
            status = json.loads(server.get(f"/jobs/{record['handle']}")[1])
            sampled.append((plan[record["index"]][5], status["result"]))
        peak_rss = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    run.check("server: SIGTERM exit 0", server.stop() == 0)
    setups += probe_setups(extra // 2, extra - extra // 2)

    reference = run.child({"mode": "jobs", "payloads": [body for body, _ in sampled]})
    for index, ((_, served), expected) in enumerate(zip(sampled, reference["results"])):
        run.check(f"reference oracle job {index}", json.dumps(served, sort_keys=True) == expected)
    for record in records:
        run.attempted += 1
        run.failed += 0 if record["ok"] else 1
    results = [SimulationResult.from_dict(status["result"]) for _, _, status in primed]
    digest = hashlib.sha256(
        "".join(canonical(result) for result in results).encode()
    ).hexdigest()
    model = model_totals(results)
    check_outputs(run, digest, model, {}, {})

    summary = service.summarize(records)
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    result = {
        "end_to_end": {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
            "op_p50_ms": summary.pop("op_p50_ms"),
        },
        "detail": dict(summary, setup_samples_s=setups, metrics_delta=delta, model=model,
                       rows_digest=digest, rates_rps=service.RATES,
                       limit_ms=service.LIMIT_MS),
    }
    if run.trace:
        with open(spans_path + ".summary.json", encoding="utf-8") as handle:
            spans = json.load(handle)
        layers = per_layer({"spans": spans, "wall_s": spans["wall_s"], "runner": {}}, None, model)
        layers.update({
            "service.accepted": delta.get("service_accepted", 0),
            "service.deduped": delta.get("service_deduped", 0),
            "service.cache_hits": delta.get("service_cache_hits", 0),
            "service.shed": delta.get("service_shed", 0),
            "service.queue_depth_max": depth_max,
            "loadgen.lag_p99_ms": summary["loadgen.lag_p99_ms"],
            "loadgen.sent": summary["loadgen.sent"],
            "runner.simulated": delta.get("runner_simulated", 0),
            "runner.cache_hits": delta.get("runner_cache_hits", 0),
            "runner.dedup_hits": delta.get("runner_dedup_hits", 0),
        })
        result["per_layer"] = layers
    return result


def new_dir(run, name):
    path = os.path.join(run.work, name)
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------- per layer
def per_layer(record, untraced_wall, model):
    """Every per-layer metric from one traced record (0 where n/a)."""
    by_name = record["spans"]["by_name"]
    layers = record["spans"]["layers"]
    runner = record["runner"]

    def span(name, field="self_ns"):
        return by_name.get(name, {}).get(field, 0)

    def seconds(name, field="self_ns"):
        return span(name, field) / 1e9

    def value(name, index):
        values = by_name.get(name, {}).get("values", [])
        return values[index] if len(values) > index else 0

    fingerprints = span("job_fingerprint", "calls")
    rung_instructions = value("run_fused", 1)
    jobcache_calls = span("JobCache.get", "calls")
    tracecache_calls = span("TraceCache.get", "calls")
    wall = record["wall_s"]
    out = {
        "ladder.fused_self_s": seconds("run_fused"),
        "ladder.rungs": value("run_fused", 0),
        "ladder.ns_per_rung_instr": span("run_fused") / rung_instructions
        if rung_instructions else 0,
        "predecode.decode_s": seconds("build_decoded", "total_ns"),
        "predecode.decode_builds": span("build_decoded", "calls"),
        "predecode.decode_memo_hits": runner.get("decode_memo_hits", 0),
        "predecode.pilot_s": seconds("build_pilot", "total_ns"),
        "predecode.pilot_builds": span("build_pilot", "calls"),
        "engine.replay_self_s": seconds("ReplayEngine.replay"),
        "engine.replays": span("ReplayEngine.replay", "calls"),
        "engine.close_interval_s": seconds("ReplayContext.close_interval", "total_ns"),
        "engine.intervals": span("ReplayContext.close_interval", "calls"),
        "resizing.observe_s": seconds("DynamicResizing.observe_interval", "total_ns"),
        "resizing.decisions": span("DynamicResizing.observe_interval", "calls"),
        "runner.fingerprint_s": seconds("job_fingerprint", "total_ns"),
        "runner.fingerprints": fingerprints,
        "runner.fingerprint_us": span("job_fingerprint", "total_ns") / fingerprints / 1e3
        if fingerprints else 0,
        "runner.drain_s": seconds("SweepRunner.drain", "total_ns"),
        "runner.simulated": runner.get("simulated", 0),
        "runner.cache_hits": runner.get("cache_hits", 0),
        "runner.dedup_hits": runner.get("dedup_hits", 0),
        "jobcache.get_s": seconds("JobCache.get", "total_ns"),
        "jobcache.hits": value("JobCache.get", 0),
        "jobcache.misses": jobcache_calls - value("JobCache.get", 0),
        "jobcache.put_s": seconds("JobCache.put", "total_ns"),
        "jobcache.puts": span("JobCache.put", "calls"),
        "experiments.plan_s": seconds("DoEOrchestrator.plan"),
        "experiments.enqueue_s": seconds("DoEOrchestrator.enqueue"),
        "experiments.analyze_s": seconds("DoEOrchestrator.analyze"),
        "pool.wait_s": layers["sim.pool"],
        "pool.batches": runner.get("pool_batches", 0),
        "pool.trace_bytes_pickled": runner.get("trace_bytes_pickled", 0),
        "pool.retries": runner.get("retries", 0),
        "pool.worker_deaths": runner.get("worker_deaths", 0),
        "shm.publish_s": seconds("SegmentRegistry.publish", "total_ns"),
        "shm.segments": runner.get("shm_segments", 0),
        "workloads.ingest_s": seconds("ingest_trace_file", "total_ns"),
        "workloads.ingest_calls": span("ingest_trace_file", "calls"),
        "workloads.generate_s": seconds("resolve_trace"),
        "tracecache.get_s": seconds("TraceCache.get", "total_ns"),
        "tracecache.hits": value("TraceCache.get", 0),
        "tracecache.misses": tracecache_calls - value("TraceCache.get", 0),
        "tracecache.put_s": seconds("TraceCache.put", "total_ns"),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall if untraced_wall is not None else 0,
        "trace.attributed_share": 1 - layers["other"] / wall if wall else 0,
    }
    for layer in LAYERS:
        out[f"self_s.{layer}"] = layers.get(layer, 0)
    for key, total in model.items():
        out[f"model.{key}"] = total
    for key in PER_LAYER_UNITS:
        out.setdefault(key, 0)
    return out


# ---------------------------------------------------------------------- main
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(run.out_dir, exist_ok=True)
    os.makedirs(os.path.join(run.work, "tmp"), exist_ok=True)
    # Children (and the program's pool) keep their temporary files here.
    os.environ["TMPDIR"] = os.path.join(run.work, "tmp")
    try:
        facts = host_facts()
        runner = {"cold": run_cold, "warm": run_warm, "service": run_service}
        result = runner[run.config["kind"]](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    metrics = result["per_layer"] if run.trace else result["end_to_end"]
    units = PER_LAYER_UNITS if run.trace else END_TO_END_UNITS
    correct = run.failed == 0 and all(check["ok"] for check in run.checks)
    record = {
        "workload": run.name, "why": run.config["why"], "seed": run.seed,
        "seconds": run.seconds, "trace": run.trace, "host": facts,
        "end_to_end": result["end_to_end"], "detail": result["detail"],
        "per_layer": result.get("per_layer"), "checks": run.checks,
        "attempted": run.attempted, "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "model_validation": "unvalidated: the repository holds no hardware reference, "
                            "so no error figure is given; statistics start after the 10% "
                            "warmup of each trace",
    }
    with open(os.path.join(run.out_dir, f"{run.tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)

    print(f"workload {run.name} seed {run.seed}: {run.config['why']}")
    print("host " + " ".join(f"{key}={value}" for key, value in facts.items()))
    for key, value in sorted(result["detail"].items()):
        if isinstance(value, (int, float)):
            print(f"  {key:<28} {value:.6g}")
    print(f"  {'fail_ratio':<28} {record['fail_ratio']:.6g}")
    for key in units:
        print(f"  {key:<28} {metrics[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
