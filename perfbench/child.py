"""One measured process of the benchmark: ``python3 perfbench/child.py REQUEST OUT``.

The parent (``run.py``) starts a fresh interpreter per cold pass, so every
pass pays exactly what a user's cold run pays: imports, empty in-process
memos and an empty cache directory.  REQUEST is a JSON file naming the mode
and its inputs; the child writes its measurements as JSON to OUT.

Modes:

- ``setup``: import the program and construct a runner, context and
  orchestrator, then exit (a set-up sample and nothing else).
- ``cold``: set up, then run the given committed specs once on an empty
  cache directory.
- ``warm``: set up, fill the cache with one untimed pass, then run timed
  passes on the warm cache until the deadline, each with a fresh runner,
  context and orchestrator.
- ``reference``: run the sampled cells on ``ReferenceEngine`` in
  per-config ladder mode, the output check's independent oracle.
- ``jobs``: run service job payloads on ``ReferenceEngine`` (the same
  oracle for ``service-mixed``).

``setup_s`` runs from the first line of this file to the end of the first
construction, so it covers importing the program, not interpreter start.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main(request_path, out_path):
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    sys.path.insert(0, os.path.join(request["root"], "src"))
    sys.path.insert(0, HERE)
    if request["mode"] == "jobs":
        return reference_jobs(request, out_path)
    from repro.common.config import CoreKind
    from repro.experiments.context import ExperimentContext
    from repro.experiments.orchestrator import DoEOrchestrator
    from repro.experiments.spec import load_builtin_spec
    from repro.sim.jobcache import JobCache
    from repro.sim.runner import SweepRunner

    recorder = None
    if request.get("trace"):
        from spans import SpanRecorder

        recorder = SpanRecorder()

    cache_dir = request["cache_dir"]

    def build():
        runner = SweepRunner(
            jobs=request["jobs"],
            cache=JobCache(cache_dir),
            trace_cache=os.path.join(cache_dir, "traces"),
        )
        context = ExperimentContext(
            n_instructions=request["n_instructions"],
            applications=sorted(request["trace_files"]),
            trace_files=request["trace_files"],
            runner=runner,
            engine=request.get("engine"),
            ladder_mode=request.get("ladder_mode", "fused"),
        )
        return runner, DoEOrchestrator(context)

    specs = [load_builtin_spec(name) for name in request["specs"]]
    runner, orchestrator = build()
    out = {"setup_s": time.perf_counter() - T0}
    mode = request["mode"]

    def samples(context):
        return {
            key: canonical(result)
            for key, result in sampled_results(context, request["samples"], CoreKind)
        }

    def timed_pass(runner, orchestrator):
        # Garbage left by set-up or an earlier pass is not this pass's cost.
        gc.collect()
        start = time.perf_counter()
        stores, plans = [], []
        for spec in specs:
            plan = orchestrator.plan(spec)
            stores.append(orchestrator.analyze(orchestrator.run(plan)))
            plans.append(plan)
        wall = time.perf_counter() - start
        record = describe_pass(wall, stores, plans, orchestrator.context, CoreKind)
        record["runner"] = runner_counters(runner)
        runner.close()
        return record

    if mode == "setup":
        runner.close()
    elif mode == "reference":
        out["samples"] = samples(orchestrator.context)
        runner.close()
    elif mode == "cold":
        if recorder is not None:
            recorder.install()
        out.update(timed_pass(runner, orchestrator))
        out["samples"] = samples(orchestrator.context)
    elif mode == "warm":
        out["fill"] = timed_pass(runner, orchestrator)
        passes = []
        # The fill counts against the run's seconds.
        deadline = time.perf_counter() + request["seconds"] - out["fill"]["wall_s"]
        while len(passes) < request["min_passes"] or (
            recorder is None and time.perf_counter() < deadline
        ):
            if recorder is not None and len(passes) == 1:
                # The traced pass sits between untraced ones, which are the
                # baseline of its overhead.
                recorder.install()
                out["traced"] = timed_pass(*build())
                recorder.uninstall()
            runner, orchestrator = build()
            passes.append(timed_pass(runner, orchestrator))
            if len(passes) == 1:
                passes[0]["samples"] = samples(orchestrator.context)
        out["passes"] = passes
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    if recorder is not None:
        from spans import summarize

        record = out if mode == "cold" else out["traced"]
        by_name, layers = summarize(
            recorder.spans, record["wall_s"], pooled=request["jobs"] > 1
        )
        out["spans"] = {"by_name": by_name, "layers": layers}
        recorder.write(request["spans_path"])
    out["peak_rss_mb"] = peak_rss_mb()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle, sort_keys=True)


def reference_jobs(request, out_path):
    """Decode each payload as the service does, replay it on ReferenceEngine."""
    import dataclasses

    from repro.service import codec
    from repro.sim.runner import SweepRunner

    with SweepRunner() as runner:
        results = [
            runner.run_one(dataclasses.replace(codec.job_from_payload(payload), engine="reference"))
            for payload in request["payloads"]
        ]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"results": [canonical(result) for result in results]}, handle)


def runner_counters(runner):
    """The runner's public counters after a pass (per-layer counts)."""
    return {
        "simulated": runner.simulate_count,
        "cache_hits": runner.cache_hits,
        "dedup_hits": runner.dedup_hits,
        "pool_batches": runner.pool_batches,
        "trace_bytes_pickled": runner.trace_bytes_pickled,
        "retries": runner.retries,
        "worker_deaths": runner.worker_deaths,
        "quarantined": len(runner.quarantined),
        "shm_segments": runner.shm_segments,
        "fused_rungs": runner.fused_rungs,
        "decode_memo_hits": runner.worker_stats.get("decode_memo_hits", 0),
    }


def pass_results(plans, context, core_kind_type):
    """Every result a pass returned, once each, in plan order."""
    seen = set()
    results = []

    def add(result):
        if id(result) not in seen:
            seen.add(id(result))
            results.append(result)

    for plan in plans:
        for cell in plan.cells:
            core = core_kind_type(cell.core_kind)
            app, org, assoc = cell.application, cell.organization, cell.associativity
            if cell.strategy in ("static", "dynamic"):
                profile = context.static_profile(app, org, cell.target, assoc, core)
                add(profile.baseline)
                for result in profile.results.values():
                    add(result)
                if cell.strategy == "dynamic":
                    add(context.dynamic_run(app, org, cell.target, assoc, core))
            elif cell.strategy == "joint-static":
                for target in ("dcache", "icache"):
                    profile = context.static_profile(app, org, target, assoc)
                    add(profile.baseline)
                    for result in profile.results.values():
                        add(result)
                add(context.joint_static_run(app, org, assoc))
            else:
                add(context.baseline(app, assoc, core))
    return results


def describe_pass(wall, stores, plans, context, core_kind_type):
    """Wall time, job count, instruction count, row digest and model totals."""
    results = pass_results(plans, context, core_kind_type)
    rows = hashlib.sha256()
    for store in stores:
        rows.update(store.spec.name.encode())
        rows.update(json.dumps(store.rows(), sort_keys=True).encode())
    return {
        "wall_s": wall,
        "jobs": len(results),
        "instructions": sum(result.instructions for result in results),
        "rows_digest": rows.hexdigest(),
        "model": model_totals(results),
    }


def model_totals(results):
    """Simulated-hardware totals; exact sums, so they repeat bit for bit."""
    return {
        "l1d_misses": sum(r.l1d_misses for r in results),
        "l1i_misses": sum(r.l1i_misses for r in results),
        "l2_accesses": sum(r.l2_accesses for r in results),
        "resizes": sum(r.l1d_resizes + r.l1i_resizes for r in results),
        "flush_writebacks": sum(r.l1d_flush_writebacks + r.l1i_flush_writebacks for r in results),
        "cycles": math.fsum(r.cycles for r in results),
        "energy_delay": math.fsum(r.energy_delay for r in results),
    }


def sampled_results(context, samples, core_kind_type):
    """(key, result) for every job of each sampled cell."""
    for sample in samples:
        app, org, target, assoc, core, strategy = sample
        core_kind = core_kind_type(core)
        profile = context.static_profile(app, org, target, assoc, core_kind)
        prefix = "|".join(map(str, sample))
        yield prefix + "|baseline", profile.baseline
        for config, result in profile.results.items():
            yield f"{prefix}|{config.label}", result
        if strategy == "dynamic":
            yield prefix + "|dynamic", context.dynamic_run(app, org, target, assoc, core_kind)


def canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
