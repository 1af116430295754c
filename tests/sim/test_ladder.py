"""Tests for the fused multi-configuration ladder replay.

Three layers are covered here:

* **Engine equivalence** — :func:`repro.sim.ladder.run_fused` must produce
  ``SimulationResult.to_dict()`` payloads bit-identical to standalone runs
  for every rung, across all three paper organizations, both L1 targets
  (exercising both pilot sides), warmup boundaries, odd final intervals,
  dynamic rungs and the heterogeneous general path — and equal to *both*
  single-run engines, since engines are bit-identical by contract.  The
  L2-resident cases (gate refused, dirty victims through a one-entry
  write-back buffer, a dynamic rung beside static ones) also compare each
  rung's L2, memory and write-back-buffer state.
* **Job layer** — :class:`LadderJob` validation, worker execution and the
  per-rung cache fan-out of :meth:`SweepRunner.submit_ladder`, including
  the partially-warm case (only missing rungs are fused) and the
  ``fused_rungs`` / ``fused_skipped`` counters.
* **Sweep integration** — ``submit_profile_static`` collapsing a ladder
  into one fused execution while remaining byte-identical to the
  per-config mode, with both modes serving each other's warm caches.
"""

from dataclasses import replace

import pytest

from repro.__main__ import transport_stats_line
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.replacement import ReplacementPolicy
from repro.common.config import CacheGeometry, SystemConfig
from repro.common.units import KIB
from repro.common.errors import SimulationError
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.resizing.static_strategy import StaticResizing
from repro.sim import predecode
from repro.sim.engine import get_engine
from repro.sim.jobcache import JobCache
from repro.sim.ladder import LadderEngine, run_fused
from repro.sim.runner import (
    L1SetupSpec,
    LadderJob,
    SimJob,
    StrategySpec,
    SweepRunner,
    TraceSpec,
    execute_ladder_job,
)
from repro.sim.simulator import L1Setup, Simulator
from repro.sim.sweep import (
    DCACHE,
    FUSED,
    ICACHE,
    PER_CONFIG,
    make_job,
    profile_static,
    submit_profile_static,
)
from repro.workloads.trace import InstructionRecord, Trace

ORGANIZATIONS = [SelectiveWays, SelectiveSets, HybridSetsAndWays]


@pytest.fixture(scope="module")
def system():
    return SystemConfig()


@pytest.fixture(scope="module")
def trace():
    return TraceSpec("gcc", 6_000).materialize()


def _ladder_setups(system, factory, target):
    """Baseline rung + one static rung per ladder size, targeting one L1."""
    geometry = system.l1d if target == DCACHE else system.l1i
    setups = [(None, None)]
    for config in factory(geometry).ladder():
        setup = L1Setup(factory(geometry), StaticResizing(config))
        setups.append((setup, None) if target == DCACHE else (None, setup))
    return setups


class TestEngineEquivalence:
    @pytest.mark.parametrize("factory", ORGANIZATIONS)
    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_fused_matches_standalone_grid(self, system, trace, factory, target, engine):
        """The deterministic grid: organizations × targets × engines.

        Warmup deliberately off interval boundaries, and the trace length
        leaves an odd final interval.  The per-config side runs under both
        registered engines — fused output must match each, which pins the
        fused pass to the whole engine-equivalence class at once.
        """
        interval, warmup = 997, 1_234
        standalone = [
            Simulator(system, engine=engine).run(
                trace,
                d_setup=d_setup,
                i_setup=i_setup,
                interval_instructions=interval,
                warmup_instructions=warmup,
            ).to_dict()
            for d_setup, i_setup in _ladder_setups(system, factory, target)
        ]
        fused = [
            result.to_dict()
            for result in run_fused(
                Simulator(system),
                trace,
                _ladder_setups(system, factory, target),
                interval_instructions=interval,
                warmup_instructions=warmup,
            )
        ]
        assert fused == standalone
        # Static rungs must stay mid-run-resize-free in both paths: the
        # only resize is the up-front jump to the profiled configuration,
        # applied to an empty cache (so it can never flush dirty blocks).
        for payload in fused[1:]:
            resizes = payload["l1d_resizes" if target == DCACHE else "l1i_resizes"]
            flushes = payload[
                "l1d_flush_writebacks" if target == DCACHE else "l1i_flush_writebacks"
            ]
            assert resizes <= 1
            assert flushes == 0

    def test_fused_matches_standalone_dynamic_rungs(self, system, trace):
        """Dynamic strategies resize mid-run; the pilot path must still agree."""
        def setups():
            return [
                (L1Setup(
                    SelectiveSets(system.l1d),
                    DynamicResizing(0.02, 8 * 1024, sense_interval_accesses=256),
                ), None),
                (L1Setup(
                    SelectiveSets(system.l1d),
                    DynamicResizing(0.05, 16 * 1024, sense_interval_accesses=512),
                ), None),
                (None, None),
            ]

        standalone = [
            Simulator(system).run(
                trace, d_setup=d, i_setup=i, warmup_instructions=600
            ).to_dict()
            for d, i in setups()
        ]
        fused = [
            result.to_dict()
            for result in run_fused(
                Simulator(system), trace, setups(), warmup_instructions=600
            )
        ]
        assert fused == standalone

    def test_fused_matches_standalone_heterogeneous(self, system, trace):
        """Rungs resizing *both* L1s take the general path; still identical."""
        def setups():
            return [
                (
                    L1Setup(
                        SelectiveSets(system.l1d),
                        DynamicResizing(0.03, 8 * 1024, sense_interval_accesses=512),
                    ),
                    L1Setup(
                        SelectiveWays(system.l1i),
                        DynamicResizing(0.01, 8 * 1024, sense_interval_accesses=512),
                    ),
                ),
                (None, None),
                (
                    None,
                    L1Setup(
                        SelectiveWays(system.l1i),
                        StaticResizing(SelectiveWays(system.l1i).ladder()[1]),
                    ),
                ),
            ]

        standalone = [
            Simulator(system).run(trace, d_setup=d, i_setup=i).to_dict()
            for d, i in setups()
        ]
        fused = [r.to_dict() for r in run_fused(Simulator(system), trace, setups())]
        assert fused == standalone

    def test_single_rung_fused_equals_plain_run(self, system, trace):
        fused = run_fused(Simulator(system), trace, [(None, None)])
        assert len(fused) == 1
        assert fused[0].to_dict() == Simulator(system).run(trace).to_dict()

    def test_run_fused_validates_inputs(self, system, trace):
        with pytest.raises(SimulationError, match="at least one rung"):
            run_fused(Simulator(system), trace, [])
        with pytest.raises(SimulationError, match="interval length"):
            run_fused(Simulator(system), trace, [(None, None)], interval_instructions=0)

    def test_replay_many_rejects_mismatched_contexts(self, system, trace):
        simulator = Simulator(system)
        contexts = [
            simulator._prepare_run(trace, None, None, 1_500, 0),
            simulator._prepare_run(trace, None, None, 1_000, 0),
        ]
        with pytest.raises(SimulationError, match="share the interval"):
            LadderEngine().replay_many(trace, contexts)

    def test_replay_many_accepts_empty_context_list(self, trace):
        LadderEngine().replay_many(trace, [])  # no-op, not an error


def _synthetic_trace(name, addresses, stores):
    """A 4k-row trace cycling ``addresses`` (every other row a data access).

    Instructions loop over a 64-instruction code block whose L2 sets no
    data address shares, so the sets the data addresses land in see only
    them.  With ``stores``, two of every three data accesses are stores.
    """
    records = []
    for row in range(4_000):
        pc = 0x1000 + 4 * (row % 64)
        if row % 2:
            k = row // 2
            address = addresses[k % len(addresses)]
            records.append(InstructionRecord(pc, address, stores and k % 3 != 2, False, False))
        else:
            records.append(InstructionRecord(pc, None, False, row % 16 == 0, row % 32 == 0))
    return Trace.from_records(name, records)


def _observable(ctx, variant):
    """Everything a rung's run leaves behind that a replay path could skew.

    ``variant`` names the L1 the ladder resizes ("l1d" or "l1i"); the other
    L1 is the pilot, idle in fused rungs by design.
    """
    hierarchy = ctx.hierarchy
    buffer = hierarchy.writeback_buffer
    return {
        "result": Simulator._finalize_run(ctx).to_dict(),
        "l1": getattr(hierarchy, variant).stats.as_dict(),
        "l2": hierarchy.l2.stats.as_dict(),
        "memory": hierarchy.memory.stats.as_dict(),
        "writeback_buffer": (
            buffer.enqueued, buffer.overflows, buffer.drained, list(buffer._pending),
        ),
    }


def _fused_vs_standalone(system, trace, setups, interval=500, prepare=lambda ctx: None,
                         variant="l1d", warmup=300):
    """Replay ``setups()`` fused and one by one on the columnar engine.

    ``prepare`` runs on every fresh context before its replay.  Returns
    the fused contexts, their observables and the standalone observables,
    rung for rung.
    """
    simulator = Simulator(system)
    fused = [simulator._prepare_run(trace, d, i, interval, warmup) for d, i in setups()]
    for ctx in fused:
        prepare(ctx)
    LadderEngine().replay_many(trace, fused)
    standalone = []
    for d, i in setups():
        ctx = simulator._prepare_run(trace, d, i, interval, warmup)
        prepare(ctx)
        get_engine("columnar").replay(trace, ctx)
        standalone.append(_observable(ctx, variant))
    return fused, [_observable(ctx, variant) for ctx in fused], standalone


def _variant(target):
    return "l1d" if target == DCACHE else "l1i"


def _l2_built(ctx) -> bool:
    return ctx.hierarchy.l2._set_blocks is not None


def _built(ctx, cache) -> bool:
    return getattr(ctx.hierarchy, cache)._set_blocks is not None


def _gate_outcome():
    stats = predecode.stats_snapshot()
    return stats["l2_resident_ladders"], stats["l2_resident_refusals"], stats["stack_rungs"]


class TestL2ResidentMode:
    """Static rungs over an L2 that can never evict resolve from the stack pass.

    Such a rung's variant L1 comes from the shared LRU stack pass and its
    L2 from first-touch counts.  Each case compares every rung's result,
    variant-L1 stats, L2 stats, memory stats and write-back buffer with a
    standalone run, and checks which path ran: a stack-resolved rung never
    builds its L2's or its variant L1's set storage.
    """

    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    def test_over_full_l2_set_refuses(self, system, target):
        l2 = system.l2.geometry
        stride = l2.num_sets * l2.block_bytes
        ways = l2.associativity
        trace = _synthetic_trace("l2-set-overflow", [k * stride for k in range(ways + 1)], True)
        predecode.reset_stats()
        fused, observed, standalone = _fused_vs_standalone(
            system, trace, lambda: _ladder_setups(system, SelectiveWays, target),
            variant=_variant(target),
        )
        assert observed == standalone
        assert _gate_outcome() == (0, 1, 0)
        assert all(_l2_built(ctx) for ctx in fused)
        # The L2 really evicted: more read misses than distinct blocks.
        assert standalone[0]["l2"]["misses"] > ways + 1

    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    def test_dirty_victims_through_a_one_entry_buffer(self, system, target):
        tight = replace(system, core=replace(system.core, writeback_buffer_entries=1))
        l1_stride = system.l1d.num_sets * system.l1d.block_bytes
        # Four blocks, mostly stored to, cycling through one 2-way L1d set:
        # misses keep evicting dirty victims, all in distinct L2 sets.
        trace = _synthetic_trace("dirty-victims", [k * l1_stride for k in range(4)], True)
        predecode.reset_stats()
        rungs = len(_ladder_setups(tight, SelectiveWays, target))
        fused, observed, standalone = _fused_vs_standalone(
            tight, trace, lambda: _ladder_setups(tight, SelectiveWays, target),
            variant=_variant(target),
        )
        assert observed == standalone
        assert _gate_outcome() == (1, 0, rungs)
        assert not any(_l2_built(ctx) or _built(ctx, _variant(target)) for ctx in fused)
        for payload in standalone:
            enqueued, overflows, drained, pending = payload["writeback_buffer"]
            assert enqueued > 100 and overflows == enqueued - 1 == drained
            assert len(pending) == 1
            assert payload["l2"]["writes"] == enqueued
            assert payload["memory"]["writes"] == 0

    def test_prewarmed_l1_keeps_the_dict_path(self, system):
        # A block already in the L1d never reaches the L2 on its first
        # touch, so once the L1d evicts it the next read misses in the L2
        # though the stream's first-touch count says it should hit.
        l1_stride = system.l1d.num_sets * system.l1d.block_bytes
        trace = _synthetic_trace("prewarmed", [k * l1_stride for k in range(4)], False)
        predecode.reset_stats()
        fused, observed, standalone = _fused_vs_standalone(
            system, trace, lambda: _ladder_setups(system, SelectiveWays, DCACHE),
            prepare=lambda ctx: ctx.hierarchy.l1d.access(0),
        )
        assert observed == standalone
        assert _gate_outcome() == (0, 0, 0)
        assert all(_l2_built(ctx) for ctx in fused)

    def test_reset_stats_does_not_make_a_prewarmed_l1_cold(self, system):
        # reset_stats zeroes the counters and keeps the warm block, so a
        # gate reading counters would take the stack path and diverge.
        l1_stride = system.l1d.num_sets * system.l1d.block_bytes
        trace = _synthetic_trace("prewarmed-reset", [k * l1_stride for k in range(4)], False)

        def prepare(ctx):
            ctx.hierarchy.l1d.access(0)
            ctx.hierarchy.reset_stats()

        predecode.reset_stats()
        fused, observed, standalone = _fused_vs_standalone(
            system, trace, lambda: _ladder_setups(system, SelectiveWays, DCACHE),
            prepare=prepare,
        )
        assert observed == standalone
        assert _gate_outcome() == (0, 0, 0)
        assert all(_l2_built(ctx) for ctx in fused)

    def test_reset_stats_does_not_make_a_prewarmed_pilot_cold(self, system):
        # The trace's first fetch block already sits in every rung's L1i:
        # the cold-pilot memo would count its first fetch as a miss.
        trace = _synthetic_trace("prewarmed-pilot", [0x40_000, 0x80_000], True)

        def prepare(ctx):
            ctx.hierarchy.l1i.access(0x1000)
            ctx.hierarchy.reset_stats()

        predecode.reset_stats()
        fused, observed, standalone = _fused_vs_standalone(
            system, trace, lambda: _ladder_setups(system, SelectiveWays, DCACHE),
            prepare=prepare,
        )
        assert observed == standalone
        stats = predecode.stats_snapshot()
        assert (stats["pilot_builds"], stats["pilot_memo_hits"]) == (0, 0)
        assert _gate_outcome() == (0, 0, 0)

    def test_fifo_variant_l1_takes_the_dict_path(self, system, trace):
        def prepare(ctx):
            ctx.hierarchy = CacheHierarchy(
                system, l1i=ctx.hierarchy.l1i,
                l1d=Cache(system.l1d, ReplacementPolicy.FIFO, name="l1d"),
            )

        predecode.reset_stats()
        fused, observed, standalone = _fused_vs_standalone(
            system, trace, lambda: [(None, None), (None, None)], prepare=prepare,
        )
        assert observed == standalone
        assert _gate_outcome() == (0, 0, 0)
        assert all(_l2_built(ctx) and _built(ctx, "l1d") for ctx in fused)

    def test_object_api_variant_l1_takes_the_general_path(self, system, trace):
        class ObjectOnlyL1:
            """An L1 offering only the object API (no packed kernel state)."""

            def __init__(self, inner):
                self._inner = inner
                self.stats = inner.stats

            def access(self, address, is_write=False):
                return self._inner.access(address, is_write)

        def prepare(ctx):
            ctx.hierarchy = CacheHierarchy(
                system, l1i=ctx.hierarchy.l1i,
                l1d=ObjectOnlyL1(Cache(system.l1d, name="l1d")),
            )

        predecode.reset_stats()
        fused, observed, standalone = _fused_vs_standalone(
            system, trace, lambda: [(None, None), (None, None)], prepare=prepare,
        )
        assert observed == standalone
        # No pilot: every rung drives its own L1i and L2.
        assert predecode.stats_snapshot()["pilot_builds"] == 0
        assert all(_l2_built(ctx) and _built(ctx, "l1i") for ctx in fused)

    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    def test_warmup_with_a_partial_final_interval(self, system, trace, target):
        assert len(trace) % 700 != 0
        rungs = len(_ladder_setups(system, HybridSetsAndWays, target))
        predecode.reset_stats()
        fused, observed, standalone = _fused_vs_standalone(
            system, trace, lambda: _ladder_setups(system, HybridSetsAndWays, target),
            interval=700, warmup=1_900, variant=_variant(target),
        )
        assert observed == standalone
        assert _gate_outcome() == (1, 0, rungs)
        assert not any(_built(ctx, _variant(target)) for ctx in fused)

    def test_wider_ladder_re_resolves_the_shared_stack(self, system):
        # A 2-way L1d ladder resolves 64 and 32 sets 2 deep; a 32 KB 16-way
        # ladder on the same trace needs them 16 deep, re-resolves them as
        # deep as 32 KB allows (16 and 32 ways), and the narrow ladder then
        # runs again off the wide passes.
        trace = TraceSpec("vortex", 4_000).materialize()
        narrow = replace(system, l1d=CacheGeometry(8 * KIB, 2))
        wide = replace(system, l1d=CacheGeometry(32 * KIB, 16))
        predecode.reset_stats()
        for ladder_system, passes, hits in ((narrow, 3, 0), (wide, 5, 0), (narrow, 5, 3)):
            fused, observed, standalone = _fused_vs_standalone(
                ladder_system, trace,
                lambda: _ladder_setups(ladder_system, SelectiveSets, DCACHE),
            )
            assert observed == standalone
            stats = predecode.stats_snapshot()
            assert (stats["stack_passes"], stats["stack_memo_hits"]) == (passes, hits)

    def test_dynamic_rung_keeps_the_dict_path(self, system, trace):
        geometry = system.l1d

        def setups():
            return [
                (None, None),
                (L1Setup(
                    SelectiveSets(geometry), StaticResizing(SelectiveSets(geometry).ladder()[1]),
                ), None),
                (L1Setup(
                    SelectiveSets(geometry),
                    DynamicResizing(40, 2 * 1024, sense_interval_accesses=128),
                ), None),
            ]

        predecode.reset_stats()
        fused, observed, standalone = _fused_vs_standalone(system, trace, setups)
        assert observed == standalone
        assert _gate_outcome() == (1, 0, 2)
        assert [_l2_built(ctx) for ctx in fused] == [False, False, True]
        # The dynamic rung resizes mid-run and flushes dirty blocks into L2.
        assert standalone[2]["result"]["l1d_flush_writebacks"] > 0


def _rung_jobs(system, organization, interval=500, n_instructions=3_000):
    """Baseline + whole-ladder rung jobs sharing one trace spec."""
    trace = TraceSpec("m88ksim", n_instructions)
    jobs = [SimJob(trace=trace, system=system, interval_instructions=interval)]
    for config in organization.ladder():
        jobs.append(
            SimJob(
                trace=trace,
                system=system,
                d_setup=L1SetupSpec(
                    organization=organization.name,
                    strategy=StrategySpec.static(config),
                ),
                interval_instructions=interval,
            )
        )
    return jobs


@pytest.fixture(scope="module")
def organization(system):
    return SelectiveSets(system.l1d)


@pytest.fixture(scope="module")
def ladder_jobs(system, organization):
    return _rung_jobs(system, organization)


class TestLadderJob:
    def test_rejects_empty_ladder(self):
        with pytest.raises(SimulationError, match="at least one rung"):
            LadderJob([])

    def test_rejects_mismatched_rungs(self, system, ladder_jobs):
        stranger = SimJob(
            trace=TraceSpec("gcc", 3_000), system=system, interval_instructions=500
        )
        with pytest.raises(SimulationError, match="share the trace"):
            LadderJob([ladder_jobs[0], stranger])
        longer_warmup = SimJob(
            trace=TraceSpec("m88ksim", 3_000), system=system,
            interval_instructions=500, warmup_instructions=100,
        )
        with pytest.raises(SimulationError, match="share the trace"):
            LadderJob([ladder_jobs[0], longer_warmup])

    def test_execute_ladder_job_matches_per_rung_execution(self, ladder_jobs):
        from repro.sim.runner import execute_job

        fused = execute_ladder_job(LadderJob(list(ladder_jobs)))
        standalone = [execute_job(job) for job in ladder_jobs]
        assert [r.to_dict() for r in fused] == [r.to_dict() for r in standalone]

    def test_describe_lists_every_rung(self, ladder_jobs):
        summary = LadderJob(list(ladder_jobs)).describe()
        assert len(summary["fused_rungs"]) == len(ladder_jobs)
        assert summary["fused_rungs"][0] == "fixed + fixed"
        assert "selective-sets/static" in summary["fused_rungs"][1]


class TestSubmitLadder:
    def test_cold_ladder_fuses_every_rung(self, ladder_jobs):
        runner = SweepRunner()
        futures = runner.submit_ladder(ladder_jobs)
        assert runner.pending_count == 1  # one fused execution, K rungs
        results = runner.gather(futures)
        assert runner.fused_rungs == len(ladder_jobs)
        assert runner.fused_skipped == 0
        assert runner.simulate_count == len(ladder_jobs)
        standalone = SweepRunner().run(list(ladder_jobs))
        assert [r.to_dict() for r in results] == [r.to_dict() for r in standalone]

    def test_parallel_fused_identical_to_serial(self, ladder_jobs):
        serial = SweepRunner().gather(SweepRunner().submit_ladder(ladder_jobs))
        with SweepRunner(jobs=2) as runner:
            parallel = runner.gather(runner.submit_ladder(ladder_jobs))
            assert runner.pool_batches == 1
            assert runner.inline_executions == 0
            # The worker's gate outcome reaches the parent's --stats line.
            assert runner.worker_stats["l2_resident_ladders"] == 1
            assert runner.worker_stats["stack_rungs"] == len(ladder_jobs)
            line = transport_stats_line(runner)
            assert "1 L2-resident ladder(s), 0 L2-resident refusal(s)" in line
            assert f"{len(ladder_jobs)} stack rung(s)" in line
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_fused_results_fan_out_to_per_rung_fingerprints(self, tmp_path, ladder_jobs):
        """A fused pass warms the cache exactly as K per-config jobs would."""
        cache = JobCache(tmp_path / "cache")
        fused = SweepRunner(cache=cache)
        fused.gather(fused.submit_ladder(ladder_jobs))
        assert len(cache) == len(ladder_jobs)

        per_config = SweepRunner(cache=cache)
        per_config.run(list(ladder_jobs))
        assert per_config.simulate_count == 0
        assert per_config.cache_hits == len(ladder_jobs)

    def test_warm_ladder_fuses_nothing(self, tmp_path, ladder_jobs):
        cache = JobCache(tmp_path / "cache")
        cold = SweepRunner(cache=cache)
        cold_results = cold.gather(cold.submit_ladder(ladder_jobs))

        warm = SweepRunner(cache=cache)
        futures = warm.submit_ladder(ladder_jobs)
        assert all(future.done() for future in futures)
        assert warm.fused_skipped == len(ladder_jobs)
        assert warm.fused_rungs == 0
        assert warm.simulate_count == 0
        assert warm.pending_count == 0
        warm_results = warm.gather(futures)
        assert [r.to_dict() for r in warm_results] == [
            r.to_dict() for r in cold_results
        ]

    def test_partially_warm_ladder_fuses_only_missing_rungs(self, tmp_path, ladder_jobs):
        """Per-rung cache consultation at submit time: rungs simulated by an
        earlier per-config run are served from disk, the rest fuse."""
        cache = JobCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(list(ladder_jobs[:2]))

        partial = SweepRunner(cache=cache)
        futures = partial.submit_ladder(ladder_jobs)
        assert partial.fused_skipped == 2
        assert partial.fused_rungs == len(ladder_jobs) - 2
        results = partial.gather(futures)
        assert partial.simulate_count == len(ladder_jobs) - 2
        standalone = SweepRunner().run(list(ladder_jobs))
        assert [r.to_dict() for r in results] == [r.to_dict() for r in standalone]

    def test_duplicate_rungs_share_one_execution(self, system, ladder_jobs):
        runner = SweepRunner()
        futures = runner.submit_ladder([ladder_jobs[0], ladder_jobs[1], ladder_jobs[0]])
        assert futures[0] is futures[2]
        assert runner.fused_skipped == 1  # the duplicate
        assert runner.fused_rungs == 2
        runner.drain()
        assert runner.simulate_count == 2

    def test_ladder_failure_fails_every_missing_rung(self, ladder_jobs):
        from repro.common.errors import WorkloadError

        bad = SimJob(
            trace=TraceSpec("no-such-app", 3_000),
            system=ladder_jobs[0].system,
            interval_instructions=500,
        )
        runner = SweepRunner()
        # The bad rung shares every fused field (trace spec equality is on
        # the spec, which only fails at materialisation time in the worker).
        futures = runner.submit_ladder([bad])
        runner.drain()
        assert futures[0].failed()
        with pytest.raises(WorkloadError):
            futures[0].result()


class TestSweepIntegration:
    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    def test_profile_static_modes_identical(self, system, organization, target):
        trace = TraceSpec("m88ksim", 3_000)
        simulator = Simulator(system)
        profiles = {}
        for mode in (FUSED, PER_CONFIG):
            profiles[mode] = profile_static(
                simulator, trace, organization, target=target,
                warmup_instructions=300, runner=SweepRunner(), ladder_mode=mode,
            )
        fused, per_config = profiles[FUSED], profiles[PER_CONFIG]
        assert fused.best_config == per_config.best_config
        assert fused.baseline.to_dict() == per_config.baseline.to_dict()
        for config in organization.ladder():
            assert fused.results[config].to_dict() == per_config.results[config].to_dict()

    def test_submit_profile_static_fuses_baseline_and_ladder(self, system, organization):
        runner = SweepRunner()
        profile = submit_profile_static(
            runner, Simulator(system), TraceSpec("m88ksim", 3_000), organization,
            target=DCACHE, warmup_instructions=300,
        )
        # Baseline + whole ladder ride one fused execution.
        assert runner.pending_count == 1
        assert runner.fused_rungs == len(organization.ladder()) + 1
        profile.result()
        assert runner.simulate_count == len(organization.ladder()) + 1

    def test_shared_baseline_future_is_not_refused(self, system, organization):
        from repro.sim.sweep import submit_baseline

        runner = SweepRunner()
        simulator = Simulator(system)
        trace = TraceSpec("m88ksim", 3_000)
        baseline = submit_baseline(runner, simulator, trace, warmup_instructions=300)
        profile = submit_profile_static(
            runner, simulator, trace, organization,
            target=DCACHE, baseline=baseline, warmup_instructions=300,
        )
        assert profile.baseline is baseline
        profile.result()
        # Baseline simulated once (as its own job), ladder fused.
        assert runner.simulate_count == len(organization.ladder()) + 1
        assert runner.fused_rungs == len(organization.ladder())

    def test_unknown_ladder_mode_rejected(self, system, organization):
        with pytest.raises(SimulationError, match="unknown ladder mode"):
            submit_profile_static(
                SweepRunner(), Simulator(system), TraceSpec("m88ksim", 3_000),
                organization, ladder_mode="vectorized",
            )

    def test_fused_and_per_config_make_identical_jobs(self, system, organization):
        """Both modes fingerprint rungs identically — the cache contract."""
        simulator = Simulator(system)
        trace = TraceSpec("m88ksim", 3_000)
        config = organization.ladder()[0]
        spec = L1SetupSpec(
            organization=organization.name,
            strategy=StrategySpec.static(config),
            geometry=organization.geometry,
        )
        job = make_job(simulator, trace, d_setup=spec, warmup_instructions=300)

        runner = SweepRunner()
        submit_profile_static(
            runner, simulator, trace, organization,
            target=DCACHE, warmup_instructions=300,
        )
        fingerprints = [
            fp
            for entry in runner._pending
            for fp in entry.fingerprints
        ]
        assert job.fingerprint() in fingerprints
