"""Property-based fused-vs-per-config equivalence for ladder replay.

Hypothesis drives randomly drawn workload mixes, trace lengths (including
odd-length final intervals), warmup boundaries, resizing targets and rung
mixes (static ladders, dynamic rungs, a fixed baseline rung, heterogeneous
both-sides rungs) through :func:`repro.sim.ladder.run_fused` and asserts
byte-identical ``SimulationResult.to_dict()`` payloads against standalone
:meth:`Simulator.run` executions of every rung.  Any divergence — a
mis-shared branch outcome, a pilot-side op wrongly dropped, an interval
closed in the wrong order — fails with a shrunken minimal example.

A second property replays several static ladders back to back on one
trace — drawn organizations, L1 sides and L1 shapes, so the per-trace LRU
stack memo is both hit and re-resolved narrower-then-wider — and compares
every rung's result, variant-L1 stats, L2 stats, memory stats and
write-back buffer with a standalone run.

The L2 geometry is drawn too.  Under the default 512 KB 4-way L2 no drawn
trace puts more distinct blocks in an L2 set than it has ways, so every
ladder with a pilot side resolves its static rungs' L2 from first-touch
bits; an 8 KB 2-way L2 holds fewer frames than any drawn trace touches, so
the gate refuses and the same rungs take the dict-L2 path.  Each example
asserts which of the two outcomes it reached.
"""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from repro.common.config import CacheGeometry, SystemConfig
from repro.common.units import KIB
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.resizing.static_strategy import StaticResizing
from repro.sim import predecode
from repro.sim.engine import get_engine
from repro.sim.ladder import LadderEngine, run_fused
from repro.sim.runner import TraceSpec
from repro.sim.simulator import L1Setup, Simulator

_SYSTEM = SystemConfig()

_SYSTEMS = {
    "default-l2": _SYSTEM,
    "small-l2": replace(
        _SYSTEM, l2=replace(_SYSTEM.l2, geometry=CacheGeometry(8 * KIB, 2, block_bytes=64)),
    ),
}

_APPLICATIONS = st.sampled_from(["gcc", "compress", "swim", "vortex"])

#: Lengths straddle several interval boundaries and deliberately include
#: values that leave an odd-length final interval.
_LENGTHS = st.integers(min_value=1_001, max_value=4_000)

_INTERVALS = st.sampled_from([97, 250, 1_024, 1_500])

_ORGANIZATIONS = st.sampled_from([SelectiveWays, SelectiveSets, HybridSetsAndWays])

#: Ladder shapes: which side resizes (exercising both pilot paths), whether
#: a fixed baseline rung rides along, and whether a rung resizes
#: dynamically.  "both" forces the heterogeneous general path.
_TARGETS = st.sampled_from(["d", "i", "both"])
_WITH_BASELINE = st.booleans()
_WITH_DYNAMIC = st.booleans()


def _build_setups(factory, target, with_baseline, with_dynamic):
    """Fresh, stateful setup objects for one ladder (standalone or fused)."""

    def one_side(side):
        # Both drawn systems share the default L1 geometries.
        geometry = _SYSTEM.l1d if side == "d" else _SYSTEM.l1i
        organization = factory(geometry)
        ladder = organization.ladder()
        rungs = [
            L1Setup(factory(geometry), StaticResizing(config))
            for config in (ladder[0], ladder[min(1, len(ladder) - 1)])
        ]
        if with_dynamic:
            rungs.append(
                L1Setup(
                    factory(geometry),
                    DynamicResizing(
                        miss_bound=0.02,
                        size_bound_bytes=8 * 1024,
                        sense_interval_accesses=256,
                    ),
                )
            )
        return rungs

    if target == "both":
        setups = [
            (d_setup, i_setup)
            for d_setup, i_setup in zip(one_side("d"), one_side("i"))
        ]
    elif target == "d":
        setups = [(setup, None) for setup in one_side("d")]
    else:
        setups = [(None, setup) for setup in one_side("i")]
    if with_baseline:
        setups.insert(0, (None, None))
    return setups


@given(
    application=_APPLICATIONS,
    length=_LENGTHS,
    interval=_INTERVALS,
    warmup_fraction=st.sampled_from([0.0, 0.13, 0.5]),
    factory=_ORGANIZATIONS,
    target=_TARGETS,
    with_baseline=_WITH_BASELINE,
    with_dynamic=_WITH_DYNAMIC,
    l2=st.sampled_from(sorted(_SYSTEMS)),
)
@example(application="gcc", length=3_001, interval=1_024, warmup_fraction=0.13,
         factory=SelectiveWays, target="d", with_baseline=True, with_dynamic=False,
         l2="default-l2")
@example(application="gcc", length=3_001, interval=1_024, warmup_fraction=0.13,
         factory=SelectiveWays, target="i", with_baseline=True, with_dynamic=False,
         l2="small-l2")
@settings(max_examples=15, deadline=None)
def test_fused_ladder_agrees_with_standalone_runs(
    application, length, interval, warmup_fraction, factory, target,
    with_baseline, with_dynamic, l2,
):
    system = _SYSTEMS[l2]
    trace = TraceSpec(application, length).materialize()
    warmup = int(length * warmup_fraction)

    standalone = [
        Simulator(system).run(
            trace,
            d_setup=d_setup,
            i_setup=i_setup,
            interval_instructions=interval,
            warmup_instructions=warmup,
        ).to_dict()
        for d_setup, i_setup in _build_setups(factory, target, with_baseline, with_dynamic)
    ]
    predecode.reset_stats()
    fused = [
        result.to_dict()
        for result in run_fused(
            Simulator(system),
            trace,
            _build_setups(factory, target, with_baseline, with_dynamic),
            interval_instructions=interval,
            warmup_instructions=warmup,
        )
    ]
    assert fused == standalone
    stats = predecode.stats_snapshot()
    outcome = (stats["l2_resident_ladders"], stats["l2_resident_refusals"])
    if target == "both":
        assert outcome == (0, 0)  # no pilot side, so no gate
    elif l2 == "default-l2":
        assert outcome == (1, 0)
    else:
        assert outcome == (0, 1)


#: Variant-L1 shapes whose set counts overlap (8 KB 2-way and 32 KB 16-way
#: share 64 and 32 sets at different depths), so a later ladder can need a
#: deeper pass than an earlier one left in the memo.
_L1_SHAPES = {
    "8K-2way": CacheGeometry(8 * KIB, 2),
    "16K-4way": CacheGeometry(16 * KIB, 4),
    "32K-2way": CacheGeometry(32 * KIB, 2),
    "32K-16way": CacheGeometry(32 * KIB, 16),
}


def _observable(ctx, variant):
    hierarchy = ctx.hierarchy
    buffer = hierarchy.writeback_buffer
    return (
        Simulator._finalize_run(ctx).to_dict(),
        getattr(hierarchy, variant).stats.as_dict(),
        hierarchy.l2.stats.as_dict(),
        hierarchy.memory.stats.as_dict(),
        (buffer.enqueued, buffer.overflows, buffer.drained, list(buffer._pending)),
    )


@given(
    application=_APPLICATIONS,
    length=st.integers(min_value=1_001, max_value=3_000),
    interval=_INTERVALS,
    warmup_fraction=st.sampled_from([0.0, 0.3]),
    ladders=st.lists(
        st.tuples(_ORGANIZATIONS, st.sampled_from(sorted(_L1_SHAPES)), st.sampled_from("di")),
        min_size=2, max_size=4,
    ),
)
@example(application="vortex", length=2_001, interval=250, warmup_fraction=0.3,
         ladders=[(SelectiveSets, "8K-2way", "d"), (SelectiveWays, "32K-16way", "d"),
                  (HybridSetsAndWays, "8K-2way", "d")])
@settings(max_examples=15, deadline=None)
def test_back_to_back_ladders_share_the_stack_memo(
    application, length, interval, warmup_fraction, ladders,
):
    trace = TraceSpec(application, length).materialize()
    warmup = int(length * warmup_fraction)
    predecode.reset_stats()
    rungs = 0
    for factory, shape, side in ladders:
        geometry = _L1_SHAPES[shape]
        variant = "l1" + side
        system = replace(_SYSTEM, **{variant: geometry})

        def setups():
            ladder = [L1Setup(factory(geometry), StaticResizing(config))
                      for config in factory(geometry).ladder()]
            return [(setup, None) if side == "d" else (None, setup) for setup in ladder]

        simulator = Simulator(system)
        fused = [simulator._prepare_run(trace, d, i, interval, warmup) for d, i in setups()]
        LadderEngine().replay_many(trace, fused)
        for ctx, (d_setup, i_setup) in zip(fused, setups()):
            alone = simulator._prepare_run(trace, d_setup, i_setup, interval, warmup)
            get_engine("columnar").replay(trace, alone)
            assert _observable(ctx, variant) == _observable(alone, variant)
        rungs += len(fused)
    assert predecode.stats_snapshot()["stack_rungs"] == rungs
