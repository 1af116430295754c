"""Fused multi-configuration ladder replay.

The paper extracts static sizes and the dynamic framework's miss/size
bounds "offline through profiling", so every figure multiplies replay cost
by the organization's whole resizing ladder: K configurations of the same
L1 against the *same trace*.  Replaying the ladder as K independent
simulations decodes the op stream, models the branches and walks the
intervals K times to feed K cache kernels — all of it redundant, because
none of that work depends on cache configuration.

Architecture
------------
:class:`LadderEngine` replays one trace through K
:class:`~repro.sim.engine.ReplayContext` objects in a single pass.  Per
interval it

1. slices the trace columns and runs :func:`~repro.sim.engine.decode_interval`
   **once** — fetch-block dedup, branch prediction and memory-op extraction
   are configuration-independent, so the resulting cache-op stream and the
   branch/store/reference totals are shared verbatim by every rung;
2. resolves the *invariant* L1 side once on a pilot cache (see below),
   shrinking the stream to the ops that can differ per rung;
3. dispatches the reduced stream to each rung's hierarchy through its
   allocation-free packed kernels, accumulating that rung's interval
   counts; and
4. closes the interval on each context, so timing/energy aggregation,
   warmup accounting and per-rung resizing decisions run exactly as they
   would standalone (:meth:`ReplayContext.close_interval` is shared by
   construction).

The branch predictor is run once, on the first context's predictor: every
standalone run starts from an identical fresh predictor and the predictor
shares no state with the caches, so each rung's per-interval mispredict
totals are identical to its standalone run's by construction.  The same
argument covers the fetch-block dedup state.

**Pilot resolution of the invariant side.**  A profiling ladder resizes
exactly one L1; the other is the full-size fixed cache in every rung.  A
fixed L1's hit/miss (and dirty-victim) sequence depends only on its own
access stream — which is shared — so it is *identical across rungs*.  The
fused pass therefore drives the first context's copy of that cache (the
"pilot") once per op and shares the outcome:

* an L1 *hit* touches no per-rung state at all (the packed replay path
  never consumes latency — cycles come from the interval counts), so the
  op vanishes from the per-rung stream and is folded into a shared count;
* an L1 *miss* stays in the stream, pre-resolved (for the data side the
  pilot's packed outcome rides along, carrying the victim-writeback bit),
  and each rung performs only the L2/memory fill — the part that really
  does depend on that rung's L2 contents.

Per-rung work then shrinks to: variant-L1 kernel accesses, plus L2/memory
fills for the (rare) invariant-side misses and the variant side's misses.

**L2-resident rungs.**  When no L2 set receives more distinct L2 blocks
over the pilot-reduced stream than it has ways
(:func:`repro.sim.predecode.resident_for` checks this once per trace,
pilot side and L2 geometry), no rung's L2 can ever evict.  Every block an
L2 sees is the L2 block of an op in that stream, and the first op to
touch a block is a compulsory L1 miss in every rung, so an L2 read hits
exactly when the op does not carry the stream's first-touch bit, every
dirty-L1-victim spill is a write hit and memory sees one read per first
touch — whatever a rung's L1 does.  Rungs that start cold and cannot
resize mid-run (no strategy or :class:`StaticResizing`) over a stock L2
and memory then run ``_fold_resident_d`` / ``_fold_resident_i``: the
variant L1 inline plus counter bumps, with no L2 dict work.  Dynamic
rungs, sampled walks and gate refusals keep the dict-L2 folds.  Everything
configuration-*dependent* — cache contents, resize decisions, flush
writebacks, energy, cycles — stays in per-rung state, which is why every
rung's :class:`~repro.sim.results.SimulationResult` is **bit-identical**
to a standalone run of the columnar engine (enforced by
``tests/sim/test_ladder.py`` and ``tests/properties/test_property_ladder.py``).
Heterogeneous ladders where *both* L1 setups vary across rungs fall back
to re-dispatching the full shared stream per rung — still decoding once.

One caveat: the invariant-side cache *objects* of rungs 1..K-1 are never
driven (the pilot is rung 0's copy), so their internal hit/miss counters
stay zero.  Nothing in result assembly reads them — interval accounting
works entirely off :class:`~repro.metrics.counts.IntervalCounts` — but
introspecting ``hierarchy.miss_ratios()`` on a non-pilot context after a
fused replay would show an idle invariant side.  When the memoized pilot
pre-screen applies (:func:`repro.sim.predecode.pilot_for` — exhaustive
replay, fresh fixed pilot), rung 0's copy joins them: the reduced stream
comes from the memo and no live pilot is driven at all.  An L2-resident
rung's L2 likewise holds no blocks after the replay (its stats, the memory
counters and the write-back buffer are exact).  Idle caches never build
their set storage.

Exhaustive fused replays additionally consume the whole-trace pre-decode
memo (:func:`repro.sim.predecode.decoded_for`): the decode/predict phase
is skipped entirely and each interval's op stream and totals are O(1)
slices of the per-trace artifact, and the per-rung dispatch loops run the
variant L1's hit path inline against hoisted kernel state
(``_dispatch_variant_d_fast`` / ``_dispatch_variant_i_fast``) — both
bit-identical to the scalar path by the same suites.

Amortization: a per-config ladder costs ``K × (set-up + slice + decode +
predict + full dispatch + close)``; the fused pass costs ``slice + decode
+ predict + pilot + gate + K × (set-up + reduced dispatch + close)``,
where a resident rung's reduced dispatch is its variant L1 alone and its
set-up builds no L2 or invariant-L1 sets.  The shared side is roughly
the price of one replay, so the win grows with K (the job layer fuses
only the rungs the job cache cannot already serve — see
:meth:`repro.sim.runner.SweepRunner.submit_ladder`).

:func:`run_fused` is the entry point: it builds one context per
``(d_setup, i_setup)`` pair off a configured
:class:`~repro.sim.simulator.Simulator` and finalizes each into its
result.  :class:`LadderEngine` is deliberately *not* a registered
:class:`~repro.sim.engine.ReplayEngine` — it replays many contexts at
once, a different contract from the single-run engines the ``--engine``
flag selects; the CLI exposes it through ``--ladder-mode`` instead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cache.cache import (
    PACKED_FILLED,
    PACKED_WRITEBACK_SHIFT,
    PACKED_WRITEBACK_VALID,
    Cache,
)
from repro.cache.hierarchy import (
    HIER_COUNT_MASK,
    HIER_L2_ACCESSES_SHIFT,
    HIER_MEM_ACCESSES_SHIFT,
)
from repro.common.errors import SimulationError
from repro.resizing.static_strategy import StaticResizing
from repro.sim.engine import (
    _OP_FETCH,
    _OP_LOAD,
    decode_interval,
    dispatch_cache_ops_fast,
)
from repro.sim.predecode import OP_FIRST_TOUCH, decoded_for, pilot_for, resident_for
from repro.sim.results import SimulationResult
from repro.sim.simulator import L1Setup, ReplayContext, Simulator
from repro.workloads.trace import Trace

#: Extra op codes of the pilot-reduced stream (the shared decode emits only
#: the engine module's fetch/load/store codes; pilot resolution rewrites
#: the invariant side into these).
_OP_IMISS = 3  #: L1i miss (pilot-resolved): operand is the fetch PC.
_OP_DMISS = 4  #: L1d miss (pilot-resolved): operands are address, l1_packed.


class LadderEngine:
    """Replays one trace through K replay contexts in a single decode pass."""

    def replay_many(self, trace: Trace, contexts: Sequence[ReplayContext]) -> None:
        """Replay ``trace`` through every context, decoding each interval once.

        All contexts must share the interval length and fetch-block
        geometry (they do when built from one simulator, as
        :func:`run_fused` does); per-context cache/strategy state is free
        to diverge — that is the point.
        """
        if not contexts:
            return
        first = contexts[0]
        for ctx in contexts[1:]:
            if (
                ctx.interval_instructions != first.interval_instructions
                or ctx.block_mask != first.block_mask
            ):
                raise SimulationError(
                    "fused ladder replay requires every rung to share the interval "
                    "length and fetch-block geometry"
                )
            if (
                ctx.sample_every != first.sample_every
                or ctx.sample_warmup != first.sample_warmup
            ):
                raise SimulationError(
                    "fused ladder replay requires every rung to share the "
                    "sampling schedule (sample_every/sample_warmup)"
                )
        # Pilot-resolve whichever L1 side is fixed in every rung (a fixed
        # cache's behaviour is shared by construction — see the module
        # docstring).  A d-cache ladder pilots the L1i and vice versa; a
        # ladder that resizes both sides in some rung gets the general
        # mode, which re-dispatches the full shared stream per rung.
        # Every mode is expressed as a resolve function plus per-rung
        # (context, fold, on-resident-stream, aux, kernel_a, kernel_b)
        # tuples driven by one shared interval walk, so the interval
        # semantics — partial final chunk, ``total_seen`` threading,
        # per-rung close ordering — exist exactly once.
        hierarchy = first.hierarchy
        if all(not ctx.i_runtime.is_resizable for ctx in contexts):
            side = "i"
            pilot_cache = hierarchy.l1i
            pilot = hierarchy._l1i_packed
            resolve = lambda ops: _resolve_pilot_i(ops, pilot)  # noqa: E731
            resident_fold = _fold_resident_d
            rungs = [
                (ctx, _fold_pilot_i, False, ctx.hierarchy, ctx.hierarchy._l1d_packed,
                 ctx.hierarchy._miss_packed)
                for ctx in contexts
            ]
        elif all(not ctx.d_runtime.is_resizable for ctx in contexts):
            side = "d"
            pilot_cache = hierarchy.l1d
            pilot = hierarchy._l1d_packed
            resolve = lambda ops: _resolve_pilot_d(ops, pilot)  # noqa: E731
            resident_fold = _fold_resident_i
            rungs = [
                (ctx, _fold_pilot_d, False, ctx.hierarchy, ctx.hierarchy._l1i_packed,
                 ctx.hierarchy._miss_packed)
                for ctx in contexts
            ]
        else:
            side = None
            pilot_cache = None
            resolve = _resolve_general
            rungs = [(ctx, _fold_general, False, ctx.hierarchy, None, None) for ctx in contexts]
        plan = first.sampling_plan(len(trace))
        if plan is None:
            # Exhaustive replay: try the memoized whole-trace pre-decode
            # (and, for pilot modes, the memoized pilot pre-screen — valid
            # because the pilot is the fixed full-size L1, identical in
            # every rung and every run of this trace), then the L2-resident
            # gate, which moves every qualifying rung onto the first-touch
            # fold.  Gate refusals fall back bit-identically.
            decoded = decoded_for(trace, first.block_mask, first.predictor)
            if decoded is not None:
                pilot_res = resident = None
                if side is not None:
                    pilot_res = pilot_for(trace, decoded, side, pilot_cache)
                if pilot_res is not None:
                    config = hierarchy.config
                    qualified = [
                        k for k, rung in enumerate(rungs)
                        if _l2_resident_rung(rung[0], side, config)
                    ]
                    if qualified:
                        resident = resident_for(
                            pilot_res, config.l2.geometry,
                            max(config.l1i.block_bytes, config.l1d.block_bytes),
                        )
                    if resident is not None:
                        for k in qualified:
                            ctx = rungs[k][0]
                            rungs[k] = (ctx, resident_fold, True, ctx.hierarchy, None, None)
                self._walk_decoded(first, rungs, resolve, decoded, pilot_res, resident)
                return
        self._walk_intervals(trace, first, rungs, resolve, plan)

    def _walk_decoded(self, first, rungs, resolve, decoded, pilot_res, resident) -> None:
        """The exhaustive interval walk over memoized pre-decoded streams.

        Interval totals come from the decode's per-row prefix arrays; the
        per-interval op stream is an O(1) slice.  With a pilot resolution
        in hand the pilot pre-screen is skipped too — the reduced stream
        and the shared hit/miss totals are sliced from the memo, and the
        live pilot cache is never driven (rung 0 joins the documented
        idle-invariant-side caveat); rungs on the resident stream get
        ``resident`` (the first-touch-annotated copy, same entry offsets)
        instead.  Without one (gate refusal), the shared ``resolve`` runs
        per interval exactly as the scalar walk would run it.
        """
        n = decoded.n
        interval_instructions = first.interval_instructions
        interval_ops = decoded.interval_ops
        op_prefix = decoded.op_prefix
        branch_prefix = decoded.branch_prefix
        mispredict_prefix = decoded.mispredict_prefix
        memref_prefix = decoded.memref_prefix
        store_prefix = decoded.store_prefix
        side = None if pilot_res is None else pilot_res.side
        annotated = None

        total_seen = 0
        position = 0
        while position < n:
            stop = position + interval_instructions
            if stop > n:
                stop = n
            chunk = stop - position
            branches = branch_prefix[stop] - branch_prefix[position]
            branch_mispredicts = mispredict_prefix[stop] - mispredict_prefix[position]
            memory_refs = memref_prefix[stop] - memref_prefix[position]
            stores = store_prefix[stop] - store_prefix[position]

            if pilot_res is None:
                reduced, shared = resolve(interval_ops(position, stop))
            else:
                reduced = pilot_res.interval_entries(position, stop)
                if resident is not None:
                    entry_prefix = pilot_res.entry_prefix
                    annotated = resident[entry_prefix[position]:entry_prefix[stop]]
                misses = pilot_res.miss_prefix[stop] - pilot_res.miss_prefix[position]
                if side == "i":
                    fetches = (op_prefix[stop] - op_prefix[position]) - memory_refs
                    shared = (fetches, misses)
                else:
                    writebacks = (
                        pilot_res.wb_prefix[stop] - pilot_res.wb_prefix[position]
                    )
                    shared = (misses, writebacks)

            total_seen += chunk
            position = stop
            close = chunk == interval_instructions

            for ctx, fold, on_resident, aux, kernel_a, kernel_b in rungs:
                counts = ctx.counts
                counts.instructions += chunk
                counts.branches += branches
                counts.branch_mispredicts += branch_mispredicts
                counts.l1d_accesses += memory_refs
                counts.l1d_stores += stores
                fold(counts, annotated if on_resident else reduced, shared,
                     aux, kernel_a, kernel_b)
                if close:
                    ctx.total_seen = total_seen
                    ctx.close_interval()

        for ctx, *_ in rungs:
            ctx.total_seen = total_seen
            ctx.close_interval(final=True)

    def _walk_intervals(self, trace, first, rungs, resolve, plan) -> None:
        """The single shared interval walk every fused mode runs on.

        Per interval: slice the columns, decode once (branch prediction on
        the first context's predictor), ``resolve`` the stream once for
        all rungs (pilot modes shrink it; the general mode passes it
        through), then fold it into each rung's counts and close that
        rung's interval.  ``rungs`` are ``(context, fold, on_resident, aux,
        kernel_a, kernel_b)`` tuples whose aux/kernel meaning is
        fold-specific, built in :meth:`replay_many` (``on_resident`` is
        only ever set for the decoded walk).
        """
        interval_instructions = first.interval_instructions
        block_mask = first.block_mask
        predict = first.predictor.predict_and_update
        decode = decode_interval

        pc_column, address_column, flag_column = trace.columns()
        pc_view = memoryview(pc_column)
        address_view = memoryview(address_column)
        flag_view = memoryview(flag_column)

        n = len(trace)
        if plan is None:
            # An exhaustive walk is a sampled one with every interval
            # measured and contiguous.
            plan = (
                (start, min(start + interval_instructions, n), True)
                for start in range(0, n, interval_instructions)
            )
        # Same shape as ColumnarEngine's sampled walk: the plan picks the
        # row ranges, decode/resolve run once per segment, every rung folds
        # and closes (measured) or discards (warmup).
        last_fetch_block = -1
        total_seen = 0
        prev_stop = 0
        for start, stop, measured in plan:
            if start != prev_stop:
                last_fetch_block = -1
            chunk = stop - start
            pcs = pc_view[start:stop].tolist()
            flags = flag_view[start:stop].tolist()
            addresses = address_view[start:stop].tolist()

            ops, last_fetch_block, branches, branch_mispredicts, memory_refs, stores = (
                decode(pcs, flags, addresses, chunk, block_mask, last_fetch_block, predict)
            )
            reduced, shared = resolve(ops)
            total_seen += chunk
            prev_stop = stop
            close = measured and chunk == interval_instructions

            for ctx, fold, _, aux, kernel_a, kernel_b in rungs:
                counts = ctx.counts
                counts.instructions += chunk
                counts.branches += branches
                counts.branch_mispredicts += branch_mispredicts
                counts.l1d_accesses += memory_refs
                counts.l1d_stores += stores
                fold(counts, reduced, shared, aux, kernel_a, kernel_b)
                if close:
                    ctx.total_seen = total_seen
                    ctx.close_interval()
                elif not measured:
                    ctx.discard_interval()

        for ctx, *_ in rungs:
            ctx.total_seen = total_seen
            ctx.close_interval(final=True)


def _resolve_general(ops):
    """General mode: nothing to pre-resolve, every rung replays all ops."""
    return ops, None


def _fold_general(counts, ops, shared, hierarchy, kernel_a, kernel_b):
    """Full per-rung dispatch through the engine's shared cache-op loop."""
    (
        l1i_accesses, l1i_misses, l1i_memory,
        l1d_misses, l1d_memory, l1d_writebacks,
        l2_accesses, memory_accesses,
    ) = dispatch_cache_ops_fast(ops, hierarchy)
    counts.l1i_accesses += l1i_accesses
    counts.l1i_misses += l1i_misses
    counts.l1i_memory_accesses += l1i_memory
    counts.l1d_misses += l1d_misses
    counts.l1d_memory_accesses += l1d_memory
    counts.l1d_writebacks += l1d_writebacks
    counts.l2_accesses += l2_accesses
    counts.memory_accesses += memory_accesses


def _fold_pilot_i(counts, reduced, shared, hierarchy, l1d_kernel, miss_fill):
    """Fold one rung's interval when the L1i was pilot-resolved."""
    fetches, i_misses = shared
    counts.l1i_accesses += fetches
    counts.l1i_misses += i_misses
    state = getattr(hierarchy.l1d, "_kernel_state", None)
    if state is not None:
        l2_state = getattr(hierarchy.l2, "_kernel_state", None)
        (
            l1i_memory, l1d_misses, l1d_memory, l1d_writebacks,
            l2_accesses, memory_accesses,
        ) = _dispatch_variant_d_fast(
            reduced, state(), miss_fill,
            l2_state() if l2_state is not None else None,
            hierarchy._memory_state() if l2_state is not None else None,
        )
    else:
        (
            l1i_memory, l1d_misses, l1d_memory, l1d_writebacks,
            l2_accesses, memory_accesses,
        ) = _dispatch_variant_d(reduced, l1d_kernel, miss_fill)
    counts.l1i_memory_accesses += l1i_memory
    counts.l1d_misses += l1d_misses
    counts.l1d_memory_accesses += l1d_memory
    counts.l1d_writebacks += l1d_writebacks
    counts.l2_accesses += l2_accesses
    counts.memory_accesses += memory_accesses


def _fold_pilot_d(counts, reduced, shared, hierarchy, l1i_kernel, miss_fill):
    """Fold one rung's interval when the L1d was pilot-resolved."""
    d_misses, d_writebacks = shared
    counts.l1d_misses += d_misses
    counts.l1d_writebacks += d_writebacks
    state = getattr(hierarchy.l1i, "_kernel_state", None)
    if state is not None:
        l2_state = getattr(hierarchy.l2, "_kernel_state", None)
        (
            l1i_accesses, l1i_misses, l1i_memory, l1d_memory,
            l2_accesses, memory_accesses,
        ) = _dispatch_variant_i_fast(
            reduced, state(), miss_fill,
            l2_state() if l2_state is not None else None,
            hierarchy._memory_state() if l2_state is not None else None,
        )
    else:
        (
            l1i_accesses, l1i_misses, l1i_memory, l1d_memory,
            l2_accesses, memory_accesses,
        ) = _dispatch_variant_i(reduced, l1i_kernel, miss_fill)
    counts.l1i_accesses += l1i_accesses
    counts.l1i_misses += l1i_misses
    counts.l1i_memory_accesses += l1i_memory
    counts.l1d_memory_accesses += l1d_memory
    counts.l2_accesses += l2_accesses
    counts.memory_accesses += memory_accesses


def _resolve_pilot_i(ops, l1i_kernel):
    """Resolve every fetch op on the pilot L1i; keep only the misses.

    Hits leave the stream entirely — an L1i hit touches no per-rung state
    and the replay path never consumes per-access latency.  Returns
    ``(reduced, (fetches, i_misses))``; each rung adds ``fetches`` to its
    ``l1i_accesses`` and ``i_misses`` to ``l1i_misses`` and performs one
    L2 fill per ``_OP_IMISS`` op (the L1i never holds dirty blocks, so
    there is no victim writeback to forward).
    """
    reduced = []
    append = reduced.append
    fetches = 0
    i_misses = 0
    op_fetch = _OP_FETCH
    op_imiss = _OP_IMISS
    stream = iter(ops)
    for code in stream:
        operand = next(stream)
        if code == op_fetch:
            fetches += 1
            if not l1i_kernel(operand, False) & 1:
                i_misses += 1
                append(op_imiss)
                append(operand)
        else:
            append(code)
            append(operand)
    return reduced, (fetches, i_misses)


def _resolve_pilot_d(ops, l1d_kernel):
    """Resolve every load/store on the pilot L1d; keep only the misses.

    A surviving ``_OP_DMISS`` op carries the pilot's packed L1 outcome so
    each rung can forward the (shared) dirty-victim writeback into its own
    L2 via ``_miss_packed``.  Returns ``(reduced, (d_misses,
    d_writebacks))`` — both shared per-interval counts, since the victim
    sequence of a fixed L1d is configuration-independent.
    """
    reduced = []
    append = reduced.append
    d_misses = 0
    d_writebacks = 0
    op_fetch = _OP_FETCH
    op_load = _OP_LOAD
    op_dmiss = _OP_DMISS
    writeback_valid = PACKED_WRITEBACK_VALID
    stream = iter(ops)
    for code in stream:
        operand = next(stream)
        if code == op_fetch:
            append(op_fetch)
            append(operand)
        else:
            l1_packed = l1d_kernel(operand, code != op_load)
            if not l1_packed & 1:
                d_misses += 1
                if l1_packed & writeback_valid:
                    d_writebacks += 1
                append(op_dmiss)
                append(operand)
                append(l1_packed)
    return reduced, (d_misses, d_writebacks)


def _dispatch_variant_d(reduced, l1d_kernel, miss_fill):
    """Per-rung dispatch when the L1i was pilot-resolved (d-cache ladder).

    Drives the rung's (variant) L1d kernel for every load/store and its
    ``_miss_packed`` fill path for both d-misses and the pre-resolved
    i-misses.  Returns ``(l1i_memory, l1d_misses, l1d_memory,
    l1d_writebacks, l2_accesses, memory_accesses)``.
    """
    l2a_shift, mem_shift = HIER_L2_ACCESSES_SHIFT, HIER_MEM_ACCESSES_SHIFT
    count_mask = HIER_COUNT_MASK
    op_imiss = _OP_IMISS
    op_load = _OP_LOAD
    l1i_memory = 0
    l1d_misses = 0
    l1d_memory = 0
    l1d_writebacks = 0
    l2_accesses = 0
    memory_accesses = 0
    stream = iter(reduced)
    for code in stream:
        operand = next(stream)
        if code == op_imiss:
            packed = miss_fill(0, operand)
            l2_accesses += (packed >> l2a_shift) & count_mask
            transfers = (packed >> mem_shift) & count_mask
            memory_accesses += transfers
            l1i_memory += transfers
        else:
            l1_packed = l1d_kernel(operand, code != op_load)
            if not l1_packed & 1:
                packed = miss_fill(l1_packed, operand)
                l1d_misses += 1
                fills = (packed >> l2a_shift) & count_mask
                l2_accesses += fills
                transfers = (packed >> mem_shift) & count_mask
                memory_accesses += transfers
                l1d_memory += transfers
                if fills > 1:
                    l1d_writebacks += fills - 1
    return l1i_memory, l1d_misses, l1d_memory, l1d_writebacks, l2_accesses, memory_accesses


def _dispatch_variant_d_fast(reduced, kernel_state, miss_fill, l2_state=None, mem_state=None):
    """:func:`_dispatch_variant_d` with the variant L1d's hit path inline.

    ``kernel_state`` is the variant cache's hoisted
    :meth:`~repro.cache.cache.Cache._kernel_state` tuple, fetched fresh by
    the fold each interval (resizes land exactly at interval boundaries).
    The access body mirrors ``access_packed`` statement for statement; stat
    deltas are flushed into the cache's counters before returning, so the
    boundary-observable state is identical to the per-call kernel's.

    ``l2_state`` (the rung L2's hoisted kernel tuple, or None) enables the
    inline L2 probe for misses with no dirty L1 victim, and ``mem_state``
    (:meth:`~repro.cache.hierarchy.CacheHierarchy._memory_state`, or None)
    extends it to the L2-miss outcome: the L2 fill/victim-spill and the
    memory transfers are dict ops and counter bumps whose latency this
    path never consumes, so the whole miss resolves without the
    ``_miss_packed`` frame.  Only dirty-L1-victim spills still take it.
    """
    (d_stats, d_sets, d_off, d_idx, d_mask, d_ways, d_refresh, d_random, d_selector) = (
        kernel_state
    )
    if l2_state is not None:
        (l2_stats, l2_sets, l2_off, l2_idx, l2_mask, l2_ways, l2_refresh,
         l2_random, l2_selector) = l2_state
        l2_shift1 = l2_off + 1
    else:
        l2_stats = l2_sets = l2_off = l2_idx = l2_mask = None
        l2_ways = l2_refresh = l2_random = l2_selector = l2_shift1 = None
        mem_state = None
    inline_mem = mem_state is not None
    if inline_mem:
        wb_pending = mem_state[4]._pending
        wb_entries = mem_state[4].num_entries
    else:
        wb_pending = wb_entries = None
    l2_hits = l2m = l2_wb = l2_whits = l2_wm = 0
    wb_enq = wb_over = 0
    d_shift1 = d_off + 1
    l2a_shift, mem_shift = HIER_L2_ACCESSES_SHIFT, HIER_MEM_ACCESSES_SHIFT
    count_mask = HIER_COUNT_MASK
    filled, wb_valid, wb_shift = PACKED_FILLED, PACKED_WRITEBACK_VALID, PACKED_WRITEBACK_SHIFT
    op_imiss = _OP_IMISS
    op_load = _OP_LOAD
    da = dw = dh = dwm = dwb = 0
    l1i_memory = 0
    l1d_misses = 0
    l1d_memory = 0
    l1d_writebacks = 0
    l2_accesses = 0
    memory_accesses = 0
    stream = iter(reduced)
    for code in stream:
        operand = next(stream)
        if code == op_imiss:
            # Pre-resolved i-miss: no L1 victim at all, so either L2
            # outcome settles inline — a read hit is one probe, a read
            # miss adds the fill/victim dict ops and memory counter bumps.
            if l2_sets is not None:
                b2 = operand >> l2_off
                t2 = b2 >> l2_idx
                bl2 = l2_sets[b2 & l2_mask]
                p2 = bl2.get(t2)
                if p2 is not None:
                    if l2_refresh:
                        del bl2[t2]
                        bl2[t2] = p2
                    l2_hits += 1
                    l2_accesses += 1
                    continue
                if inline_mem:
                    l2m += 1
                    v2 = None
                    if len(bl2) >= l2_ways:
                        vt2 = l2_selector.choose_victim(bl2) if l2_random else next(iter(bl2))
                        v2 = bl2.pop(vt2)
                    bl2[t2] = b2 << l2_shift1
                    if v2 is not None and v2 & 1:
                        l2_wb += 1
                        transfers = 2
                    else:
                        transfers = 1
                    l2_accesses += 1
                    memory_accesses += transfers
                    l1i_memory += transfers
                    continue
            packed = miss_fill(0, operand)
            l2_accesses += (packed >> l2a_shift) & count_mask
            transfers = (packed >> mem_shift) & count_mask
            memory_accesses += transfers
            l1i_memory += transfers
        else:
            is_write = code != op_load
            da += 1
            if is_write:
                dw += 1
            block = operand >> d_off
            tag = block >> d_idx
            blocks = d_sets[block & d_mask]
            packed = blocks.get(tag)
            if packed is not None:
                dh += 1
                if is_write:
                    packed |= 1
                    if d_refresh:
                        del blocks[tag]
                    blocks[tag] = packed
                elif d_refresh:
                    del blocks[tag]
                    blocks[tag] = packed
                continue
            if is_write:
                dwm += 1
            victim = None
            if len(blocks) >= d_ways:
                victim_tag = d_selector.choose_victim(blocks) if d_random else next(iter(blocks))
                victim = blocks.pop(victim_tag)
            blocks[tag] = (block << d_shift1) | (1 if is_write else 0)
            if victim is not None and victim & 1:
                dwb += 1
                if inline_mem:
                    # Dirty victim: L2 read fill, buffer push, L2
                    # write-allocate of the victim — _miss_packed's whole
                    # body as dict ops and counter bumps.
                    b2 = operand >> l2_off
                    t2 = b2 >> l2_idx
                    bl2 = l2_sets[b2 & l2_mask]
                    p2 = bl2.get(t2)
                    if p2 is not None:
                        if l2_refresh:
                            del bl2[t2]
                            bl2[t2] = p2
                        l2_hits += 1
                        transfers = 0
                    else:
                        l2m += 1
                        v2 = None
                        if len(bl2) >= l2_ways:
                            vt2 = l2_selector.choose_victim(bl2) if l2_random else next(iter(bl2))
                            v2 = bl2.pop(vt2)
                        bl2[t2] = b2 << l2_shift1
                        if v2 is not None and v2 & 1:
                            l2_wb += 1
                            transfers = 2
                        else:
                            transfers = 1
                    wb_addr = victim >> 1
                    wb_enq += 1
                    if len(wb_pending) >= wb_entries:
                        wb_over += 1
                        wb_pending.popleft()
                    wb_pending.append(wb_addr)
                    b3 = wb_addr >> l2_off
                    t3 = b3 >> l2_idx
                    bl3 = l2_sets[b3 & l2_mask]
                    p3 = bl3.get(t3)
                    if p3 is not None:
                        l2_whits += 1
                        p3 |= 1
                        if l2_refresh:
                            del bl3[t3]
                        bl3[t3] = p3
                    else:
                        l2_wm += 1
                        v3 = None
                        if len(bl3) >= l2_ways:
                            vt3 = l2_selector.choose_victim(bl3) if l2_random else next(iter(bl3))
                            v3 = bl3.pop(vt3)
                        bl3[t3] = (b3 << l2_shift1) | 1
                        transfers += 1
                        if v3 is not None and v3 & 1:
                            l2_wb += 1
                            transfers += 1
                    l1d_misses += 1
                    l1d_writebacks += 1
                    l2_accesses += 2
                    memory_accesses += transfers
                    l1d_memory += transfers
                    continue
                l1_packed = filled | wb_valid | ((victim >> 1) << wb_shift)
            else:
                if l2_sets is not None:
                    b2 = operand >> l2_off
                    t2 = b2 >> l2_idx
                    bl2 = l2_sets[b2 & l2_mask]
                    p2 = bl2.get(t2)
                    if p2 is not None:
                        if l2_refresh:
                            del bl2[t2]
                            bl2[t2] = p2
                        l2_hits += 1
                        l1d_misses += 1
                        l2_accesses += 1
                        continue
                    if inline_mem:
                        l2m += 1
                        v2 = None
                        if len(bl2) >= l2_ways:
                            vt2 = l2_selector.choose_victim(bl2) if l2_random else next(iter(bl2))
                            v2 = bl2.pop(vt2)
                        bl2[t2] = b2 << l2_shift1
                        if v2 is not None and v2 & 1:
                            l2_wb += 1
                            transfers = 2
                        else:
                            transfers = 1
                        l1d_misses += 1
                        l2_accesses += 1
                        memory_accesses += transfers
                        l1d_memory += transfers
                        continue
                l1_packed = filled
            packed = miss_fill(l1_packed, operand)
            l1d_misses += 1
            fills = (packed >> l2a_shift) & count_mask
            l2_accesses += fills
            transfers = (packed >> mem_shift) & count_mask
            memory_accesses += transfers
            l1d_memory += transfers
            if fills > 1:
                l1d_writebacks += fills - 1

    _flush_l1(d_stats, da, dw, dh, dwm, dwb)
    _flush_l2(l2_stats, mem_state, l2_hits, l2m, l2_whits, l2_wm, l2_wb, wb_enq, wb_over)
    return l1i_memory, l1d_misses, l1d_memory, l1d_writebacks, l2_accesses, memory_accesses


def _dispatch_variant_i(reduced, l1i_kernel, miss_fill):
    """Per-rung dispatch when the L1d was pilot-resolved (i-cache ladder).

    Drives the rung's (variant) L1i kernel for every fetch op and its
    ``_miss_packed`` fill path for both i-misses and the pre-resolved
    d-misses (whose shared victim-writeback outcome rides in the stream).
    Returns ``(l1i_accesses, l1i_misses, l1i_memory, l1d_memory,
    l2_accesses, memory_accesses)``.
    """
    l2a_shift, mem_shift = HIER_L2_ACCESSES_SHIFT, HIER_MEM_ACCESSES_SHIFT
    count_mask = HIER_COUNT_MASK
    op_fetch = _OP_FETCH
    l1i_accesses = 0
    l1i_misses = 0
    l1i_memory = 0
    l1d_memory = 0
    l2_accesses = 0
    memory_accesses = 0
    stream = iter(reduced)
    for code in stream:
        operand = next(stream)
        if code == op_fetch:
            l1_packed = l1i_kernel(operand, False)
            l1i_accesses += 1
            if not l1_packed & 1:
                packed = miss_fill(l1_packed, operand)
                l1i_misses += 1
                l2_accesses += (packed >> l2a_shift) & count_mask
                transfers = (packed >> mem_shift) & count_mask
                memory_accesses += transfers
                l1i_memory += transfers
        else:
            l1_packed = next(stream)
            packed = miss_fill(l1_packed, operand)
            fills = (packed >> l2a_shift) & count_mask
            l2_accesses += fills
            transfers = (packed >> mem_shift) & count_mask
            memory_accesses += transfers
            l1d_memory += transfers
    return l1i_accesses, l1i_misses, l1i_memory, l1d_memory, l2_accesses, memory_accesses


def _dispatch_variant_i_fast(reduced, kernel_state, miss_fill, l2_state=None, mem_state=None):
    """:func:`_dispatch_variant_i` with the variant L1i's hit path inline.

    Same contract as :func:`_dispatch_variant_d_fast`: hoisted kernel
    state, inline ``access_packed`` body (the L1i is read-only, so the hit
    path is just the probe plus LRU refresh and fills are never dirty),
    the full inline L2 access — hit probe, and with ``mem_state`` the
    read-miss fill/victim-spill and memory counter bumps — for misses
    without a dirty L1 victim, stat deltas flushed before returning.
    """
    (i_stats, i_sets, i_off, i_idx, i_mask, i_ways, i_refresh, i_random, i_selector) = (
        kernel_state
    )
    if l2_state is not None:
        (l2_stats, l2_sets, l2_off, l2_idx, l2_mask, l2_ways, l2_refresh,
         l2_random, l2_selector) = l2_state
        l2_shift1 = l2_off + 1
    else:
        l2_stats = l2_sets = l2_off = l2_idx = l2_mask = None
        l2_ways = l2_refresh = l2_random = l2_selector = l2_shift1 = None
        mem_state = None
    inline_mem = mem_state is not None
    if inline_mem:
        wb_pending = mem_state[4]._pending
        wb_entries = mem_state[4].num_entries
    else:
        wb_pending = wb_entries = None
    l2_hits = l2m = l2_wb = l2_whits = l2_wm = 0
    wb_enq = wb_over = 0
    i_shift1 = i_off + 1
    l2a_shift, mem_shift = HIER_L2_ACCESSES_SHIFT, HIER_MEM_ACCESSES_SHIFT
    count_mask = HIER_COUNT_MASK
    filled, wb_valid, wb_shift = PACKED_FILLED, PACKED_WRITEBACK_VALID, PACKED_WRITEBACK_SHIFT
    op_fetch = _OP_FETCH
    ia = ih = iwb = 0
    l1i_misses = 0
    l1i_memory = 0
    l1d_memory = 0
    l2_accesses = 0
    memory_accesses = 0
    stream = iter(reduced)
    for code in stream:
        operand = next(stream)
        if code == op_fetch:
            ia += 1
            block = operand >> i_off
            tag = block >> i_idx
            blocks = i_sets[block & i_mask]
            packed = blocks.get(tag)
            if packed is not None:
                ih += 1
                if i_refresh:
                    del blocks[tag]
                    blocks[tag] = packed
                continue
            victim = None
            if len(blocks) >= i_ways:
                victim_tag = i_selector.choose_victim(blocks) if i_random else next(iter(blocks))
                victim = blocks.pop(victim_tag)
            blocks[tag] = block << i_shift1
            if victim is not None and victim & 1:
                iwb += 1
                l1_packed = filled | wb_valid | ((victim >> 1) << wb_shift)
            else:
                if l2_sets is not None:
                    b2 = operand >> l2_off
                    t2 = b2 >> l2_idx
                    bl2 = l2_sets[b2 & l2_mask]
                    p2 = bl2.get(t2)
                    if p2 is not None:
                        if l2_refresh:
                            del bl2[t2]
                            bl2[t2] = p2
                        l2_hits += 1
                        l1i_misses += 1
                        l2_accesses += 1
                        continue
                    if inline_mem:
                        l2m += 1
                        v2 = None
                        if len(bl2) >= l2_ways:
                            vt2 = l2_selector.choose_victim(bl2) if l2_random else next(iter(bl2))
                            v2 = bl2.pop(vt2)
                        bl2[t2] = b2 << l2_shift1
                        if v2 is not None and v2 & 1:
                            l2_wb += 1
                            transfers = 2
                        else:
                            transfers = 1
                        l1i_misses += 1
                        l2_accesses += 1
                        memory_accesses += transfers
                        l1i_memory += transfers
                        continue
                l1_packed = filled
            packed = miss_fill(l1_packed, operand)
            l1i_misses += 1
            l2_accesses += (packed >> l2a_shift) & count_mask
            transfers = (packed >> mem_shift) & count_mask
            memory_accesses += transfers
            l1i_memory += transfers
        else:
            l1_packed = next(stream)
            # Pre-resolved d-miss: l1_packed == filled means the shared
            # L1d fill evicted no dirty victim, so the L2 access again
            # resolves inline whatever its outcome.
            if l1_packed == filled and l2_sets is not None:
                b2 = operand >> l2_off
                t2 = b2 >> l2_idx
                bl2 = l2_sets[b2 & l2_mask]
                p2 = bl2.get(t2)
                if p2 is not None:
                    if l2_refresh:
                        del bl2[t2]
                        bl2[t2] = p2
                    l2_hits += 1
                    l2_accesses += 1
                    continue
                if inline_mem:
                    l2m += 1
                    v2 = None
                    if len(bl2) >= l2_ways:
                        vt2 = l2_selector.choose_victim(bl2) if l2_random else next(iter(bl2))
                        v2 = bl2.pop(vt2)
                    bl2[t2] = b2 << l2_shift1
                    if v2 is not None and v2 & 1:
                        l2_wb += 1
                        transfers = 2
                    else:
                        transfers = 1
                    l2_accesses += 1
                    memory_accesses += transfers
                    l1d_memory += transfers
                    continue
            elif inline_mem and l1_packed & wb_valid:
                # Shared dirty victim: L2 read fill, buffer push, L2
                # write-allocate of the victim, all inline.
                b2 = operand >> l2_off
                t2 = b2 >> l2_idx
                bl2 = l2_sets[b2 & l2_mask]
                p2 = bl2.get(t2)
                if p2 is not None:
                    if l2_refresh:
                        del bl2[t2]
                        bl2[t2] = p2
                    l2_hits += 1
                    transfers = 0
                else:
                    l2m += 1
                    v2 = None
                    if len(bl2) >= l2_ways:
                        vt2 = l2_selector.choose_victim(bl2) if l2_random else next(iter(bl2))
                        v2 = bl2.pop(vt2)
                    bl2[t2] = b2 << l2_shift1
                    if v2 is not None and v2 & 1:
                        l2_wb += 1
                        transfers = 2
                    else:
                        transfers = 1
                wb_addr = l1_packed >> wb_shift
                wb_enq += 1
                if len(wb_pending) >= wb_entries:
                    wb_over += 1
                    wb_pending.popleft()
                wb_pending.append(wb_addr)
                b3 = wb_addr >> l2_off
                t3 = b3 >> l2_idx
                bl3 = l2_sets[b3 & l2_mask]
                p3 = bl3.get(t3)
                if p3 is not None:
                    l2_whits += 1
                    p3 |= 1
                    if l2_refresh:
                        del bl3[t3]
                    bl3[t3] = p3
                else:
                    l2_wm += 1
                    v3 = None
                    if len(bl3) >= l2_ways:
                        vt3 = l2_selector.choose_victim(bl3) if l2_random else next(iter(bl3))
                        v3 = bl3.pop(vt3)
                    bl3[t3] = (b3 << l2_shift1) | 1
                    transfers += 1
                    if v3 is not None and v3 & 1:
                        l2_wb += 1
                        transfers += 1
                l2_accesses += 2
                memory_accesses += transfers
                l1d_memory += transfers
                continue
            packed = miss_fill(l1_packed, operand)
            fills = (packed >> l2a_shift) & count_mask
            l2_accesses += fills
            transfers = (packed >> mem_shift) & count_mask
            memory_accesses += transfers
            l1d_memory += transfers

    _flush_l1(i_stats, ia, 0, ih, 0, iwb)
    _flush_l2(l2_stats, mem_state, l2_hits, l2m, l2_whits, l2_wm, l2_wb, wb_enq, wb_over)
    return ia, l1i_misses, l1i_memory, l1d_memory, l2_accesses, memory_accesses


def _flush_l1(stats, accesses, writes, hits, write_misses, writebacks) -> None:
    """Flush one interval's inline L1 access deltas into the cache's stats."""
    misses = accesses - hits
    stats.accesses += accesses
    stats.writes += writes
    stats.reads += accesses - writes
    stats.hits += hits
    stats.misses += misses
    stats.write_misses += write_misses
    stats.read_misses += misses - write_misses
    stats.fills += misses
    stats.writebacks += writebacks


def _flush_l2(l2_stats, mem_state, read_hits, read_misses, write_hits, write_misses,
              evictions, enqueued, overflows) -> None:
    """Flush one interval's inline L2, memory and write-back-buffer deltas.

    ``evictions`` counts dirty L2 victims written to memory; each buffer
    overflow drains one entry, so ``overflows`` is also the drain count.
    """
    misses = read_misses + write_misses
    if read_hits or write_hits or misses:
        l2_stats.accesses += read_hits + write_hits + misses
        l2_stats.reads += read_hits + read_misses
        l2_stats.writes += write_hits + write_misses
        l2_stats.hits += read_hits + write_hits
        l2_stats.misses += misses
        l2_stats.read_misses += read_misses
        l2_stats.write_misses += write_misses
        l2_stats.fills += misses
        l2_stats.writebacks += evictions
    if misses or evictions:
        mem_reads, mem_writes, mem_bytes, l2_block, _ = mem_state
        mem_reads.value += misses
        mem_writes.value += evictions
        mem_bytes.value += (misses + evictions) * l2_block
    if enqueued:
        wb_buffer = mem_state[4]
        wb_buffer.enqueued += enqueued
        wb_buffer.overflows += overflows
        wb_buffer.drained += overflows


def _fold_resident_d(counts, stream, shared, hierarchy, _kernel_a, _kernel_b):
    """:func:`_fold_pilot_i` for an L2-resident rung (d-cache ladder).

    ``stream`` is the first-touch-annotated reduced stream.  The variant
    L1d runs inline as in :func:`_dispatch_variant_d_fast`; the L2 is never
    touched: a read hits unless the op carries the first-touch bit (then
    memory supplies the block), and a dirty L1d victim goes through the
    write-back buffer into an L2 write hit.
    """
    fetches, i_misses = shared
    (d_stats, d_sets, d_off, d_idx, d_mask, d_ways, d_refresh, d_random, d_selector) = (
        hierarchy.l1d._kernel_state()
    )
    wb_pending = hierarchy.writeback_buffer._pending
    wb_entries = hierarchy.writeback_buffer.num_entries
    first_touch = OP_FIRST_TOUCH
    d_shift1 = d_off + 1
    da = dw = dh = dwm = dwb = wb_over = 0
    i_first = d_first = 0
    stream = iter(stream)
    for code in stream:
        operand = next(stream)
        if (code & 3) == 3:  # a pre-resolved i-miss: its L2 read is in i_misses
            if code & first_touch:
                i_first += 1
            continue
        is_write = code & 2  # a store
        da += 1
        if is_write:
            dw += 1
        block = operand >> d_off
        tag = block >> d_idx
        blocks = d_sets[block & d_mask]
        packed = blocks.get(tag)
        if packed is not None:
            dh += 1
            if is_write:
                packed |= 1
                if d_refresh:
                    del blocks[tag]
                blocks[tag] = packed
            elif d_refresh:
                del blocks[tag]
                blocks[tag] = packed
            continue
        if is_write:
            dwm += 1
        if code & first_touch:
            d_first += 1
        if len(blocks) >= d_ways:
            victim = blocks.pop(
                d_selector.choose_victim(blocks) if d_random else next(iter(blocks))
            )
            if victim & 1:
                dwb += 1
                if len(wb_pending) >= wb_entries:
                    wb_over += 1
                    wb_pending.popleft()
                wb_pending.append(victim >> 1)
        blocks[tag] = (block << d_shift1) | (1 if is_write else 0)

    dm = da - dh
    first = i_first + d_first
    _flush_l1(d_stats, da, dw, dh, dwm, dwb)
    _flush_l2(hierarchy.l2.stats, hierarchy._memory_state(),
              i_misses + dm - first, first, dwb, 0, 0, dwb, wb_over)
    counts.l1i_accesses += fetches
    counts.l1i_misses += i_misses
    counts.l1i_memory_accesses += i_first
    counts.l1d_misses += dm
    counts.l1d_memory_accesses += d_first
    counts.l1d_writebacks += dwb
    counts.l2_accesses += i_misses + dm + dwb
    counts.memory_accesses += first


def _fold_resident_i(counts, stream, shared, hierarchy, _kernel_a, _kernel_b):
    """:func:`_fold_pilot_d` for an L2-resident rung (i-cache ladder).

    Same rule as :func:`_fold_resident_d`, with the variant L1i inline.
    Every rung repeats the pre-resolved d-misses' shared dirty-victim
    pushes; the L1i is never written, so its own victims are clean.
    """
    d_misses, d_writebacks = shared
    (i_stats, i_sets, i_off, i_idx, i_mask, i_ways, i_refresh, i_random, i_selector) = (
        hierarchy.l1i._kernel_state()
    )
    wb_pending = hierarchy.writeback_buffer._pending
    wb_entries = hierarchy.writeback_buffer.num_entries
    wb_valid, wb_shift = PACKED_WRITEBACK_VALID, PACKED_WRITEBACK_SHIFT
    first_touch = OP_FIRST_TOUCH
    i_shift1 = i_off + 1
    ia = ih = wb_over = 0
    i_first = d_first = 0
    stream = iter(stream)
    for code in stream:
        operand = next(stream)
        if code & 4:  # a pre-resolved d-miss: its L2 read is in d_misses
            l1_packed = next(stream)
            if code & first_touch:
                d_first += 1
            if l1_packed & wb_valid:
                if len(wb_pending) >= wb_entries:
                    wb_over += 1
                    wb_pending.popleft()
                wb_pending.append(l1_packed >> wb_shift)
            continue
        ia += 1
        block = operand >> i_off
        tag = block >> i_idx
        blocks = i_sets[block & i_mask]
        packed = blocks.get(tag)
        if packed is not None:
            ih += 1
            if i_refresh:
                del blocks[tag]
                blocks[tag] = packed
            continue
        if code & first_touch:
            i_first += 1
        if len(blocks) >= i_ways:
            del blocks[i_selector.choose_victim(blocks) if i_random else next(iter(blocks))]
        blocks[tag] = block << i_shift1

    im = ia - ih
    first = i_first + d_first
    _flush_l1(i_stats, ia, 0, ih, 0, 0)
    _flush_l2(hierarchy.l2.stats, hierarchy._memory_state(),
              im + d_misses - first, first, d_writebacks, 0, 0, d_writebacks, wb_over)
    counts.l1d_misses += d_misses
    counts.l1d_writebacks += d_writebacks
    counts.l1i_accesses += ia
    counts.l1i_misses += im
    counts.l1i_memory_accesses += i_first
    counts.l1d_memory_accesses += d_first
    counts.l2_accesses += im + d_misses + d_writebacks
    counts.memory_accesses += first


def _l2_resident_rung(ctx, side, config) -> bool:
    """Whether the first-touch rule is exact for this rung.

    It needs the ladder's stock, untouched L2 over stock memory, a cold
    variant L1 with the inline kernel, and no mid-run resize or flush (no
    strategy, or :class:`StaticResizing`, whose one resize lands on the
    empty cache before the run).
    """
    hierarchy = ctx.hierarchy
    l2 = hierarchy.l2
    variant = hierarchy.l1d if side == "i" else hierarchy.l1i
    return (
        hierarchy.config is config and type(l2) is Cache and l2.geometry == config.l2.geometry
        and l2.stats.accesses == 0 and variant.stats.accesses == 0
        and hierarchy._memory_state() is not None and hasattr(variant, "_kernel_state")
        and all(
            runtime.strategy is None or type(runtime.strategy) is StaticResizing
            for runtime in (ctx.d_runtime, ctx.i_runtime)
        )
    )


def run_fused(
    simulator: Simulator,
    trace: Trace,
    setups: Sequence[Tuple[Optional[L1Setup], Optional[L1Setup]]],
    interval_instructions: int = 1500,
    warmup_instructions: int = 0,
    sample_every: int = 1,
    sample_warmup: int = 0,
) -> List[SimulationResult]:
    """Simulate every ``(d_setup, i_setup)`` rung in one fused trace pass.

    The fused counterpart of calling ``simulator.run(...)`` once per rung:
    results are returned in rung order and each is bit-identical to its
    standalone run (including under interval sampling — the sampling
    schedule is row-range-driven and configuration-independent, so it is
    shared by every rung).  Setups are live :class:`L1Setup` objects
    (strategies and organizations are stateful, so every rung needs its
    own); the worker-side job layer builds them from declarative specs —
    see :func:`repro.sim.runner.execute_ladder_job`.
    """
    if not setups:
        raise SimulationError("a fused ladder needs at least one rung")
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    if interval_instructions < 1:
        raise SimulationError("interval length must be at least one instruction")
    if sample_every < 1:
        raise SimulationError("sample_every must be at least 1")
    if sample_warmup < 0:
        raise SimulationError("sample_warmup cannot be negative")
    contexts = [
        simulator._prepare_run(
            trace, d_setup, i_setup, interval_instructions, warmup_instructions,
            sample_every=sample_every, sample_warmup=sample_warmup,
        )
        for d_setup, i_setup in setups
    ]
    LadderEngine().replay_many(trace, contexts)
    return [Simulator._finalize_run(context) for context in contexts]
