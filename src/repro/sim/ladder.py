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
fills for the (rare) invariant-side misses and the variant side's misses
— and, for stack-resolved rungs (below), to per-interval lookups.

**Stack-resolved rungs.**  When no L2 set receives more distinct L2
blocks over the pilot-reduced stream than it has ways
(:func:`repro.sim.predecode.resident_for` checks this once per trace,
pilot side and L2 geometry), no rung's L2 can ever evict.  Every block an
L2 sees is the L2 block of an op in that stream, and the first op to
touch a block is a compulsory L1 miss in every rung, so an L2 read hits
exactly when the op is not its block's first touch, every dirty-L1-victim
spill is a write hit and memory sees one read per first touch — whatever
a rung's L1 does.  The variant L1 of a cold LRU rung is just as shared:
LRU stack inclusion (Mattson et al., 1970) means one MRU-first stack pass
per set count (:func:`repro.sim.predecode.stack_for`, memoized per trace,
side, block size and set count, so every rung and every ladder of the
trace at that set count share it) decides every associativity's hits,
write misses and dirty victims at once.  Rungs whose L2 and LRU variant
L1 hold no blocks, over a stock L2 and memory, and that cannot resize
mid-run (no strategy or :class:`StaticResizing`) then run
``_fold_stack_d`` / ``_fold_stack_i``: no per-op work at all, only
per-interval table lookups, counter bumps and the rung's own dirty-victim
pushes into its write-back buffer.  Dynamic rungs, sampled walks, non-LRU
variants and gate refusals keep the dict-L2 pilot folds.  Everything
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
comes from the memo and no live pilot is driven at all.  A stack-resolved
rung's L2 and variant L1 likewise hold no blocks after the replay (their
stats, the memory counters and the write-back buffer are exact).  Idle
caches never build their set storage.

Exhaustive fused replays additionally consume the whole-trace pre-decode
memo (:func:`repro.sim.predecode.decoded_for`): the decode/predict phase
is skipped entirely and each interval's op stream and totals are O(1)
slices of the per-trace artifact, and the per-rung dispatch loops run the
variant L1's hit path inline against hoisted kernel state
(``_dispatch_variant_d_fast`` / ``_dispatch_variant_i_fast``) — both
bit-identical to the scalar path by the same suites.

Amortization: a per-config ladder costs ``K × (set-up + slice + decode +
predict + full dispatch + close)``; the fused pass costs ``slice + decode
+ predict + pilot + gate + S × stack pass + K × (set-up + fold + close)``,
where ``S`` is the number of distinct set counts among the rungs (passes
the per-trace memo already holds cost nothing), a stack-resolved rung's
fold is O(intervals) lookups plus its own dirty-victim pushes, and its
set-up builds no cache sets at all.  The shared side is roughly the price
of one replay, so the win grows with K (the job layer fuses only the
rungs the job cache cannot already serve — see
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

from bisect import bisect_left
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
from repro.cache.replacement import ReplacementPolicy
from repro.common.errors import SimulationError
from repro.resizing.resizable_cache import ResizableCache
from repro.resizing.static_strategy import StaticResizing
from repro.sim.engine import (
    _OP_FETCH,
    _OP_LOAD,
    decode_interval,
    dispatch_cache_ops_fast,
)
from repro.sim.predecode import decoded_for, pilot_for, resident_for, stack_for
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
        # ladder that resizes both sides in some rung, or whose varied L1
        # lacks the hoistable kernel state, gets the general mode, which
        # re-dispatches the full shared stream per rung.  Every mode is
        # expressed as a resolve function plus per-rung (context, fold,
        # on-stack, aux, kernel_a, kernel_b) tuples driven by one shared
        # interval walk, so the interval semantics — partial final chunk,
        # ``total_seen`` threading, per-rung close ordering — exist
        # exactly once.
        hierarchy = first.hierarchy
        side = None
        if all(not ctx.i_runtime.is_resizable for ctx in contexts):
            side = "i"
        elif all(not ctx.d_runtime.is_resizable for ctx in contexts):
            side = "d"
        if side is not None and not all(
            hasattr(_variant_l1(ctx, side), "_kernel_state") for ctx in contexts
        ):
            side = None
        if side is None:
            pilot_cache = None
            resolve = _resolve_general
            rungs = [(ctx, _fold_general, False, ctx.hierarchy, None, None) for ctx in contexts]
        else:
            if side == "i":
                pilot_cache, pilot = hierarchy.l1i, hierarchy._l1i_packed
                resolve_pilot, fold, stack_fold = _resolve_pilot_i, _fold_pilot_i, _fold_stack_d
            else:
                pilot_cache, pilot = hierarchy.l1d, hierarchy._l1d_packed
                resolve_pilot, fold, stack_fold = _resolve_pilot_d, _fold_pilot_d, _fold_stack_i
            resolve = lambda ops: resolve_pilot(ops, pilot)  # noqa: E731
            rungs = [
                (ctx, fold, False, ctx.hierarchy, None, ctx.hierarchy._miss_packed)
                for ctx in contexts
            ]
        plan = first.sampling_plan(len(trace))
        if plan is None:
            # Exhaustive replay: try the memoized whole-trace pre-decode
            # (and, for pilot modes, the memoized pilot pre-screen — valid
            # because the pilot is the fixed full-size L1, identical in
            # every rung and every run of this trace), then the stack gate,
            # which moves every qualifying rung onto the stack fold.  Gate
            # refusals fall back bit-identically.
            decoded = decoded_for(trace, first.block_mask, first.predictor)
            if decoded is not None:
                pilot_res = first_touch = None
                if side is not None:
                    pilot_res = pilot_for(trace, decoded, side, pilot_cache)
                if pilot_res is not None:
                    config = hierarchy.config
                    stacked = [
                        k for k, rung in enumerate(rungs) if _stack_rung(rung[0], side, config)
                    ]
                    if stacked:
                        first_touch = resident_for(
                            pilot_res, config.l2.geometry,
                            max(config.l1i.block_bytes, config.l1d.block_bytes),
                        )
                    if first_touch is not None:
                        self._stack_rungs(trace, decoded, side, rungs, stacked, stack_fold)
                self._walk_decoded(first, rungs, resolve, decoded, pilot_res, first_touch)
                return
        self._walk_intervals(trace, first, rungs, resolve, plan)

    @staticmethod
    def _stack_rungs(trace, decoded, side, rungs, stacked, fold) -> None:
        """Move the ``stacked`` rungs onto ``fold``, one stack pass per set count.

        :func:`repro.sim.predecode.stack_for` memoizes each pass per trace
        for later ladders.
        """
        variant_side = "d" if side == "i" else "i"
        groups = {}
        for k in stacked:
            variant = _variant_l1(rungs[k][0], side)
            key = (variant.geometry.block_bytes, variant.num_sets)
            groups.setdefault(key, []).append((k, variant))
        interval = rungs[0][0].interval_instructions
        for (block_bytes, sets), members in groups.items():
            widths = sorted({variant.associativity for _, variant in members})
            widest = max(variant.geometry.capacity_bytes for _, variant in members) // (
                block_bytes * sets
            )
            table = stack_for(
                trace, decoded, variant_side, block_bytes, sets, widths, widest, len(members)
            ).table(decoded, interval)
            for k, variant in members:
                ctx = rungs[k][0]
                rungs[k] = (ctx, fold, True, ctx.hierarchy, table, variant.associativity)

    def _walk_decoded(self, first, rungs, resolve, decoded, pilot_res, first_touch) -> None:
        """The exhaustive interval walk over memoized pre-decoded streams.

        Interval totals come from the decode's per-row prefix arrays; the
        per-interval op stream is an O(1) slice.  With a pilot resolution
        in hand the pilot pre-screen is skipped too — the reduced stream
        and the shared hit/miss totals are sliced from the memo, and the
        live pilot cache is never driven (rung 0 joins the documented
        idle-invariant-side caveat).  Rungs on the stack fold get, instead
        of a stream, the interval's ``(index, i_first, d_first,
        pilot_victims)``: its first-touch counts from ``first_touch`` and,
        for an i-cache ladder, the pilot L1d's dirty victims.  Without a
        pilot resolution (gate refusal), the shared ``resolve`` runs per
        interval exactly as the scalar walk would run it.
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
        span = None
        if first_touch is not None:
            i_touches, d_touches = first_touch
            entry_prefix = pilot_res.entry_prefix
            pilot_victims = pilot_res.victims or ()

        total_seen = 0
        position = 0
        index = 0
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
                misses = pilot_res.miss_prefix[stop] - pilot_res.miss_prefix[position]
                if side == "i":
                    fetches = (op_prefix[stop] - op_prefix[position]) - memory_refs
                    shared = (fetches, misses)
                else:
                    wb_prefix = pilot_res.wb_prefix
                    writebacks = wb_prefix[stop] - wb_prefix[position]
                    shared = (misses, writebacks)
                if first_touch is not None:
                    low, high = entry_prefix[position], entry_prefix[stop]
                    span = (
                        index,
                        bisect_left(i_touches, high) - bisect_left(i_touches, low),
                        bisect_left(d_touches, high) - bisect_left(d_touches, low),
                        pilot_victims[wb_prefix[position]:wb_prefix[stop]] if side == "d" else (),
                    )

            total_seen += chunk
            position = stop
            index += 1
            close = chunk == interval_instructions

            for ctx, fold, on_stack, aux, kernel_a, kernel_b in rungs:
                counts = ctx.counts
                counts.instructions += chunk
                counts.branches += branches
                counts.branch_mispredicts += branch_mispredicts
                counts.l1d_accesses += memory_refs
                counts.l1d_stores += stores
                fold(counts, span if on_stack else reduced, shared, aux, kernel_a, kernel_b)
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
        rung's interval.  ``rungs`` are ``(context, fold, on_stack, aux,
        kernel_a, kernel_b)`` tuples whose aux/kernel meaning is
        fold-specific, built in :meth:`replay_many` (``on_stack`` is only
        ever set for the decoded walk).
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


def _fold_pilot_i(counts, reduced, shared, hierarchy, _kernel_a, miss_fill):
    """Fold one rung's interval when the L1i was pilot-resolved."""
    fetches, i_misses = shared
    counts.l1i_accesses += fetches
    counts.l1i_misses += i_misses
    l2_state = getattr(hierarchy.l2, "_kernel_state", None)
    (
        l1i_memory, l1d_misses, l1d_memory, l1d_writebacks,
        l2_accesses, memory_accesses,
    ) = _dispatch_variant_d_fast(
        reduced, hierarchy.l1d._kernel_state(), miss_fill,
        l2_state() if l2_state is not None else None,
        hierarchy._memory_state() if l2_state is not None else None,
    )
    counts.l1i_memory_accesses += l1i_memory
    counts.l1d_misses += l1d_misses
    counts.l1d_memory_accesses += l1d_memory
    counts.l1d_writebacks += l1d_writebacks
    counts.l2_accesses += l2_accesses
    counts.memory_accesses += memory_accesses


def _fold_pilot_d(counts, reduced, shared, hierarchy, _kernel_a, miss_fill):
    """Fold one rung's interval when the L1d was pilot-resolved."""
    d_misses, d_writebacks = shared
    counts.l1d_misses += d_misses
    counts.l1d_writebacks += d_writebacks
    l2_state = getattr(hierarchy.l2, "_kernel_state", None)
    (
        l1i_accesses, l1i_misses, l1i_memory, l1d_memory,
        l2_accesses, memory_accesses,
    ) = _dispatch_variant_i_fast(
        reduced, hierarchy.l1i._kernel_state(), miss_fill,
        l2_state() if l2_state is not None else None,
        hierarchy._memory_state() if l2_state is not None else None,
    )
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


def _dispatch_variant_d_fast(reduced, kernel_state, miss_fill, l2_state=None, mem_state=None):
    """Per-rung dispatch when the L1i was pilot-resolved (d-cache ladder).

    Runs the rung's variant L1d inline for every load/store and its
    ``_miss_packed`` fill path (or the inline L2 below) for both d-misses
    and the pre-resolved i-misses.  Returns ``(l1i_memory, l1d_misses,
    l1d_memory, l1d_writebacks, l2_accesses, memory_accesses)``.
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


def _dispatch_variant_i_fast(reduced, kernel_state, miss_fill, l2_state=None, mem_state=None):
    """Per-rung dispatch when the L1d was pilot-resolved (i-cache ladder).

    Runs the rung's variant L1i inline for every fetch op; the pre-resolved
    d-misses carry their shared victim-writeback outcome in the stream.
    Returns ``(l1i_accesses, l1i_misses, l1i_memory, l1d_memory,
    l2_accesses, memory_accesses)``.  Same contract as
    :func:`_dispatch_variant_d_fast`: hoisted kernel
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


def _push_victims(buffer, victims) -> int:
    """Push ``victims`` in order into a write-back buffer; returns the overflows.

    Equal to one :meth:`~repro.cache.writeback_buffer.WritebackBuffer.push`
    per victim: the buffer keeps the newest ``num_entries`` and each push
    past that drains the oldest (counters are flushed by the caller).
    """
    pending = buffer._pending
    pending.extend(victims)
    overflows = len(pending) - buffer.num_entries
    if overflows <= 0:
        return 0
    for _ in range(overflows):
        pending.popleft()
    return overflows


def _fold_stack_d(counts, span, shared, hierarchy, table, ways):
    """:func:`_fold_pilot_i` for a stack-resolved rung (d-cache ladder).

    No per-op work: the variant L1d's accesses, hits, write misses and
    dirty victims are lookups in ``table`` (the
    :class:`~repro.sim.predecode.StackTable` at this rung's set count) at
    ``ways``; the L2 is a first-touch filter (see the module docstring):
    a read hits unless it is a first touch (then memory supplies the
    block), and a dirty L1d victim goes through the write-back buffer into
    an L2 write hit.
    """
    index, i_first, d_first, _ = span
    fetches, i_misses = shared
    da, dw, dh, dwm, victims = table.interval(index, ways)
    dwb = len(victims)
    wb_over = _push_victims(hierarchy.writeback_buffer, victims)
    dm = da - dh
    first = i_first + d_first
    _flush_l1(hierarchy.l1d.stats, da, dw, dh, dwm, dwb)
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


def _fold_stack_i(counts, span, shared, hierarchy, table, ways):
    """:func:`_fold_pilot_d` for a stack-resolved rung (i-cache ladder).

    Same rule as :func:`_fold_stack_d`, with the variant L1i from the
    table.  Every rung repeats the pilot L1d's shared dirty-victim pushes;
    the L1i is never written, so its own victims are clean.
    """
    index, i_first, d_first, victims = span
    d_misses, d_writebacks = shared
    ia, _, ih, _, _ = table.interval(index, ways)
    wb_over = _push_victims(hierarchy.writeback_buffer, victims)
    im = ia - ih
    first = i_first + d_first
    _flush_l1(hierarchy.l1i.stats, ia, 0, ih, 0, 0)
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


def _variant_l1(ctx, side):
    """The L1 a ladder piloting ``side`` varies across its rungs."""
    return ctx.hierarchy.l1d if side == "i" else ctx.hierarchy.l1i


def _stack_rung(ctx, side, config) -> bool:
    """Whether the stack pass and the first-touch rule are exact for this rung.

    It needs the ladder's stock L2 over stock memory, a stock LRU variant
    L1, both caches holding no blocks — contents, not counters:
    ``reset_stats`` zeroes counters and keeps blocks — and no mid-run
    resize or flush (no strategy, or :class:`StaticResizing`, whose one
    resize lands on the empty cache before the run).
    """
    hierarchy = ctx.hierarchy
    l2 = hierarchy.l2
    variant = _variant_l1(ctx, side)
    return (
        hierarchy.config is config and type(l2) is Cache and l2.geometry == config.l2.geometry
        and type(variant) in (Cache, ResizableCache)
        and variant.replacement is ReplacementPolicy.LRU
        and not l2.resident_blocks() and not variant.resident_blocks()
        and hierarchy._memory_state() is not None
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
