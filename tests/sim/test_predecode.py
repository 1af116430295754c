"""Tests for the configuration-invariant trace pre-decode (repro.sim.predecode).

The module's correctness contract is that a whole-trace decode equals the
concatenation of per-interval :func:`repro.sim.engine.decode_interval`
outputs — ops and all four totals — for *any* interval partition, and that
the NumPy and stdlib builders are bit-identical.  These tests pin both,
plus the disk serialization round-trip, the memo counters, the gates
that force scalar replay (non-default predictors, warm pilots), the
L2-resident gate's first-touch counts, and the LRU stack pass, which must
agree op for op with one stock LRU cache per (ways, sets).
"""

import random
from array import array

import pytest

from repro.cache.cache import PACKED_WRITEBACK_SHIFT, PACKED_WRITEBACK_VALID, Cache
from repro.common.config import CacheGeometry, SystemConfig
from repro.common.units import KIB
from repro.cpu.branch import BimodalBranchPredictor
from repro.sim import predecode
from repro.sim.engine import decode_interval
from repro.sim.predecode import (
    OP_DMISS,
    OP_FETCH,
    OP_IMISS,
    DecodedTrace,
    build_decoded,
    build_pilot,
    build_stack,
    decoded_for,
    pilot_for,
    resident_for,
    stack_for,
)
from repro.sim.runner import TraceSpec
from repro.sim.vector import numpy_or_none
from repro.workloads.trace import InstructionRecord, Trace

_SYSTEM = SystemConfig()

#: The mask every real run uses: the L1i fetch-block selector.
_BLOCK_MASK = ~(_SYSTEM.l1i.block_bytes - 1)


@pytest.fixture(scope="module")
def trace():
    return TraceSpec("gcc", 5_003).materialize()  # odd length on purpose


def _partition(n, interval):
    boundaries = []
    start = 0
    while start < n:
        stop = min(start + interval, n)
        boundaries.append((start, stop))
        start = stop
    return boundaries


def _interval_reference(trace, block_mask, boundaries):
    """Per-interval scalar decode, exactly as a live replay drives it."""
    predict = BimodalBranchPredictor().predict_and_update
    pc_col, addr_col, flag_col = trace.columns()
    last_fetch_block = -1
    out = []
    for start, stop in boundaries:
        ops, last_fetch_block, branches, mispredicts, memrefs, stores = (
            decode_interval(
                pc_col[start:stop], flag_col[start:stop], addr_col[start:stop],
                stop - start, block_mask, last_fetch_block, predict,
            )
        )
        out.append((ops, branches, mispredicts, memrefs, stores))
    return out


@pytest.mark.parametrize("interval", [997, 1_024, 5_003])
def test_decoded_equals_per_interval_decode(trace, interval):
    decoded = build_decoded(trace, _BLOCK_MASK)
    assert decoded is not None
    boundaries = _partition(len(trace), interval)
    reference = _interval_reference(trace, _BLOCK_MASK, boundaries)
    for (start, stop), (ops, branches, mispredicts, memrefs, stores) in zip(
        boundaries, reference
    ):
        assert decoded.interval_ops(start, stop) == ops
        assert decoded.branch_prefix[stop] - decoded.branch_prefix[start] == branches
        assert (
            decoded.mispredict_prefix[stop] - decoded.mispredict_prefix[start]
            == mispredicts
        )
        assert decoded.memref_prefix[stop] - decoded.memref_prefix[start] == memrefs
        assert decoded.store_prefix[stop] - decoded.store_prefix[start] == stores


def _decoded_fields(decoded):
    return (
        decoded.n,
        decoded.block_mask,
        decoded.stream,
        decoded.op_prefix,
        decoded.branch_prefix,
        decoded.mispredict_prefix,
        decoded.memref_prefix,
        decoded.store_prefix,
    )


@pytest.mark.skipif(numpy_or_none() is None, reason="NumPy unavailable")
def test_numpy_builder_matches_scalar_builder(trace):
    vectorized = predecode._build_numpy(trace, _BLOCK_MASK, numpy_or_none())
    scalar = predecode._build_scalar(trace, _BLOCK_MASK)
    assert _decoded_fields(vectorized) == _decoded_fields(scalar)


def test_no_numpy_env_pins_scalar_builder(trace, monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert numpy_or_none() is None
    decoded = build_decoded(trace, _BLOCK_MASK)
    assert _decoded_fields(decoded) == _decoded_fields(
        predecode._build_scalar(trace, _BLOCK_MASK)
    )


def test_bytes_round_trip(trace):
    decoded = build_decoded(trace, _BLOCK_MASK)
    rebuilt = DecodedTrace.from_bytes(decoded.to_bytes())
    assert _decoded_fields(rebuilt) == _decoded_fields(decoded)


def test_from_bytes_rejects_foreign_payloads(trace):
    data = bytearray(build_decoded(trace, _BLOCK_MASK).to_bytes())
    data[:4] = b"XXXX"
    with pytest.raises(ValueError):
        DecodedTrace.from_bytes(bytes(data))
    with pytest.raises(ValueError):
        DecodedTrace.from_bytes(b"")


def test_decoded_for_memoizes_per_trace_and_mask(trace):
    predecode.reset_stats()
    first = decoded_for(trace, _BLOCK_MASK, BimodalBranchPredictor())
    second = decoded_for(trace, _BLOCK_MASK, BimodalBranchPredictor())
    assert first is not None and second is first
    snapshot = predecode.stats_snapshot()
    assert snapshot["decode_builds"] == 1
    assert snapshot["decode_memo_hits"] == 1
    # A different mask is a distinct decode, not a hit.
    other = decoded_for(trace, ~15, BimodalBranchPredictor())
    assert other is not None and other is not first
    assert predecode.stats_snapshot()["decode_builds"] == 2


def test_decoded_for_refuses_nondefault_predictors(trace):
    warm = BimodalBranchPredictor()
    warm.predict_and_update(0x1000, True)
    assert decoded_for(trace, _BLOCK_MASK, warm) is None

    class OtherPredictor(BimodalBranchPredictor):
        pass

    assert decoded_for(trace, _BLOCK_MASK, OtherPredictor()) is None


def test_pilot_memoizes_and_refuses_warm_caches(trace):
    predecode.reset_stats()
    decoded = build_decoded(trace, _BLOCK_MASK)
    pilot_cache = Cache(_SYSTEM.l1i, name="l1i")
    first = pilot_for(trace, decoded, "i", pilot_cache)
    assert first is not None
    second = pilot_for(trace, decoded, "i", Cache(_SYSTEM.l1i, name="l1i"))
    assert second is first
    assert predecode.stats_snapshot()["pilot_memo_hits"] == 1
    # The memoized resolution is only valid from a cold pilot.
    warm = Cache(_SYSTEM.l1i, name="l1i")
    warm.access_packed(0x40, False)
    assert pilot_for(trace, decoded, "i", warm) is None
    # Contents, not counters: reset_stats keeps the warm block ...
    warm.reset_stats()
    assert pilot_for(trace, decoded, "i", warm) is None
    # ... and a flushed cache is cold again whatever its counters say.
    warm.access_packed(0x40, False)
    warm.flush_all()
    assert pilot_for(trace, decoded, "i", warm) is first

    class OtherCache(Cache):
        pass

    assert pilot_for(trace, decoded, "i", OtherCache(_SYSTEM.l1i, name="l1i")) is None


def test_pilot_interval_entries_partition_consistently(trace):
    """Slicing the pilot stream over any partition tiles the whole stream."""
    decoded = build_decoded(trace, _BLOCK_MASK)
    for side, geometry in (("i", _SYSTEM.l1i), ("d", _SYSTEM.l1d)):
        pilot = build_pilot(
            decoded, side, geometry, Cache(geometry).replacement, side
        )
        n = decoded.n
        rebuilt = []
        for start, stop in _partition(n, 769):
            rebuilt.extend(pilot.interval_entries(start, stop))
        assert rebuilt == pilot.entries
        assert pilot.miss_prefix[n] >= 0
        if side == "d":
            assert pilot.wb_prefix is not None
        else:
            assert pilot.wb_prefix is None


def test_resident_gate_marks_each_l2_blocks_first_touch(trace):
    """One offset per L2 block, at its first touch, split by side."""
    predecode.reset_stats()
    decoded = build_decoded(trace, _BLOCK_MASK)
    l2 = _SYSTEM.l2.geometry
    l1_block = _SYSTEM.l1d.block_bytes
    for side, geometry in (("i", _SYSTEM.l1i), ("d", _SYSTEM.l1d)):
        pilot = build_pilot(decoded, side, geometry, Cache(geometry).replacement, side)
        first_touch = resident_for(pilot, l2, l1_block)
        assert first_touch is not None
        assert resident_for(pilot, l2, l1_block) is first_touch  # memoized per geometry
        seen = set()
        expected = ([], [])
        position = 0
        while position < len(pilot.entries):
            code, operand = pilot.entries[position], pilot.entries[position + 1]
            block = operand // l2.block_bytes
            if block not in seen:
                seen.add(block)
                expected[0 if code in (OP_FETCH, OP_IMISS) else 1].append(position)
            position += 3 if code == OP_DMISS else 2
        i_touches, d_touches = first_touch
        assert (list(i_touches), list(d_touches)) == expected
        assert i_touches and d_touches
    stats = predecode.stats_snapshot()
    assert (stats["l2_resident_ladders"], stats["l2_resident_refusals"]) == (4, 0)


def test_resident_gate_refuses_evicting_l2s(trace):
    predecode.reset_stats()
    decoded = build_decoded(trace, _BLOCK_MASK)
    pilot = build_pilot(decoded, "i", _SYSTEM.l1i, Cache(_SYSTEM.l1i).replacement, "i")
    # Fewer L2 frames than the trace touches: some set must overflow.
    assert resident_for(pilot, CacheGeometry(8 * KIB, 2, block_bytes=64), 32) is None
    # L1 blocks larger than L2 blocks: a victim's block address may name
    # an L2 block no op touched.
    assert resident_for(pilot, _SYSTEM.l2.geometry, 128) is None
    stats = predecode.stats_snapshot()
    assert (stats["l2_resident_ladders"], stats["l2_resident_refusals"]) == (0, 2)


def test_disk_round_trip_counts_disk_hits(trace, tmp_path):
    from repro.sim.runner import set_trace_cache, get_trace_cache

    predecode.reset_stats()
    previous = get_trace_cache()
    set_trace_cache(str(tmp_path / "traces"))
    try:
        built = build_decoded(trace, _BLOCK_MASK)
        predecode._store_to_disk(trace, _BLOCK_MASK, built)
        loaded = predecode._load_from_disk(trace, _BLOCK_MASK)
        assert loaded is not None
        assert _decoded_fields(loaded) == _decoded_fields(built)
        assert predecode.stats_snapshot()["decode_disk_hits"] == 1
    finally:
        set_trace_cache(previous)


def test_stream_is_flat_uint64_pairs(trace):
    decoded = build_decoded(trace, _BLOCK_MASK)
    assert isinstance(decoded.stream, array) and decoded.stream.typecode == "Q"
    assert len(decoded.stream) == 2 * decoded.op_prefix[decoded.n]


def _data_trace(name, accesses):
    """A trace of loads/stores from one code block: one fetch op, then data."""
    return Trace.from_records(name, [
        InstructionRecord(0x1000, address, is_store, False, False)
        for address, is_store in accesses
    ])


def _lru_reference(accesses, block_bytes, sets, ways):
    """Per-op outcomes of a stock LRU :class:`Cache` of ``ways`` x ``sets``.

    Returns ``(hits, write_misses, victims)``: one hit flag per access, the
    write-miss count and the dirty victims as (access index, address).
    """
    geometry = CacheGeometry(
        ways * sets * block_bytes, ways, block_bytes=block_bytes, subarray_bytes=block_bytes,
    )
    cache = Cache(geometry, name="reference")
    hits, victims = [], []
    for index, (address, is_store) in enumerate(accesses):
        packed = cache.access_packed(address, is_store)
        hits.append(bool(packed & 1))
        if packed & PACKED_WRITEBACK_VALID:
            victims.append((index, packed >> PACKED_WRITEBACK_SHIFT))
    return hits, cache.stats.write_misses, victims


def _random_accesses(seed, count, blocks, block_bytes):
    rng = random.Random(seed)
    return [
        (rng.randrange(blocks) * block_bytes + rng.randrange(block_bytes), rng.random() < 0.4)
        for _ in range(count)
    ]


def _depths(stack, count):
    """Each op's stack depth (0 for the ops a pass does not record)."""
    depths = [0] * count
    for index, code in zip(stack.deep_ops, stack.deep_codes):
        depths[index] = code >> 1
    return depths


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sets", [1, 4, 16])
def test_stack_pass_matches_one_lru_cache_per_associativity(seed, sets):
    block_bytes, ways = 32, 8
    accesses = _random_accesses(seed, 1_500, 6 * sets * ways // 4, block_bytes)
    decoded = build_decoded(_data_trace("stack-random", accesses), _BLOCK_MASK)
    stack = build_stack(decoded, "d", block_bytes, sets, ways)
    assert stack.ways == ways and stack.widths == set(range(1, ways + 1))
    depths = _depths(stack, len(accesses))
    assert all(depths[index] > 0 for index in stack.deep_ops)
    assert [code & 1 for code in stack.deep_codes] == [
        int(accesses[index][1]) for index in stack.deep_ops
    ]
    for w in range(1, ways + 1):
        hits, write_misses, victims = _lru_reference(accesses, block_bytes, sets, w)
        assert [depth < w for depth in depths] == hits
        assert sum(
            1 for (_, is_store), depth in zip(accesses, depths) if is_store and depth >= w
        ) == write_misses
        assert list(zip(stack.victim_ops[w], stack.victim_blocks[w])) == victims
        assert victims  # the stream really evicts dirty blocks at every width


def test_stack_pass_records_only_the_widths_asked_for():
    block_bytes, sets, ways = 32, 4, 8
    accesses = _random_accesses(11, 1_500, 48, block_bytes)
    decoded = build_decoded(_data_trace("stack-widths", accesses), _BLOCK_MASK)
    full = build_stack(decoded, "d", block_bytes, sets, ways)
    some = build_stack(decoded, "d", block_bytes, sets, ways, widths=(2, 5, 8))
    assert some.widths == {2, 5, 8}
    assert (some.deep_ops, some.deep_codes) == (full.deep_ops, full.deep_codes)
    for w in range(1, ways + 1):
        if w in some.widths:
            assert some.victim_blocks[w] == full.victim_blocks[w]
            assert some.victim_ops[w] == full.victim_ops[w]
        else:
            assert len(some.victim_blocks[w]) == 0 < len(full.victim_blocks[w])


def test_stack_table_cuts_the_pass_at_interval_boundaries():
    block_bytes, sets, ways = 32, 4, 4
    accesses = _random_accesses(7, 2_003, 40, block_bytes)
    trace = _data_trace("stack-table", accesses)
    decoded = build_decoded(trace, _BLOCK_MASK)
    stack = build_stack(decoded, "d", block_bytes, sets, ways)
    interval = 300
    table = stack.table(decoded, interval)
    assert stack.table(decoded, interval) is table  # memoized per length
    for w in range(1, ways + 1):
        hits, _, victims = _lru_reference(accesses, block_bytes, sets, w)
        for j, (start, stop) in enumerate(_partition(len(accesses), interval)):
            # Each row is one data access, so rows and op indices coincide.
            span = accesses[start:stop]
            writes = sum(s for _, s in span)
            write_hits = sum(1 for k in range(start, stop) if accesses[k][1] and hits[k])
            *counts, dirty = table.interval(j, w)
            assert counts == [stop - start, writes, sum(hits[start:stop]), writes - write_hits]
            assert list(dirty) == [address for index, address in victims if start <= index < stop]


def test_stack_pass_on_the_fetch_side(trace):
    decoded = build_decoded(trace, _BLOCK_MASK)
    ops = decoded.interval_ops(0, decoded.n)
    fetches = [(ops[k + 1], False) for k in range(0, len(ops), 2) if ops[k] == OP_FETCH]
    for sets in (64, 256):
        stack = build_stack(decoded, "i", _SYSTEM.l1i.block_bytes, sets, 4)
        depths = _depths(stack, len(fetches))
        for w in range(1, 5):
            hits, _, victims = _lru_reference(fetches, _SYSTEM.l1i.block_bytes, sets, w)
            assert [depth < w for depth in depths] == hits
            assert victims == [] and len(stack.victim_ops[w]) == 0


def test_stack_memo_serves_what_it_covers_and_re_resolves_the_rest(trace):
    predecode.reset_stats()
    decoded = build_decoded(trace, _BLOCK_MASK)
    n_ops = decoded.memref_prefix[decoded.n]
    first = stack_for(trace, decoded, "d", 32, 64, [2, 4], 16, rungs=3)
    assert (first.ways, first.widths) == (4, {2, 4})  # exactly the widths asked
    assert stack_for(trace, decoded, "d", 32, 64, [4], 16, rungs=1) is first
    assert stack_for(trace, decoded, "i", 32, 64, [2], 16, rungs=1) is not first  # per side
    # An uncovered width re-resolves every width up to the widest L1.
    full = stack_for(trace, decoded, "d", 32, 64, [3], 16, rungs=2)
    assert (full.ways, full.widths) == (16, set(range(1, 17)))
    assert stack_for(trace, decoded, "d", 32, 64, [8, 16], 16, rungs=1) is full
    # The passes agree wherever both decide.
    assert [min(depth, 4) for depth in _depths(full, n_ops)] == _depths(first, n_ops)
    for w in (2, 4):
        assert full.victim_blocks[w] == first.victim_blocks[w]
    stats = predecode.stats_snapshot()
    assert (stats["stack_passes"], stats["stack_memo_hits"], stats["stack_rungs"]) == (3, 2, 8)
