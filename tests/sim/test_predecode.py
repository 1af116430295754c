"""Tests for the configuration-invariant trace pre-decode (repro.sim.predecode).

The module's correctness contract is that a whole-trace decode equals the
concatenation of per-interval :func:`repro.sim.engine.decode_interval`
outputs — ops and all four totals — for *any* interval partition, and that
the NumPy and stdlib builders are bit-identical.  These tests pin both,
plus the disk serialization round-trip, the memo counters, the gates
that force scalar replay (non-default predictors, warm pilots), and the
L2-resident gate's first-touch annotation.
"""

from array import array

import pytest

from repro.cache.cache import Cache
from repro.common.config import CacheGeometry, SystemConfig
from repro.common.units import KIB
from repro.cpu.branch import BimodalBranchPredictor
from repro.sim import predecode
from repro.sim.engine import decode_interval
from repro.sim.predecode import (
    OP_DMISS,
    OP_FIRST_TOUCH,
    DecodedTrace,
    build_decoded,
    build_pilot,
    decoded_for,
    pilot_for,
    resident_for,
)
from repro.sim.runner import TraceSpec
from repro.sim.vector import numpy_or_none

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
    """The annotated stream is the reduced stream plus one bit per L2 block."""
    predecode.reset_stats()
    decoded = build_decoded(trace, _BLOCK_MASK)
    l2 = _SYSTEM.l2.geometry
    l1_block = _SYSTEM.l1d.block_bytes
    for side, geometry in (("i", _SYSTEM.l1i), ("d", _SYSTEM.l1d)):
        pilot = build_pilot(decoded, side, geometry, Cache(geometry).replacement, side)
        annotated = resident_for(pilot, l2, l1_block)
        assert annotated is not None
        assert resident_for(pilot, l2, l1_block) is annotated  # memoized per geometry
        assert len(annotated) == len(pilot.entries)
        seen = set()
        position = 0
        while position < len(annotated):
            code, operand = annotated[position], annotated[position + 1]
            block = operand // l2.block_bytes
            assert bool(code & OP_FIRST_TOUCH) == (block not in seen)
            seen.add(block)
            assert code & ~OP_FIRST_TOUCH == pilot.entries[position]
            position += 3 if code & ~OP_FIRST_TOUCH == OP_DMISS else 2
        assert annotated[position - 1] == pilot.entries[-1]
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
