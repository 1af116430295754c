"""Property-based equivalence for the vectorized trace pre-decode.

Hypothesis draws applications, trace lengths (odd ones included), fetch
block sizes and interval partitions, and asserts two invariants of
:mod:`repro.sim.predecode`:

* the NumPy builder and the stdlib builder produce bit-identical
  :class:`~repro.sim.predecode.DecodedTrace` payloads (skipped when NumPy
  is not importable — the CI matrix runs both legs);
* the whole-trace decode equals the concatenation of per-interval
  :func:`repro.sim.engine.decode_interval` outputs, ops and totals alike,
  for any partition — the contract that lets engines slice intervals out
  of one precomputed stream;
* one LRU stack pass (:func:`repro.sim.predecode.build_stack`) over a
  random load/store stream decides, for every associativity up to its
  depth, exactly what a stock LRU cache of that shape does: per-op hit or
  miss, write misses, and the dirty-victim sequence with addresses.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import PACKED_WRITEBACK_SHIFT, PACKED_WRITEBACK_VALID, Cache
from repro.common.config import CacheGeometry
from repro.cpu.branch import BimodalBranchPredictor
from repro.sim import predecode
from repro.sim.engine import decode_interval
from repro.sim.runner import TraceSpec
from repro.sim.vector import numpy_or_none
from repro.workloads.trace import InstructionRecord, Trace

import pytest

_APPLICATIONS = st.sampled_from(["gcc", "compress", "swim", "vortex"])
_LENGTHS = st.integers(min_value=257, max_value=2_500)
_BLOCK_BYTES = st.sampled_from([16, 32, 64])
_INTERVALS = st.sampled_from([97, 250, 1_024])


def _fields(decoded):
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
@settings(max_examples=25, deadline=None)
@given(application=_APPLICATIONS, length=_LENGTHS, block_bytes=_BLOCK_BYTES)
def test_numpy_decode_equals_scalar_decode(application, length, block_bytes):
    trace = TraceSpec(application, length).materialize()
    mask = ~(block_bytes - 1)
    vectorized = predecode._build_numpy(trace, mask, numpy_or_none())
    scalar = predecode._build_scalar(trace, mask)
    assert _fields(vectorized) == _fields(scalar)


@settings(max_examples=25, deadline=None)
@given(
    application=_APPLICATIONS,
    length=_LENGTHS,
    block_bytes=_BLOCK_BYTES,
    interval=_INTERVALS,
)
def test_decode_equals_interval_concatenation(application, length, block_bytes, interval):
    trace = TraceSpec(application, length).materialize()
    mask = ~(block_bytes - 1)
    decoded = predecode.build_decoded(trace, mask)
    assert decoded is not None

    predict = BimodalBranchPredictor().predict_and_update
    pc_col, addr_col, flag_col = trace.columns()
    last_fetch_block = -1
    start = 0
    while start < length:
        stop = min(start + interval, length)
        ops, last_fetch_block, branches, mispredicts, memrefs, stores = (
            decode_interval(
                pc_col[start:stop], flag_col[start:stop], addr_col[start:stop],
                stop - start, mask, last_fetch_block, predict,
            )
        )
        assert decoded.interval_ops(start, stop) == ops
        assert decoded.branch_prefix[stop] - decoded.branch_prefix[start] == branches
        assert (
            decoded.mispredict_prefix[stop] - decoded.mispredict_prefix[start]
            == mispredicts
        )
        assert decoded.memref_prefix[stop] - decoded.memref_prefix[start] == memrefs
        assert decoded.store_prefix[stop] - decoded.store_prefix[start] == stores
        start = stop


@settings(max_examples=40, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4_095), st.booleans()),
        min_size=1, max_size=400,
    ),
    sets=st.sampled_from([1, 2, 8, 32]),
    ways=st.integers(min_value=1, max_value=8),
    block_bytes=st.sampled_from([16, 32, 64]),
    only_widest=st.booleans(),
)
def test_stack_pass_matches_stock_lru_caches(accesses, sets, ways, block_bytes, only_widest):
    trace = Trace.from_records("stack-property", [
        InstructionRecord(0x1000, address, is_store, False, False)
        for address, is_store in accesses
    ])
    decoded = predecode.build_decoded(trace, ~31)
    stack = predecode.build_stack(
        decoded, "d", block_bytes, sets, ways, widths=(ways,) if only_widest else None,
    )
    depths = [0] * len(accesses)
    for index, code in zip(stack.deep_ops, stack.deep_codes):
        assert code & 1 == accesses[index][1]
        depths[index] = code >> 1
    for w in range(1, ways + 1):
        geometry = CacheGeometry(
            w * sets * block_bytes, w, block_bytes=block_bytes, subarray_bytes=block_bytes,
        )
        cache = Cache(geometry, name="reference")
        victims = []
        for index, ((address, is_store), depth) in enumerate(zip(accesses, depths)):
            packed = cache.access_packed(address, is_store)
            assert bool(packed & 1) == (depth < w)
            if packed & PACKED_WRITEBACK_VALID:
                victims.append((index, packed >> PACKED_WRITEBACK_SHIFT))
        assert sum(
            1 for (_, is_store), depth in zip(accesses, depths) if is_store and depth >= w
        ) == cache.stats.write_misses
        recorded = list(zip(stack.victim_ops[w], stack.victim_blocks[w]))
        assert recorded == (victims if w in stack.widths else [])
