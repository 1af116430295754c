"""Configuration-invariant trace pre-decode, memoized per trace.

``decode_interval`` re-derives, for every interval of every run, work that
does not depend on the cache configuration at all: fetch-block-change
detection, branch resolution against a fresh bimodal predictor, and the
extraction of the memory-op stream.  A profiling sweep replays the same
trace dozens of times, so this module computes that invariant phase **once
per (trace, block mask)** into flat buffers and lets every subsequent run
slice its intervals out of the precomputed stream:

* :class:`DecodedTrace` — the whole-trace cache-op stream (the exact
  concatenation of per-interval ``decode_interval`` outputs) plus per-row
  prefix arrays for the branch/mispredict/memory-ref/store totals, so any
  row range ``[start, stop)`` yields its interval ops and totals in O(1)
  slicing.  Built vectorized when NumPy is importable (see
  :mod:`repro.sim.vector`), with a bit-identical stdlib builder otherwise.
* :class:`PilotResolution` — the fused-ladder pilot pre-screen: a fixed
  (non-resizable) L1's hit/miss sequence over the shared op stream depends
  only on its own geometry, so the pilot-reduced stream of
  :mod:`repro.sim.ladder` is itself trace-invariant and is memoized per
  (trace, side, pilot geometry).
* The L2-resident gate (:func:`resident_for`) — whether an L2 of a given
  geometry can ever evict under that reduced stream, and if not, the
  offsets of the ops that first touch an L2 block; memoized on the
  :class:`PilotResolution` per L2 geometry.
* :class:`StackResolution` — one exact LRU stack pass (Mattson, Gecsei,
  Slutz & Traiger, IBM Systems Journal 1970) over one L1 side's ops at one
  set count, which decides hit or miss, write misses and dirty victims for
  *every* associativity up to its depth at once; memoized per (trace,
  side, block size, set count) and shared by every static ladder rung of
  the trace at that set count.

The memos key off live :class:`~repro.workloads.trace.Trace` objects
(weakly, so traces die normally); :class:`DecodedTrace` additionally
round-trips through the on-disk trace memo
(:meth:`repro.sim.tracecache.TraceCache.put_decoded`) keyed by (trace
digest, block mask, decode version), so worker processes share decodes
across runs and pool restarts.

Correctness argument, pinned by ``tests/sim/test_predecode.py`` and the
property suite: whole-trace decode with the initial ``last_fetch_block =
-1`` equals the concatenation of per-interval decodes because the decode
threads exactly that one integer across interval boundaries; branch
resolution on a *replica* fresh predictor is bit-identical because every
run constructs a fresh default predictor and nothing reads the predictor
object's own counters after replay.  :func:`decoded_for` therefore gates
on the run's predictor being a fresh default
:class:`~repro.cpu.branch.BimodalBranchPredictor` and refuses (returns
None, callers fall back to the scalar path) for anything else.

Op codes (shared layout with :mod:`repro.sim.engine` /
:mod:`repro.sim.ladder`, which keep their private aliases)::

    0  fetch   operand = pc
    1  load    operand = data address
    2  store   operand = data address
    3  i-miss  operand = pc                     (pilot-reduced streams only)
    4  d-miss  operands = address, l1_packed    (pilot-reduced streams only)
"""

from __future__ import annotations

import struct
import weakref
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, compress
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.cache import PACKED_WRITEBACK_SHIFT, PACKED_WRITEBACK_VALID, Cache
from repro.common.counters import CounterRegistry
from repro.cpu.branch import BimodalBranchPredictor
from repro.mem.address import AddressMapper
from repro.sim.vector import numpy_or_none
from repro.workloads.trace import FLAG_BRANCH, FLAG_MEM, FLAG_STORE, FLAG_TAKEN, Trace

OP_FETCH = 0
OP_LOAD = 1
OP_STORE = 2
OP_IMISS = 3
OP_DMISS = 4

#: Bumped whenever the decoded layout or semantics change; part of the
#: on-disk memo key, so stale entries are simply never found.
DECODE_VERSION = 1

#: The decode applies only to runs driven by the default predictor build
#: (``Simulator._prepare_run`` always constructs this); anything else fails
#: the :func:`decoded_for` gate and replays scalar.
_PREDICTOR_TABLE = 4096

#: Row-count ceilings: the prefix arrays are 32-bit ('I'), and the cached
#: boxed-int views trade memory for slice speed only while they stay small.
MAX_ROWS = 1 << 30
_OPS_LIST_MAX_ROWS = 4_000_000
PILOT_MEMO_MAX_ROWS = 4_000_000

_STATS = CounterRegistry({
    "decode_builds": 0,
    "decode_memo_hits": 0,
    "decode_disk_hits": 0,
    "pilot_builds": 0,
    "pilot_memo_hits": 0,
    "l2_resident_ladders": 0,
    "l2_resident_refusals": 0,
    "stack_passes": 0,
    "stack_memo_hits": 0,
    "stack_rungs": 0,
})

_DECODE_MEMO: "weakref.WeakKeyDictionary[Trace, Dict[int, DecodedTrace]]" = (
    weakref.WeakKeyDictionary()
)
_PILOT_MEMO: "weakref.WeakKeyDictionary[Trace, Dict[tuple, PilotResolution]]" = (
    weakref.WeakKeyDictionary()
)
_STACK_MEMO: "weakref.WeakKeyDictionary[Trace, Dict[tuple, StackResolution]]" = (
    weakref.WeakKeyDictionary()
)

_HEADER = struct.Struct("<4sHqQQ")
_MAGIC = b"RDEC"


def stats_snapshot() -> Dict[str, int]:
    """A copy of the module's memo counters (merged across workers by the runner)."""
    return dict(_STATS)


def reset_stats() -> None:
    """Zero the memo counters (tests only)."""
    for key in _STATS:
        _STATS[key] = 0


class DecodedTrace:
    """The whole-trace decode of one (trace, block mask) pair.

    ``stream`` is the flat interleaved ``code, operand`` cache-op stream —
    byte-for-byte what concatenating ``decode_interval`` over any interval
    partition produces — and the five prefix arrays (length ``n + 1``) give
    every per-row running total, so interval ``[start, stop)`` slices as::

        ops      = decoded.interval_ops(start, stop)
        branches = decoded.branch_prefix[stop] - decoded.branch_prefix[start]

    ``op_prefix`` counts op *pairs* (half the flat stream offset).
    """

    __slots__ = (
        "n",
        "block_mask",
        "stream",
        "op_prefix",
        "branch_prefix",
        "mispredict_prefix",
        "memref_prefix",
        "store_prefix",
        "_ops_list",
        "_stream_view",
        "_side_blocks",
    )

    def __init__(self, n, block_mask, stream, op_prefix, branch_prefix,
                 mispredict_prefix, memref_prefix, store_prefix):
        self.n = n
        self.block_mask = block_mask
        self.stream = stream
        self.op_prefix = op_prefix
        self.branch_prefix = branch_prefix
        self.mispredict_prefix = mispredict_prefix
        self.memref_prefix = memref_prefix
        self.store_prefix = store_prefix
        self._ops_list: Optional[List[int]] = None
        self._stream_view = None
        self._side_blocks: Dict[tuple, tuple] = {}

    def interval_ops(self, start: int, stop: int) -> List[int]:
        """The flat op list for rows ``[start, stop)`` (a fresh, mutable list)."""
        ops_list = self._ops_list
        if ops_list is None:
            if self.n <= _OPS_LIST_MAX_ROWS:
                # Box the stream once; interval slices are then C-level
                # pointer copies instead of per-element int boxing.
                self._ops_list = ops_list = self.stream.tolist()
            else:
                view = self._stream_view
                if view is None:
                    self._stream_view = view = memoryview(self.stream)
                return view[2 * self.op_prefix[start]:2 * self.op_prefix[stop]].tolist()
        return ops_list[2 * self.op_prefix[start]:2 * self.op_prefix[stop]]

    def side_blocks(self, side: str, offset_bits: int) -> Tuple[List[int], bytes]:
        """One L1 side's ops as block numbers in stream order, with store flags.

        Side "d" is the loads and stores, side "i" the fetches (never
        stores).  Memoized per (side, block size) as compact arrays, so every
        stack pass of the trace shares one extraction; the list is fresh.
        """
        found = self._side_blocks.get((side, offset_bits))
        if found is None:
            ops = self.interval_ops(0, self.n)
            keep = [(code == OP_FETCH) == (side == "i") for code in ops[0::2]]
            found = self._side_blocks[side, offset_bits] = (
                array("Q", [address >> offset_bits for address in compress(ops[1::2], keep)]),
                bytes([code == OP_STORE for code in compress(ops[0::2], keep)]),
            )
        return found[0].tolist(), found[1]

    def to_bytes(self) -> bytes:
        """Serialize for the on-disk trace memo (native byte order)."""
        parts = [
            _HEADER.pack(_MAGIC, DECODE_VERSION, self.block_mask, self.n, len(self.stream)),
            self.stream.tobytes(),
        ]
        for prefix in (self.op_prefix, self.branch_prefix, self.mispredict_prefix,
                       self.memref_prefix, self.store_prefix):
            parts.append(prefix.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DecodedTrace":
        if len(data) < _HEADER.size:
            raise ValueError("truncated decoded-trace payload")
        magic, version, block_mask, n, stream_len = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC or version != DECODE_VERSION:
            raise ValueError("not a decoded-trace payload of the current version")
        offset = _HEADER.size
        stream = array("Q")
        stream.frombytes(data[offset:offset + 8 * stream_len])
        offset += 8 * stream_len
        prefixes = []
        span = 4 * (n + 1)
        for _ in range(5):
            prefix = array("I")
            prefix.frombytes(data[offset:offset + span])
            offset += span
            prefixes.append(prefix)
        if len(stream) != stream_len or any(len(p) != n + 1 for p in prefixes):
            raise ValueError("truncated decoded-trace payload")
        return cls(n, block_mask, stream, *prefixes)


class PilotResolution:
    """A fused ladder's pilot-reduced stream, precomputed for a whole trace.

    ``entries`` is the flat reduced stream exactly as
    ``repro.sim.ladder._resolve_pilot_i/_resolve_pilot_d`` would emit it
    over the whole trace (variable arity: d-miss ops carry the pilot's
    packed outcome as a third entry, which is why ``entry_prefix`` counts
    flat *entries*, not pairs).  ``miss_prefix`` carries the shared
    per-row running miss total (i-misses for side "i", d-misses for side
    "d"); ``wb_prefix`` the shared d-writeback total and ``victims`` those
    writebacks' block addresses in order (side "d" only).  ``resident``
    memoizes :func:`resident_for` per L2 geometry.
    """

    __slots__ = ("side", "entries", "entry_prefix", "miss_prefix", "wb_prefix", "victims",
                 "resident")

    def __init__(self, side, entries, entry_prefix, miss_prefix, wb_prefix, victims=None):
        self.side = side
        self.entries = entries
        self.entry_prefix = entry_prefix
        self.miss_prefix = miss_prefix
        self.wb_prefix = wb_prefix
        self.victims = victims
        self.resident: Dict[object, Optional[Tuple[array, array]]] = {}

    def interval_entries(self, start: int, stop: int) -> List[int]:
        """The flat reduced-op list for rows ``[start, stop)``."""
        return self.entries[self.entry_prefix[start]:self.entry_prefix[stop]]


class StackResolution:
    """One L1 side's exact LRU stack pass at one set count, for a whole trace.

    Under LRU a set's contents in a ``w``-way cache are the ``w`` most
    recently used blocks that map to it, so one MRU-first stack per set
    decides every associativity at once: an op found at stack depth ``d``
    hits exactly in the rungs with more than ``d`` ways.  Variant-side ops
    (loads and stores for side "d", fetches for side "i") are indexed in
    stream order; ``deep_ops`` / ``deep_codes`` record, for each op found
    below the top of its stack, its index and ``depth << 1 | is_store``
    (depth ``ways`` is a miss in every rung with at most ``ways`` ways; ops
    at depth 0 hit in every rung and are not recorded).
    ``victim_ops[w]`` / ``victim_blocks[w]`` list rung ``w``'s dirty
    victims in order, as (op index, block-aligned address), for each width
    in ``widths`` (every width, for side "i", whose victims are never
    dirty).  The per-interval counts a fold reads come from :meth:`table`.
    """

    __slots__ = ("side", "ways", "widths", "deep_ops", "deep_codes", "victim_ops",
                 "victim_blocks", "_tables")

    def __init__(self, side, ways, widths, deep_ops, deep_codes, victim_ops, victim_blocks):
        self.side = side
        self.ways = ways
        self.widths = frozenset(widths)
        self.deep_ops = deep_ops
        self.deep_codes = deep_codes
        self.victim_ops = victim_ops
        self.victim_blocks = victim_blocks
        self._tables: Dict[int, StackTable] = {}

    def table(self, decoded: DecodedTrace, interval: int) -> "StackTable":
        """The per-interval counts for intervals of ``interval`` rows (memoized)."""
        table = self._tables.get(interval)
        if table is None:
            table = self._tables[interval] = StackTable(self, decoded, interval)
        return table


class StackTable:
    """A :class:`StackResolution` cut at the boundaries of one interval length.

    For boundary ``j`` (row ``min(j * interval, n)``), ``ops[j]`` and
    ``stores[j]`` count the variant-side ops and stores before it,
    ``misses[j][w]`` / ``write_misses[j][w]`` those at depth ``w`` or
    deeper, and ``victim_at[w][j]`` rung ``w``'s dirty victims.
    """

    __slots__ = ("ops", "stores", "misses", "write_misses", "victim_at", "victim_blocks")

    def __init__(self, stack: StackResolution, decoded: DecodedTrace, interval: int) -> None:
        n = decoded.n
        rows = list(range(0, n, interval)) + [n]
        memrefs = decoded.memref_prefix
        if stack.side == "d":
            self.ops = [memrefs[r] for r in rows]
            self.stores = [decoded.store_prefix[r] for r in rows]
        else:
            self.ops = [decoded.op_prefix[r] - memrefs[r] for r in rows]
            self.stores = [0] * len(rows)
        histogram = [0] * (2 * stack.ways + 2)  # indexed by depth << 1 | is_store
        self.misses: List[List[int]] = []
        self.write_misses: List[List[int]] = []
        position = 0
        for op in self.ops:
            stop = bisect_left(stack.deep_ops, op, position)
            for code, count in Counter(stack.deep_codes[position:stop]).items():
                histogram[code] += count
            position = stop
            stores = histogram[:0:-2]  # deepest first
            self.misses.append([*accumulate(map(add, histogram[-2::-2], stores))][::-1])
            self.write_misses.append([*accumulate(stores)][::-1])
        self.victim_at = [
            [bisect_left(victim_ops, op) for op in self.ops] for victim_ops in stack.victim_ops
        ]
        self.victim_blocks = stack.victim_blocks

    def interval(self, j: int, ways: int):
        """Interval ``j`` of a ``ways``-way rung at this set count.

        Returns ``(accesses, writes, hits, write_misses, dirty_victims)``,
        the victims as the block addresses the rung's L1 evicts dirty, in
        order.
        """
        misses, write_misses = self.misses, self.write_misses
        accesses = self.ops[j + 1] - self.ops[j]
        at = self.victim_at[ways]
        return (
            accesses,
            self.stores[j + 1] - self.stores[j],
            accesses - (misses[j + 1][ways] - misses[j][ways]),
            write_misses[j + 1][ways] - write_misses[j][ways],
            self.victim_blocks[ways][at[j]:at[j + 1]],
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_decoded(trace: Trace, block_mask: int) -> Optional[DecodedTrace]:
    """Decode a whole trace; None when it falls outside the supported gates."""
    n = len(trace)
    if n == 0 or n >= MAX_ROWS:
        return None
    _STATS["decode_builds"] += 1
    np = numpy_or_none()
    if np is not None:
        return _build_numpy(trace, block_mask, np)
    return _build_scalar(trace, block_mask)


def _build_scalar(trace: Trace, block_mask: int) -> DecodedTrace:
    """One whole-trace pass mirroring ``decode_interval`` row for row."""
    pc_column, address_column, flag_column = trace.columns()
    pcs = memoryview(pc_column).tolist()
    flags = memoryview(flag_column).tolist()
    addresses = memoryview(address_column).tolist()
    n = len(pcs)

    stream = array("Q")
    append = stream.append
    zeros = bytes(4 * (n + 1))
    op_prefix = array("I", zeros)
    branch_prefix = array("I", zeros)
    mispredict_prefix = array("I", zeros)
    memref_prefix = array("I", zeros)
    store_prefix = array("I", zeros)

    # Inline replica of a fresh default BimodalBranchPredictor: identical
    # indexing, 2-bit saturating update and mispredict rule.
    counters = [BimodalBranchPredictor.WEAK_TAKEN] * _PREDICTOR_TABLE
    pmask = _PREDICTOR_TABLE - 1

    branch_flag, mem_flag = FLAG_BRANCH, FLAG_MEM
    store_flag, taken_flag = FLAG_STORE, FLAG_TAKEN
    op_fetch, op_load, op_store = OP_FETCH, OP_LOAD, OP_STORE
    last_fetch_block = -1
    op_count = 0
    branches = 0
    mispredicts = 0
    memory_refs = 0
    stores = 0
    for k in range(n):
        pc = pcs[k]
        fetch_block = pc & block_mask
        if fetch_block != last_fetch_block:
            last_fetch_block = fetch_block
            append(op_fetch)
            append(pc)
            op_count += 1
        flag = flags[k]
        if flag:
            if flag & branch_flag:
                branches += 1
                index = (pc >> 2) & pmask
                counter = counters[index]
                taken = bool(flag & taken_flag)
                if (counter >= 2) != taken:
                    mispredicts += 1
                if taken:
                    if counter < 3:
                        counters[index] = counter + 1
                elif counter > 0:
                    counters[index] = counter - 1
            if flag & mem_flag:
                if flag & store_flag:
                    stores += 1
                    append(op_store)
                else:
                    append(op_load)
                memory_refs += 1
                append(addresses[k])
                op_count += 1
        j = k + 1
        op_prefix[j] = op_count
        branch_prefix[j] = branches
        mispredict_prefix[j] = mispredicts
        memref_prefix[j] = memory_refs
        store_prefix[j] = stores

    return DecodedTrace(n, block_mask, stream, op_prefix, branch_prefix,
                        mispredict_prefix, memref_prefix, store_prefix)


def _build_numpy(trace: Trace, block_mask: int, np) -> DecodedTrace:
    """Vectorized builder: everything but the (sequential) predictor replica."""
    pc_column, address_column, flag_column = trace.columns()
    pc = np.frombuffer(pc_column, dtype=np.uint64)
    addresses = np.frombuffer(address_column, dtype=np.uint64)
    flags = np.frombuffer(flag_column, dtype=np.uint8)
    n = len(pc)

    mask64 = np.uint64(block_mask & 0xFFFFFFFFFFFFFFFF)
    blocks = pc & mask64
    fetch = np.empty(n, dtype=bool)
    fetch[0] = True  # initial last_fetch_block is -1, never a real block
    np.not_equal(blocks[1:], blocks[:-1], out=fetch[1:])

    mem = (flags & FLAG_MEM) != 0
    store = mem & ((flags & FLAG_STORE) != 0)
    branch = (flags & FLAG_BRANCH) != 0

    pairs = fetch.astype(np.uint32)
    pairs += mem
    op_prefix_np = np.zeros(n + 1, dtype=np.uint32)
    np.cumsum(pairs, out=op_prefix_np[1:])

    stream_np = np.empty(2 * int(op_prefix_np[n]), dtype=np.uint64)
    base = op_prefix_np[:n].astype(np.int64) * 2
    fetch_at = base[fetch]
    stream_np[fetch_at] = OP_FETCH
    stream_np[fetch_at + 1] = pc[fetch]
    mem_at = (base + 2 * fetch)[mem]
    stream_np[mem_at] = np.where(store[mem], OP_STORE, OP_LOAD)
    stream_np[mem_at + 1] = addresses[mem]

    def running(mask_arr):
        out = np.zeros(n + 1, dtype=np.uint32)
        np.cumsum(mask_arr, out=out[1:])
        return array("I", out.tobytes())

    # Branch resolution is inherently sequential (the table is stateful);
    # run the predictor replica over just the branch rows.
    mispredict_np = np.zeros(n, dtype=np.uint32)
    branch_rows = np.flatnonzero(branch)
    if len(branch_rows):
        counters = [BimodalBranchPredictor.WEAK_TAKEN] * _PREDICTOR_TABLE
        pmask = _PREDICTOR_TABLE - 1
        taken_list = ((flags[branch_rows] & FLAG_TAKEN) != 0).tolist()
        index_list = ((pc[branch_rows] >> np.uint64(2)) & np.uint64(pmask)).tolist()
        mis_list = []
        mis_append = mis_list.append
        for index, taken in zip(index_list, taken_list):
            counter = counters[index]
            mis_append(1 if (counter >= 2) != taken else 0)
            if taken:
                if counter < 3:
                    counters[index] = counter + 1
            elif counter > 0:
                counters[index] = counter - 1
        mispredict_np[branch_rows] = mis_list

    stream = array("Q")
    stream.frombytes(stream_np.tobytes())
    return DecodedTrace(
        n,
        block_mask,
        stream,
        array("I", op_prefix_np.tobytes()),
        running(branch),
        running(mispredict_np),
        running(mem),
        running(store),
    )


def build_pilot(decoded: DecodedTrace, side: str, geometry, replacement, name: str) -> PilotResolution:
    """Resolve the invariant L1 side over the whole decoded stream.

    Drives a throwaway fixed cache with the pilot's exact geometry,
    replacement policy and name (the name seeds RANDOM victim selection),
    which by construction behaves identically to the live pilot a fused
    replay would otherwise drive interval by interval.
    """
    _STATS["pilot_builds"] += 1
    pilot = Cache(geometry, replacement, name=name)
    kernel = pilot.access_packed
    n = decoded.n
    op_prefix = decoded.op_prefix
    stream = decoded.interval_ops(0, n)

    entries: List[int] = []
    append = entries.append
    zeros = bytes(4 * (n + 1))
    entry_prefix = array("I", zeros)
    miss_prefix = array("I", zeros)
    wb_prefix = array("I", zeros) if side == "d" else None
    victims: Optional[List[int]] = [] if side == "d" else None

    misses = 0
    writebacks = 0
    position = 0
    if side == "i":
        for k in range(n):
            stop = 2 * op_prefix[k + 1]
            while position < stop:
                code = stream[position]
                operand = stream[position + 1]
                position += 2
                if code == OP_FETCH:
                    if not kernel(operand, False) & 1:
                        misses += 1
                        append(OP_IMISS)
                        append(operand)
                else:
                    append(code)
                    append(operand)
            entry_prefix[k + 1] = len(entries)
            miss_prefix[k + 1] = misses
    else:
        for k in range(n):
            stop = 2 * op_prefix[k + 1]
            while position < stop:
                code = stream[position]
                operand = stream[position + 1]
                position += 2
                if code == OP_FETCH:
                    append(OP_FETCH)
                    append(operand)
                else:
                    l1_packed = kernel(operand, code != OP_LOAD)
                    if not l1_packed & 1:
                        misses += 1
                        if l1_packed & PACKED_WRITEBACK_VALID:
                            writebacks += 1
                            victims.append(l1_packed >> PACKED_WRITEBACK_SHIFT)
                        append(OP_DMISS)
                        append(operand)
                        append(l1_packed)
            entry_prefix[k + 1] = len(entries)
            miss_prefix[k + 1] = misses
            wb_prefix[k + 1] = writebacks

    return PilotResolution(side, entries, entry_prefix, miss_prefix, wb_prefix, victims)


def build_stack(decoded: DecodedTrace, side: str, block_bytes: int, sets: int,
                ways: int, widths: Optional[Sequence[int]] = None) -> StackResolution:
    """One MRU-first LRU stack pass over a side's ops at one set count.

    Each set's stack is at most ``ways`` deep.  Dirty victims come from one
    integer ``c`` per resident block — it is dirty in rung ``w`` (where it
    is resident, depth below ``w``) iff ``c < w``: a store sets it to 0, a
    read found at depth ``d`` (a refill in every rung of at most ``d``
    ways) raises it to ``d``, and a read miss fills it clean everywhere
    (``ways``).  When an access at depth ``d`` pushes the entry at depth
    ``i < d`` to ``i + 1``, that entry is exactly rung ``i + 1``'s LRU
    victim, dirty iff ``c <= i``.  Victims are recorded for ``widths``
    (ascending; every width up to ``ways`` by default).
    """
    _STATS["stack_passes"] += 1
    offset_bits = block_bytes.bit_length() - 1
    set_mask = sets - 1
    accessed, stored = decoded.side_blocks(side, offset_bits)
    deep_ops = array("I")
    deep_codes = array("B" if ways < 127 else "I")
    note_op, note_code = deep_ops.append, deep_codes.append
    victim_ops = [array("I") for _ in range(ways + 1)]
    victim_blocks = [array("Q") for _ in range(ways + 1)]
    stacks: List[List[int]] = [[] for _ in range(sets)]
    # Fetches never write, so an i-side pass has no dirty victim to record
    # and serves every width.
    widths = tuple(widths or range(1, ways + 1)) if side == "d" else ()
    dirt: Dict[int, int] = {}
    for index, block in enumerate(accessed):
        stack = stacks[block & set_mask]
        if stack and stack[0] == block:
            if stored[index]:
                dirt[block] = 0
            continue
        is_store = stored[index]
        if block in stack:
            depth = stack.index(block)
            del stack[depth]
            if is_store:
                dirt[block] = 0
            elif dirt[block] < depth:
                dirt[block] = depth
        else:
            depth = ways
            dirt[block] = 0 if is_store else ways
        reach = depth if depth < len(stack) else len(stack)
        for w in widths:
            if w > reach:
                break
            entry = stack[w - 1]
            if dirt[entry] < w:
                victim_ops[w].append(index)
                victim_blocks[w].append(entry << offset_bits)
        if len(stack) == ways:
            stack.pop()
        stack.insert(0, block)
        note_op(index)
        note_code(depth << 1 | is_store)
    return StackResolution(side, ways, widths or range(1, ways + 1), deep_ops, deep_codes,
                           victim_ops, victim_blocks)


# ---------------------------------------------------------------------------
# Memoized entry points
# ---------------------------------------------------------------------------


def _predictor_is_default(predictor) -> bool:
    return (
        type(predictor) is BimodalBranchPredictor
        and predictor.table_entries == _PREDICTOR_TABLE
        and predictor.predictions == 0
    )


def decoded_for(trace: Trace, block_mask: int, predictor) -> Optional[DecodedTrace]:
    """The memoized decode for a run, or None when the run must stay scalar.

    Gates: the run's predictor must be a fresh default bimodal predictor
    (the precomputed mispredict totals were produced by exactly that
    machine) and the trace must fit the 32-bit prefix layout.  Checks the
    in-memory weak memo, then the on-disk trace memo, then builds.
    """
    n = len(trace)
    if n == 0 or n >= MAX_ROWS or not _predictor_is_default(predictor):
        return None
    per_trace = _per_trace(_DECODE_MEMO, trace)
    decoded = per_trace.get(block_mask)
    if decoded is not None:
        _STATS["decode_memo_hits"] += 1
        return decoded
    decoded = _load_from_disk(trace, block_mask)
    if decoded is None:
        decoded = build_decoded(trace, block_mask)
        if decoded is None:
            return None
        _store_to_disk(trace, block_mask, decoded)
    per_trace[block_mask] = decoded
    return decoded


def _per_trace(memo, trace) -> dict:
    """``trace``'s entry dict in a weak per-trace memo (created on first use).

    Unweakrefable trace stand-ins (tests) get a throwaway dict.
    """
    per_trace = memo.get(trace)
    if per_trace is None:
        per_trace = {}
        try:
            memo[trace] = per_trace
        except TypeError:
            pass
    return per_trace


def pilot_for(trace: Trace, decoded: DecodedTrace, side: str, cache) -> Optional[PilotResolution]:
    """The memoized pilot pre-screen, or None when the pilot is unsupported.

    ``cache`` is the live pilot (rung 0's fixed L1).  It must be exactly a
    :class:`~repro.cache.cache.Cache` holding no blocks — the memoized
    resolution is only valid from a cold pilot (contents, not counters:
    ``reset_stats`` keeps blocks), and any subclass could change the
    access semantics.  On a memo hit the live pilot is never driven at
    all, which extends the documented fused-ladder caveat (idle
    invariant-side caches) to rung 0.
    """
    if type(cache) is not Cache or cache.resident_blocks():
        return None
    if decoded.n > PILOT_MEMO_MAX_ROWS:
        return None
    key = (side, decoded.block_mask, cache.geometry, cache.replacement, cache.name)
    per_trace = _per_trace(_PILOT_MEMO, trace)
    pilot = per_trace.get(key)
    if pilot is not None:
        _STATS["pilot_memo_hits"] += 1
        return pilot
    pilot = per_trace[key] = build_pilot(
        decoded, side, cache.geometry, cache.replacement, cache.name
    )
    return pilot


def stack_for(trace: Trace, decoded: DecodedTrace, side: str, block_bytes: int, sets: int,
              widths: Sequence[int], widest: int, rungs: int) -> StackResolution:
    """The memoized stack pass of ``side`` at ``sets`` sets, for rungs of ``widths`` ways.

    The first pass at a set count resolves exactly ``widths`` (ascending).
    A memoized pass serves any request it covers; any other re-resolves
    and replaces it with a pass for every width up to ``widest`` (the
    widest any L1 of the ladder's capacity can be at this set count), so
    a trace whose ladders span associativities resolves each set count at
    most twice.  ``rungs`` is the number of ladder rungs served (the
    ``stack_rungs`` counter).  Callers hold a pilot resolution of the same
    trace, so the :data:`PILOT_MEMO_MAX_ROWS` cap applies.
    """
    _STATS["stack_rungs"] += rungs
    key = (side, decoded.block_mask, block_bytes, sets)
    per_trace = _per_trace(_STACK_MEMO, trace)
    stack = per_trace.get(key)
    ways = widths[-1]
    if stack is not None:
        if stack.ways >= ways and stack.widths.issuperset(widths):
            _STATS["stack_memo_hits"] += 1
            return stack
        ways, widths = max(ways, widest), None
    stack = per_trace[key] = build_stack(decoded, side, block_bytes, sets, ways, widths)
    return stack


def resident_for(pilot: PilotResolution, l2_geometry,
                 l1_block_bytes: int) -> Optional[Tuple[array, array]]:
    """First-touch entry offsets, or None when an L2 could evict.

    The gate holds when no set of an L2 with ``l2_geometry`` receives more
    distinct L2 blocks over ``pilot.entries`` than it has ways, and L1
    blocks are no larger than L2 blocks.  Every block any rung's L2 sees is
    then the L2 block of some op in the stream (victims were filled by an
    earlier op), so no rung can ever evict from its L2, and an op's L2
    read misses exactly when the op is the first to touch its L2 block
    (its L1 access is a compulsory miss in every rung).  Returns the
    ascending ``pilot.entries`` offsets of those first touches by
    instruction-side (fetch / i-miss) and data-side (load / store /
    d-miss) ops; rows ``[start, stop)`` hold the ones in ``[entry_prefix[start],
    entry_prefix[stop])``.  Counted once per ladder consulting the gate.
    """
    first_touch = None
    if l1_block_bytes <= l2_geometry.block_bytes:
        if l2_geometry not in pilot.resident:
            pilot.resident[l2_geometry] = _first_touches(pilot.entries, l2_geometry)
        first_touch = pilot.resident[l2_geometry]
    _STATS["l2_resident_ladders" if first_touch is not None else "l2_resident_refusals"] += 1
    return first_touch


def _first_touches(entries: List[int], geometry) -> Optional[Tuple[array, array]]:
    offset_bits, _, set_mask = AddressMapper(geometry.block_bytes, geometry.num_sets).shift_mask()
    ways = geometry.associativity
    seen = set()
    per_set: Dict[int, int] = {}
    i_touches = array("I")
    d_touches = array("I")
    position = 0
    end = len(entries)
    while position < end:
        code = entries[position]
        block = entries[position + 1] >> offset_bits
        if block not in seen:
            seen.add(block)
            count = per_set.get(block & set_mask, 0) + 1
            if count > ways:
                return None
            per_set[block & set_mask] = count
            (i_touches if code == OP_FETCH or code == OP_IMISS else d_touches).append(position)
        position += 3 if code == OP_DMISS else 2
    return i_touches, d_touches


def _load_from_disk(trace: Trace, block_mask: int) -> Optional[DecodedTrace]:
    # The trace cache verifies a checksum around every ``.decode`` entry
    # and self-heals corrupt ones into misses; the blanket except below is
    # the last-resort guard (a checksum-valid payload from a buggy writer),
    # and a miss here simply rebuilds the decode.
    try:
        from repro.sim.runner import _trace_digest, get_trace_cache

        cache = get_trace_cache()
        if cache is None:
            return None
        data = cache.get_decoded(_trace_digest(trace), block_mask)
        if data is None:
            return None
        decoded = DecodedTrace.from_bytes(data)
        if decoded.n != len(trace) or decoded.block_mask != block_mask:
            return None
        _STATS["decode_disk_hits"] += 1
        return decoded
    except Exception:
        return None


def _store_to_disk(trace: Trace, block_mask: int, decoded: DecodedTrace) -> None:
    try:
        from repro.sim.runner import _trace_digest, get_trace_cache

        cache = get_trace_cache()
        if cache is not None:
            cache.put_decoded(_trace_digest(trace), block_mask, decoded.to_bytes())
    except Exception:
        pass
