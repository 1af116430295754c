"""Cache-identity contracts of job fingerprints.

A job fingerprint is the whole safety argument of the job cache: a cached
result may serve a job only if every input that affects the result is in
the fingerprint.  Three layers pin it here:

* **Golden canonical payloads.**  ``tests/data/golden_fingerprint_payloads.json``
  holds the exact bytes :func:`repro.sim.runner.job_fingerprint` hashes for
  a representative job set, and the fingerprints, with the source digest
  held constant.  Any change to the canonical form then has to be made on
  purpose: regenerate with ``PYTHONPATH=src python
  tests/sim/test_fingerprint.py --regenerate`` and bump
  ``_FINGERPRINT_VERSION`` when the meaning of the hashed fields changes.
* **Field-mutation soundness.**  Every field of :class:`SimJob` and of
  every nested frozen spec is perturbed in turn; each perturbation must
  change the fingerprint, while ``engine``, an external trace's path and a
  service payload's ``deadline_seconds`` must not.
* **Memo traps.**  Fingerprints reuse the canonical fragment of a frozen
  spec leaf per object (see :func:`repro.sim.runner.job_fingerprint`).
  Equal twins of different types, an external trace file rewritten under
  the same spec object, a re-bound organization name and a long run of
  fresh objects check that the memo is keyed by identity, skips what can
  change, and lets its entries die with their objects.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import shutil
import sys
from typing import Dict, List, Tuple

import pytest

from repro.common.config import (
    CacheGeometry,
    CacheTiming,
    CoreConfig,
    CoreKind,
    L2Config,
    MemoryConfig,
    SystemConfig,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import KIB
from repro.cpu.timing import CoreTimingParameters
from repro.energy.technology import TechnologyParameters
from repro.resizing.organization import SizeConfig
from repro.resizing.selective_sets import SelectiveSets
from repro.service import codec
from repro.sim import runner
from repro.sim.runner import (
    L1SetupSpec,
    SimJob,
    StrategySpec,
    SweepRunner,
    TraceSpec,
    fingerprint_stats,
    job_fingerprint,
    organization_class,
    register_organization,
)
from repro.workloads.ingest import ExternalTraceSpec
from repro.workloads.trace import InstructionRecord, Trace

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "golden_fingerprint_payloads.json")
SAMPLE_TRACE = os.path.join(DATA_DIR, "sample.rtxt")

#: Stands in for the package source digest, which changes on every edit.
CONSTANT_SOURCE_DIGEST = "0" * 64


# ---------------------------------------------------------------------------
# Golden canonical payloads
# ---------------------------------------------------------------------------


def _static_setup(name: str, geometry: CacheGeometry, pin_geometry: bool) -> L1SetupSpec:
    ladder = organization_class(name)(geometry).ladder()
    return L1SetupSpec(
        organization=name,
        strategy=StrategySpec.static(ladder[len(ladder) // 2]),
        geometry=geometry if pin_geometry else None,
    )


def golden_jobs() -> Dict[str, SimJob]:
    """The representative job set the golden payloads pin, by case name."""
    system = SystemConfig()
    trace = TraceSpec("gcc", 2_000)
    jobs = {"baseline": SimJob(trace=trace)}
    for name in ("selective-ways", "selective-sets", "hybrid"):
        jobs[f"static-{name}-d"] = SimJob(
            trace=trace, d_setup=_static_setup(name, system.l1d, pin_geometry=True)
        )
    jobs["static-selective-ways-i"] = SimJob(
        trace=trace, i_setup=_static_setup("selective-ways", system.l1i, pin_geometry=False)
    )
    ways = organization_class("selective-ways")(system.l1d)
    jobs["dynamic-with-initial-config"] = SimJob(
        trace=TraceSpec("compress", 3_000, seed=11),
        d_setup=L1SetupSpec(
            organization="selective-ways",
            strategy=StrategySpec.dynamic(
                miss_bound=0.015,
                size_bound_bytes=8 * KIB,
                sense_interval_accesses=4096,
                initial_config=ways.ladder()[1],
                downsize_fraction=0.5,
                settle_intervals=3,
                reversal_backoff_intervals=4,
            ),
            geometry=system.l1d,
        ),
        interval_instructions=1_000,
    )
    jobs["in-order-core"] = SimJob(
        trace=trace,
        system=SystemConfig(core=CoreConfig(kind=CoreKind.IN_ORDER_BLOCKING, issue_width=2)),
    )
    jobs["non-default-l2-and-memory"] = SimJob(
        trace=trace,
        system=SystemConfig(
            l2=L2Config(geometry=CacheGeometry(256 * KIB, 8, block_bytes=64), hit_latency=10),
            memory=MemoryConfig(base_latency=100, cycles_per_chunk=4, chunk_bytes=16),
            l1_timing=CacheTiming(hit_latency=2),
            address_bits=40,
        ),
    )
    records = [
        InstructionRecord(0x400000 + 4 * index, 0x1000 + 64 * index if index % 3 else None,
                          index % 5 == 1, index % 7 == 0, index % 14 == 0)
        for index in range(64)
    ]
    jobs["inline-trace"] = SimJob(
        trace=Trace("golden-inline", records, memory_level_parallelism=1.25),
        interval_instructions=16,
    )
    jobs["external-trace"] = SimJob(
        trace=ExternalTraceSpec(SAMPLE_TRACE), interval_instructions=8
    )
    jobs["sampled"] = SimJob(
        trace=trace, interval_instructions=100, sample_every=4, sample_warmup=1
    )
    jobs["warmup"] = SimJob(trace=trace, interval_instructions=500, warmup_instructions=300)
    # Values whose canonical forms differ although they compare equal to a
    # twin (-0.0 == 0.0, 8 == 8.0, True == 1), non-finite floats and a
    # non-ASCII string: the serialiser must keep every one distinct.
    jobs["edge-values"] = SimJob(
        trace=ExternalTraceSpec(SAMPLE_TRACE, name="échantillon"),
        system=SystemConfig(memory=MemoryConfig(cycles_per_chunk=True)),
        technology=TechnologyParameters(
            tag_bit_energy=-0.0, memory_access_energy=8, l2_access_energy=float("inf")
        ),
        timing=CoreTimingParameters(ooo_dcache_exposure=1, writeback_overflow_penalty=0.1 + 0.2),
        engine="columnar-scalar",
    )
    return jobs


def hashed_payload(job: SimJob) -> "tuple[bytes, str]":
    """(the exact bytes ``job_fingerprint`` hashes, the fingerprint)."""
    hashed: List[bytes] = []
    real_sha256 = hashlib.sha256

    class RecordingHashlib:
        @staticmethod
        def sha256(data=b""):
            hashed.append(bytes(data))
            return real_sha256(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "_source_digest", lambda: CONSTANT_SOURCE_DIGEST)
        patch.setattr(runner, "hashlib", RecordingHashlib)
        fingerprint = job_fingerprint(job)
    assert len(hashed) == 1, "job_fingerprint must hash its payload in one call"
    return hashed[0], fingerprint


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_the_job_set(golden):
    assert golden["source_digest"] == CONSTANT_SOURCE_DIGEST
    assert sorted(golden["cases"]) == sorted(golden_jobs())


@pytest.mark.parametrize("case", sorted(golden_jobs()))
def test_payload_bytes_and_fingerprint_match_the_golden(golden, case):
    payload, fingerprint = hashed_payload(golden_jobs()[case])
    expected = golden["cases"][case]
    assert payload.decode("utf-8") == expected["payload"]
    assert fingerprint == expected["fingerprint"]


# ---------------------------------------------------------------------------
# Field-mutation soundness
# ---------------------------------------------------------------------------


def rich_job() -> SimJob:
    """A job whose every optional field is set, so every field can move."""
    system = SystemConfig()
    ways = organization_class("selective-ways")(system.l1d)
    sets = organization_class("selective-sets")(system.l1i)
    return SimJob(
        trace=TraceSpec("gcc", 2_000, seed=5),
        system=system,
        d_setup=L1SetupSpec(
            organization="selective-ways",
            strategy=StrategySpec.dynamic(
                miss_bound=0.01,
                size_bound_bytes=8 * KIB,
                sense_interval_accesses=4096,
                initial_config=ways.ladder()[1],
                downsize_fraction=0.5,
                settle_intervals=3,
                reversal_backoff_intervals=4,
            ),
            geometry=system.l1d,
        ),
        i_setup=L1SetupSpec(
            organization="selective-sets",
            strategy=StrategySpec.static(sets.ladder()[1]),
            geometry=system.l1i,
        ),
        interval_instructions=1_000,
        warmup_instructions=200,
        sample_every=2,
        sample_warmup=1,
    )


#: Fields whose value may not move the fingerprint, with the reason.
EXCLUDED = {("engine",): "engines are bit-identical by contract"}

#: Replacements for string fields whose values are names from a closed set.
NAMED = {
    "organization": ("selective-sets", "hybrid", "selective-ways"),
    "kind": ("none", "static", "dynamic"),
}


def field_paths(value, prefix: Tuple[str, ...] = ()):
    """Every field path of a spec tree, down to non-dataclass values."""
    for spec_field in dataclasses.fields(value):
        path = prefix + (spec_field.name,)
        item = getattr(value, spec_field.name)
        if dataclasses.is_dataclass(item):
            yield from field_paths(item, path)
        else:
            yield path, item


def candidates(name: str, value) -> list:
    """Different values to try for one field, most natural first."""
    if isinstance(value, CoreKind):
        return [kind for kind in CoreKind if kind is not value]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value * 2, value - 1]
    if isinstance(value, float):
        return [value / 2, value * 2 + 0.25, value + 1.0]
    if isinstance(value, str):
        return [other for other in NAMED.get(name, (value + "x",)) if other != value]
    raise AssertionError(f"no perturbation for {name}={value!r}")


def replaced(value, path: Tuple[str, ...], new):
    """``value`` with the field at ``path`` set to ``new`` (parents rebuilt)."""
    head = path[0]
    if len(path) > 1:
        new = replaced(getattr(value, head), path[1:], new)
    return dataclasses.replace(value, **{head: new})


def perturbations(job: SimJob):
    """(path, perturbed job) for every field and every valid perturbation."""
    for path, value in field_paths(job):
        if path in EXCLUDED:
            continue
        built = []
        for new in candidates(path[-1], value):
            if new == value:
                continue
            try:
                built.append(replaced(job, path, new))
            except ConfigurationError:
                continue
        assert built, f"no valid perturbation of {'.'.join(path)}"
        yield path, built


def test_the_field_walk_reaches_every_spec_leaf_type():
    reached = set()

    def walk(value):
        for spec_field in dataclasses.fields(value):
            item = getattr(value, spec_field.name)
            if dataclasses.is_dataclass(item):
                reached.add(type(item))
                walk(item)

    walk(rich_job())
    assert reached >= {
        TraceSpec, SystemConfig, CoreConfig, CacheGeometry, CacheTiming, L2Config,
        MemoryConfig, TechnologyParameters, CoreTimingParameters, L1SetupSpec,
        StrategySpec, SizeConfig,
    }


def test_perturbing_any_field_changes_the_fingerprint():
    base = rich_job()
    reference = job_fingerprint(base)
    assert job_fingerprint(base) == reference  # warm memo, same answer
    moved = 0
    for path, jobs in perturbations(base):
        for job in jobs:
            assert job_fingerprint(job) != reference, f"{'.'.join(path)} is not fingerprinted"
            moved += 1
        assert job_fingerprint(base) == reference
    assert moved >= len(list(field_paths(base))) - len(EXCLUDED)


@pytest.mark.parametrize(
    "path,new",
    [
        (("trace", "seed"), None),
        (("d_setup", "geometry"), None),
        (("d_setup", "strategy", "config"), None),
        (("i_setup", "strategy"), None),
        (("i_setup", "organization"), None),
    ],
)
def test_clearing_an_optional_field_changes_the_fingerprint(path, new):
    base = rich_job()
    assert job_fingerprint(replaced(base, path, new)) != job_fingerprint(base)


def test_engine_is_not_fingerprinted():
    base = rich_job()
    for engine in ("columnar", "columnar-scalar", "reference"):
        assert job_fingerprint(dataclasses.replace(base, engine=engine)) == job_fingerprint(base)


def test_external_trace_is_fingerprinted_by_content_and_name_not_path(tmp_path):
    moved = tmp_path / "moved.rtxt"
    shutil.copyfile(SAMPLE_TRACE, moved)
    base = SimJob(trace=ExternalTraceSpec(SAMPLE_TRACE))
    reference = job_fingerprint(base)
    assert job_fingerprint(SimJob(trace=ExternalTraceSpec(str(moved)))) == reference
    assert job_fingerprint(SimJob(trace=ExternalTraceSpec(SAMPLE_TRACE, name="x"))) != reference
    moved.write_bytes(moved.read_bytes() + b"0x400010 I\n")
    assert job_fingerprint(SimJob(trace=ExternalTraceSpec(str(moved)))) != reference


def test_deadline_seconds_does_not_change_the_job_handle():
    payload = {
        "trace": {"application": "gcc", "n_instructions": 1_500, "seed": 2},
        "d_setup": {"organization": "selective-ways",
                    "strategy": {"kind": "static", "ways": 1, "sets": 512}},
    }
    handle = codec.job_handle(codec.job_from_payload(payload))
    for deadline in (0.5, 5, 3600.0):
        job = codec.job_from_payload({**payload, "deadline_seconds": deadline})
        assert codec.job_handle(job) == handle
    job = codec.job_from_payload({**payload, "interval_instructions": 1_499})
    assert codec.job_handle(job) != handle


# ---------------------------------------------------------------------------
# Memo traps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "first,twin",
    [
        (SystemConfig(l1_timing=CacheTiming(1)), SystemConfig(l1_timing=CacheTiming(1.0))),
        (SystemConfig(memory=MemoryConfig(cycles_per_chunk=1)),
         SystemConfig(memory=MemoryConfig(cycles_per_chunk=True))),
        (TechnologyParameters(tag_bit_energy=0.0), TechnologyParameters(tag_bit_energy=-0.0)),
        (CoreTimingParameters(ooo_dcache_exposure=1.0),
         CoreTimingParameters(ooo_dcache_exposure=1)),
        (TraceSpec("gcc", 2_000), TraceSpec("gcc", 2_000.0)),
        (SizeConfig(1024, 1, 32), SizeConfig(1024, True, 32)),
    ],
    ids=["int-float", "bool-int", "zero-negative-zero", "float-int", "trace-int-float",
         "size-int-bool"],
)
def test_an_equal_twin_of_another_type_gets_its_own_fingerprint(first, twin):
    assert first == twin and hash(first) == hash(twin)  # the trap: value-equal

    def job_of(leaf):
        if isinstance(leaf, SystemConfig):
            return SimJob(trace=TraceSpec("gcc", 2_000), system=leaf)
        if isinstance(leaf, TechnologyParameters):
            return SimJob(trace=TraceSpec("gcc", 2_000), technology=leaf)
        if isinstance(leaf, CoreTimingParameters):
            return SimJob(trace=TraceSpec("gcc", 2_000), timing=leaf)
        if isinstance(leaf, TraceSpec):
            return SimJob(trace=leaf)
        return SimJob(
            trace=TraceSpec("gcc", 2_000),
            d_setup=L1SetupSpec("selective-ways", StrategySpec.static(leaf)),
        )

    warm = job_fingerprint(job_of(first))
    assert job_fingerprint(job_of(twin)) != warm
    assert job_fingerprint(job_of(first)) == warm


def test_rewriting_an_external_trace_changes_the_same_objects_fingerprint(tmp_path):
    path = tmp_path / "trace.rtxt"
    shutil.copyfile(SAMPLE_TRACE, path)
    original = path.read_bytes()
    job = SimJob(trace=ExternalTraceSpec(str(path)))
    first = job_fingerprint(job)
    assert job_fingerprint(job) == first
    path.write_bytes(original + b"0x400010 I\n")
    edited = job_fingerprint(job)
    assert edited != first
    # Same length, same mtime: only the inode tells the replaced file apart.
    stat = os.stat(path)
    replacement = tmp_path / "replacement.rtxt"
    replacement.write_bytes(original.replace(b"0x400000", b"0x400004", 1) + b"0x400010 I\n")
    os.utime(replacement, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    os.replace(replacement, path)
    assert job_fingerprint(job) not in (first, edited)
    path.write_bytes(original)
    assert job_fingerprint(job) == first  # content-addressed


class RebindSets(SelectiveSets):
    """Stands in for a second implementation behind a registered name."""

    name = "fingerprint-rebind-sets"


@pytest.fixture
def isolated_registry(monkeypatch):
    registry = dict(runner._ORGANIZATION_REGISTRY)
    monkeypatch.setattr(runner, "_ORGANIZATION_REGISTRY", registry)
    return registry


def test_a_warm_memo_keeps_the_organization_class_binding(isolated_registry):
    system = SystemConfig()
    config = organization_class("selective-sets")(system.l1d).ladder()[1]
    setup = L1SetupSpec("selective-sets", StrategySpec.static(config), geometry=system.l1d)
    job = SimJob(trace=TraceSpec("gcc", 2_000), system=system, d_setup=setup)
    warm = job_fingerprint(job)
    assert job_fingerprint(job) == warm
    # Swapping the class behind the name must move the same job object.
    isolated_registry["selective-sets"] = RebindSets
    rebound = job_fingerprint(job)
    assert rebound != warm
    isolated_registry["selective-sets"] = SelectiveSets
    assert job_fingerprint(job) == warm
    # The registration guards still hold with the memo warm.
    with pytest.raises(SimulationError, match="already registered"):
        register_organization(type("ImposterSets", (SelectiveSets,), {"name": "selective-sets"}))
    register_organization(SelectiveSets)
    assert job_fingerprint(job) == warm
    custom = SimJob(trace=TraceSpec("gcc", 2_000), system=system,
                    d_setup=L1SetupSpec(RebindSets.name))
    with pytest.raises(SimulationError, match="unknown resizing organization"):
        job_fingerprint(custom)
    register_organization(RebindSets)
    registered = job_fingerprint(custom)
    assert registered != job_fingerprint(SimJob(
        trace=TraceSpec("gcc", 2_000), system=system, d_setup=L1SetupSpec("selective-sets")))
    assert job_fingerprint(custom) == registered


def test_fresh_objects_do_not_accumulate_in_the_memo():
    gc.collect()
    start = len(runner._FRAGMENTS)
    trace = TraceSpec("gcc", 2_000)
    jobs = [SimJob(trace=trace, system=SystemConfig(address_bits=16 + index % 48))
            for index in range(10_000)]
    fingerprints = {job_fingerprint(job) for job in jobs}
    assert len(fingerprints) == 48
    assert len(runner._FRAGMENTS) >= start + 10_000
    del jobs, trace
    gc.collect()
    assert len(runner._FRAGMENTS) == start


def test_leaf_counters_count_each_fingerprints_lookups():
    job = rich_job()
    before = fingerprint_stats()
    job_fingerprint(job)
    cold = fingerprint_stats()
    job_fingerprint(job)
    warm = fingerprint_stats()
    # Cold: every distinct leaf object misses once (nested leaves too).
    assert cold["fingerprint_leaf_misses"] > before["fingerprint_leaf_misses"]
    # Warm: each top-level leaf lookup hits; nested leaves are not visited.
    assert warm["fingerprint_leaf_misses"] == cold["fingerprint_leaf_misses"]
    leaves = (job.trace, job.system, job.technology, job.timing, job.d_setup.geometry,
              job.d_setup.strategy.config, job.i_setup.geometry, job.i_setup.strategy.config)
    assert warm["fingerprint_leaf_hits"] - cold["fingerprint_leaf_hits"] == len(leaves)


def test_runner_merges_its_fingerprint_counters_into_worker_stats():
    from repro.__main__ import transport_stats_line

    job = rich_job()
    with SweepRunner(jobs=1) as sweep:
        fingerprint = sweep._try_fingerprint(job)
        cold = dict(sweep.worker_stats)
        assert cold["fingerprint_leaf_misses"] > 0
        job_fingerprint(job)  # not the runner's call: not in its stats
        assert sweep._try_fingerprint(job) == fingerprint
        stats = sweep.worker_stats
        assert stats["fingerprint_leaf_misses"] == cold["fingerprint_leaf_misses"]
        assert stats["fingerprint_leaf_hits"] - cold["fingerprint_leaf_hits"] == 8
        line = transport_stats_line(sweep)
        assert f"{stats['fingerprint_leaf_hits']} leaf memo hit(s)" in line
        assert f"{stats['fingerprint_leaf_misses']} leaf memo miss(es)" in line


def _regenerate() -> None:
    cases = {}
    for case, job in sorted(golden_jobs().items()):
        payload, fingerprint = hashed_payload(job)
        cases[case] = {"payload": payload.decode("utf-8"), "fingerprint": fingerprint}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"source_digest": CONSTANT_SOURCE_DIGEST, "cases": cases}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_fingerprint.py --regenerate")
    _regenerate()
