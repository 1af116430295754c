"""Tests for the on-disk job cache and job fingerprinting."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.common.config import CacheGeometry, CoreConfig, CoreKind, SystemConfig
from repro.sim.jobcache import CACHE_FORMAT_VERSION, JobCache
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    L1SetupSpec,
    SimJob,
    StrategySpec,
    TraceSpec,
    execute_job,
    job_fingerprint,
)


def small_job(**overrides) -> SimJob:
    defaults = dict(
        trace=TraceSpec("gcc", 2_000),
        system=SystemConfig(),
        interval_instructions=500,
        warmup_instructions=200,
    )
    defaults.update(overrides)
    return SimJob(**defaults)


class TestFingerprint:
    def test_identical_specs_share_a_fingerprint(self):
        assert job_fingerprint(small_job()) == job_fingerprint(small_job())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trace": TraceSpec("gcc", 2_001)},
            {"trace": TraceSpec("compress", 2_000)},
            {"trace": TraceSpec("gcc", 2_000, seed=7)},
            {"interval_instructions": 501},
            {"warmup_instructions": 0},
        ],
    )
    def test_perturbed_specs_change_the_fingerprint(self, overrides):
        assert job_fingerprint(small_job(**overrides)) != job_fingerprint(small_job())

    def test_system_config_change_invalidates(self):
        base = small_job()
        bigger_l1 = SystemConfig(l1d=CacheGeometry(64 * 1024, 2))
        slower_core = SystemConfig(core=CoreConfig(kind=CoreKind.IN_ORDER_BLOCKING))
        assert job_fingerprint(small_job(system=bigger_l1)) != job_fingerprint(base)
        assert job_fingerprint(small_job(system=slower_core)) != job_fingerprint(base)

    def test_organization_and_strategy_changes_invalidate(self):
        organization = __import__("repro.resizing.selective_sets", fromlist=["SelectiveSets"])
        org = organization.SelectiveSets(SystemConfig().l1d)
        config_small = org.ladder()[-1]
        config_full = org.ladder()[0]

        def with_setup(name, config):
            return small_job(
                d_setup=L1SetupSpec(organization=name, strategy=StrategySpec.static(config))
            )

        fixed = job_fingerprint(small_job())
        sets_small = job_fingerprint(with_setup("selective-sets", config_small))
        sets_full = job_fingerprint(with_setup("selective-sets", config_full))
        ways_small = job_fingerprint(with_setup("selective-ways", config_small))
        assert len({fixed, sets_small, sets_full, ways_small}) == 4

    def test_inline_trace_fingerprinted_by_content(self):
        trace_a = TraceSpec("gcc", 1_500).materialize()
        trace_b = TraceSpec("gcc", 1_500).materialize()
        trace_c = TraceSpec("compress", 1_500).materialize()
        assert job_fingerprint(small_job(trace=trace_a)) == job_fingerprint(
            small_job(trace=trace_b)
        )
        assert job_fingerprint(small_job(trace=trace_a)) != job_fingerprint(
            small_job(trace=trace_c)
        )


class TestJobCache:
    def test_miss_then_hit_roundtrips_exactly(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        assert cache.get(fingerprint) is None

        result = execute_job(job)
        cache.put(fingerprint, result, description=job.describe())
        restored = cache.get(fingerprint)
        assert restored is not None
        # Bit-exact round-trip: every field, including floats.
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)

    def test_perturbed_job_misses(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        cache.put(job.fingerprint(), execute_job(job))
        perturbed = small_job(warmup_instructions=0)
        assert cache.get(perturbed.fingerprint()) is None

    def test_corrupt_entry_is_a_self_healing_miss(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        result = execute_job(job)
        cache.put(fingerprint, result)
        replace_record(cache, fingerprint, b"{ truncated")
        assert cache.get(fingerprint) is None
        # Self-heal: counted, dropped, and the re-put supersedes the record.
        assert cache.corrupt_entries == 1
        cache.put(fingerprint, result)
        assert cache.get(fingerprint) is not None
        assert cache.corrupt_entries == 1  # healthy reads do not count
        assert_served_clean(cache.directory, fingerprint, result)

    def test_checksum_mismatch_is_a_self_healing_miss(self, tmp_path):
        # A syntactically valid record whose content was tampered with (bit
        # rot, partial overwrite) must fail the checksum, not be served.
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        result = execute_job(job)
        cache.put(fingerprint, result)
        payload = record_payload(cache, fingerprint)
        payload["job"] = {"tampered": True}
        replace_record(cache, fingerprint, compact(payload))
        assert cache.get(fingerprint) is None
        assert cache.corrupt_entries == 1
        cache.put(fingerprint, result)
        assert_served_clean(cache.directory, fingerprint, result)

    def test_injected_cache_corrupt_fault_lands_torn_then_heals(self, tmp_path):
        from repro.sim import faults

        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        result = execute_job(job)
        faults.install_plan("cache_corrupt:shard=1")
        try:
            cache.put(fingerprint, result)  # fault: lands torn on disk
        finally:
            faults.reset()
        assert header(fingerprint) in log_path(cache, fingerprint).read_bytes()
        assert cache.get(fingerprint) is None  # self-heals
        assert cache.corrupt_entries == 1
        cache.put(fingerprint, result)
        restored = cache.get(fingerprint)
        assert restored is not None
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)

    def test_deleted_cache_directory_tolerated(self, tmp_path):
        # Maintenance paths must self-heal like get/put when the directory
        # vanishes underneath a live handle.
        import shutil

        cache = JobCache(tmp_path / "cache")
        job = small_job()
        cache.put(job.fingerprint(), execute_job(job))
        shutil.rmtree(tmp_path / "cache")
        assert len(cache) == 0
        assert cache.clear() == 0
        assert cache.get(job.fingerprint()) is None
        cache.put(job.fingerprint(), execute_job(job))  # put re-creates dirs
        assert len(cache) == 1

    def test_missing_energy_block_is_a_miss(self, tmp_path):
        # A structurally valid record missing result fields must miss, not
        # be served as a zero-energy result.  The checksum is recomputed so
        # the result decoder, not the checksum, has to catch it.
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        cache.put(fingerprint, execute_job(job))
        payload = record_payload(cache, fingerprint)
        del payload["result"]["energy"]["core"]
        replace_record(cache, fingerprint, checksummed(payload))
        assert cache.get(fingerprint) is None
        assert cache.corrupt_entries == 1

    def test_foreign_version_is_a_miss(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        cache.put(fingerprint, execute_job(job))
        payload = record_payload(cache, fingerprint)
        payload["version"] = CACHE_FORMAT_VERSION + 1
        replace_record(cache, fingerprint, checksummed(payload))
        assert cache.get(fingerprint) is None
        assert cache.corrupt_entries == 1

    def test_len_and_clear(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        jobs = [small_job(), small_job(warmup_instructions=0)]
        for job in jobs:
            cache.put(job.fingerprint(), execute_job(job))
        assert len(cache) == 2
        assert fingerprint_in_cache(cache, jobs[0])
        # An orphaned temp file of the one-file-per-entry layout must also
        # be swept.
        shard = cache.directory / jobs[0].fingerprint()[:2]
        shard.mkdir()
        orphan = shard / "deadbeef.json.tmp.12345"
        orphan.write_text("{}", encoding="utf-8")
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not orphan.exists()
        assert not fingerprint_in_cache(cache, jobs[0])


@pytest.fixture(scope="module")
def results():
    """Two distinct real results (records of about 1 KB each)."""
    return execute_job(small_job()), execute_job(small_job(warmup_instructions=0))


def synthetic(digit: str, name: str) -> str:
    """A fingerprint that lands in log ``digit``."""
    return digit + hashlib.sha256(name.encode("utf-8")).hexdigest()[1:]


def append_writer(directory, writer, count, result_dict, start=None):
    """Append ``count`` shared and ``count`` own records, after ``start``."""
    cache = JobCache(directory)
    result = SimulationResult.from_dict(result_dict)
    if start is not None:
        start.wait()
    for index in range(count):
        for name in (f"shared-{index}", f"own-{writer}-{index}"):
            fingerprint = synthetic(f"{index % 16:x}", name)
            cache.put(fingerprint, result, description={"name": name})


class TestJobLog:
    """Cases a naive append-only log gets wrong."""

    def test_torn_tail_never_swallows_the_next_record(self, tmp_path, results):
        first, second = results
        cache = JobCache(tmp_path / "cache")
        kept, torn, after = (synthetic("a", name) for name in ("kept", "torn", "after"))
        cache.put(kept, first)
        # A writer crashed mid-append: half a record, no closing newline.
        cache.put(torn, second)
        path = log_path(cache, torn)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - len(data.split(header(torn))[1]) // 2])

        reader = JobCache(cache.directory)
        assert reader.get(torn) is None  # unterminated: not a record yet
        assert reader.corrupt_entries == 0
        cache.put(after, second)
        restored = reader.get(after)
        assert restored is not None
        assert dataclasses.asdict(restored) == dataclasses.asdict(second)
        assert dataclasses.asdict(reader.get(kept)) == dataclasses.asdict(first)
        # The next append terminated the torn record: now a counted miss,
        # healed by re-putting it.
        assert reader.get(torn) is None
        assert reader.corrupt_entries == 1
        cache.put(torn, second)
        assert dataclasses.asdict(reader.get(torn)) == dataclasses.asdict(second)
        assert_served_clean(cache.directory, torn, second)

    @pytest.mark.parametrize(
        "start_method",
        [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()],
    )
    def test_concurrent_appends_stay_whole(self, tmp_path, results, start_method):
        result = results[0]
        directory = str(tmp_path / "cache")
        count = 400
        context = multiprocessing.get_context(start_method)
        start = context.Barrier(2)
        writers = [
            context.Process(
                target=append_writer, args=(directory, writer, count, result.to_dict(), start)
            )
            for writer in range(2)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=120)
            assert process.exitcode == 0

        # Every record is byte-identical to one written by a lone process.
        reference = str(tmp_path / "reference")
        for writer in range(2):
            append_writer(reference, writer, count, result.to_dict())
        assert record_lines(directory) == record_lines(reference)

        cache = JobCache(directory)
        names = [f"shared-{index}" for index in range(count)] + [
            f"own-{writer}-{index}" for writer in range(2) for index in range(count)
        ]
        assert len(cache) == len(names)
        expected = dataclasses.asdict(result)
        for name in names:
            index = int(name.rsplit("-", 1)[1])
            restored = cache.get(synthetic(f"{index % 16:x}", name))
            assert restored is not None and dataclasses.asdict(restored) == expected
        assert cache.corrupt_entries == 0

    def test_index_is_built_lazily_per_log(self, tmp_path, results, monkeypatch):
        fingerprint = synthetic("1", "lazy")
        JobCache(tmp_path / "cache").put(fingerprint, results[0])
        opened = []
        real_open = os.open
        monkeypatch.setattr(
            os, "open", lambda path, *args: opened.append(path) or real_open(path, *args)
        )
        cache = JobCache(tmp_path / "cache")
        assert opened == []  # construction reads nothing
        assert cache.get(fingerprint) is not None
        assert opened and all(path.endswith("1.log") for path in opened)

    def test_second_cache_sees_later_appends(self, tmp_path, results):
        first, second = results
        writer = JobCache(tmp_path / "cache")
        reader = JobCache(tmp_path / "cache")
        early, late = synthetic("3", "early"), synthetic("3", "late")
        writer.put(early, first)
        assert dataclasses.asdict(reader.get(early)) == dataclasses.asdict(first)
        assert len(reader) == 1
        writer.put(late, second)  # after the reader indexed the log
        assert dataclasses.asdict(reader.get(late)) == dataclasses.asdict(second)
        assert len(reader) == 2
        # A fingerprint appended twice: the later record wins.
        writer.put(early, second)
        reader = JobCache(tmp_path / "cache")
        assert dataclasses.asdict(reader.get(early)) == dataclasses.asdict(second)

    def test_truncated_log_is_reindexed_not_served(self, tmp_path, results):
        first, second = results
        writer = JobCache(tmp_path / "cache")
        gone, other, later = (synthetic("5", name) for name in ("gone", "other", "later"))
        writer.put(gone, first)
        reader = JobCache(tmp_path / "cache")
        assert reader.get(gone) is not None  # indexed at the log's start
        log_path(writer, gone).write_bytes(b"")  # truncated under the reader
        # Regrown past the reader's index, with a record boundary that does
        # not fall where the old one did.
        writer.put(other, second, description={"pad": "x" * 100})
        writer.put(later, second)
        assert dataclasses.asdict(reader.get(later)) == dataclasses.asdict(second)
        assert dataclasses.asdict(reader.get(other)) == dataclasses.asdict(second)
        assert reader.get(gone) is None
        assert reader.corrupt_entries == 0

    def test_replaced_log_is_reindexed_not_served(self, tmp_path, results):
        first, second = results
        live = JobCache(tmp_path / "cache")
        elsewhere = JobCache(tmp_path / "elsewhere")
        gone, before, after = (synthetic("7", name) for name in ("gone", "before", "after"))
        live.put(gone, first)
        # Same record length as ``gone``: the replacement has a record
        # boundary exactly where the live index stopped.
        elsewhere.put(before, first)
        elsewhere.put(after, second)
        assert live.get(gone) is not None
        os.replace(log_path(elsewhere, after), log_path(live, gone))
        assert dataclasses.asdict(live.get(after)) == dataclasses.asdict(second)
        assert dataclasses.asdict(live.get(before)) == dataclasses.asdict(first)
        assert live.get(gone) is None
        assert live.corrupt_entries == 0

    def test_log_rewritten_in_place_is_reindexed_not_served(self, tmp_path, results):
        first, _ = results
        live = JobCache(tmp_path / "cache")
        elsewhere = JobCache(tmp_path / "elsewhere")
        gone, swapped = synthetic("9", "gone"), synthetic("9", "swap")
        live.put(gone, first)
        elsewhere.put(swapped, first)  # same record length as ``gone``
        assert live.get(gone) is not None
        # Same inode, same size: only the record header shows the change.
        log_path(live, gone).write_bytes(log_path(elsewhere, swapped).read_bytes())
        assert live.get(gone) is None
        assert live.corrupt_entries == 0
        assert dataclasses.asdict(live.get(swapped)) == dataclasses.asdict(first)

    def test_previous_layout_entries_are_misses_and_cleared(self, tmp_path, results):
        first, _ = results
        cache = JobCache(tmp_path / "cache")
        fingerprint = synthetic("c", "v2")
        entry = cache.directory / fingerprint[:2] / f"{fingerprint}.json"
        entry.parent.mkdir()
        payload = {
            "version": 2, "fingerprint": fingerprint, "job": {}, "result": first.to_dict(),
        }
        payload["checksum"] = hashlib.sha256(compact(payload)).hexdigest()
        entry.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        assert cache.get(fingerprint) is None
        assert cache.corrupt_entries == 0
        assert len(cache) == 0
        assert cache.clear() == 1
        assert not entry.exists()


def fingerprint_in_cache(cache: JobCache, job: SimJob) -> bool:
    return job.fingerprint() in cache


def log_path(cache: JobCache, fingerprint: str):
    return cache.directory / "jobs" / f"{fingerprint[0]}.log"


def header(fingerprint: str) -> bytes:
    return b"\n" + fingerprint.encode("ascii") + b" "


def compact(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def checksummed(payload: dict) -> bytes:
    """``payload`` as a record payload with a correct checksum."""
    payload = {key: value for key, value in payload.items() if key != "checksum"}
    payload["checksum"] = hashlib.sha256(compact(payload)).hexdigest()
    return compact(payload)


def record_span(cache: JobCache, fingerprint: str):
    """(log bytes, start, end) of the payload of ``fingerprint``'s last record."""
    data = log_path(cache, fingerprint).read_bytes()
    start = data.rindex(header(fingerprint)) + len(header(fingerprint))
    return data, start, data.index(b"\n", start)


def record_payload(cache: JobCache, fingerprint: str) -> dict:
    data, start, end = record_span(cache, fingerprint)
    return json.loads(data[start:end])


def replace_record(cache: JobCache, fingerprint: str, payload: bytes) -> None:
    """Overwrite the payload of ``fingerprint``'s last record in its log."""
    data, start, end = record_span(cache, fingerprint)
    log_path(cache, fingerprint).write_bytes(data[:start] + payload + data[end:])


def record_lines(directory) -> list:
    """Every non-empty line of every log under ``directory``, sorted."""
    logs = Path(directory) / "jobs"
    return sorted(line for log in logs.iterdir() for line in log.read_bytes().split(b"\n") if line)


def assert_served_clean(directory, fingerprint: str, result) -> None:
    """A fresh cache on ``directory`` serves ``result`` without a corrupt read."""
    fresh = JobCache(directory)
    restored = fresh.get(fingerprint)
    assert restored is not None
    assert dataclasses.asdict(restored) == dataclasses.asdict(result)
    assert fresh.corrupt_entries == 0
