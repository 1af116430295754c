"""On-disk memoisation of completed simulation jobs.

A :class:`JobCache` maps a job *fingerprint* (a content hash over everything
that influences a simulation's outcome — trace spec, system configuration,
L1 setups, interval/warmup parameters, technology and timing constants; see
:func:`repro.sim.runner.job_fingerprint`) to the :class:`SimulationResult`
the job produced, so re-running a sweep only simulates jobs whose spec
actually changed.

Layout: 16 append-only logs, ``<cache-dir>/jobs/0.log`` .. ``f.log``,
chosen by the fingerprint's first hex digit.  Each job is one record,
``\\n<fingerprint> <payload>\\n``, whose payload is the compact sorted-key
JSON of the format version, the fingerprint, a job description (for
debugging) and the result, led by a SHA-256 ``checksum`` over the rest.
:meth:`JobCache.put` appends a record with a single ``os.write`` on an
``O_APPEND`` descriptor.  On a local Linux filesystem one such write is not
interleaved with another writer's, so concurrent sweeps sharing a directory
land whole records.  The leading newline ends any record a crashed writer
left torn, so a torn record never swallows the next one.

Reads use a per-instance index, built lazily: construction reads nothing,
a miss reads only the bytes appended to that log since the last look, and
of two records for one fingerprint the later wins.  Every read re-checks
the header, the payload's fingerprint and version, and the checksum.  A
torn, tampered or foreign-version record is a *self-healing* miss: counted
in :attr:`JobCache.corrupt_entries` and dropped from the index, so the
re-simulated result's append supersedes it.  The checksum thus turns any
violation of the single-write assumption into such a miss, never a crash.
A log that shrank, was replaced, or no longer matches the index is
re-indexed instead: never served, not counted.  Entry files of the earlier
one-file-per-job layout are never read; :meth:`JobCache.clear` removes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Optional, Union

from repro.sim import faults
from repro.sim.results import SimulationResult

#: Bump when the fingerprint inputs or the result schema change; records
#: written by other versions are self-healing misses.
#: v2: entries carry a SHA-256 ``checksum`` field; corrupt entries self-heal.
#: v3: records are appended to 16 shard logs instead of one file per job.
CACHE_FORMAT_VERSION = 3

#: A record's payload opens with its checksum: sorted keys put it first.
_CHECKSUM_OPEN = b'{"checksum":"'
_CHECKSUM_END = len(_CHECKSUM_OPEN) + 64  # hex digits
_BODY_START = _CHECKSUM_END + 2  # past the closing '",'


def _decode(fingerprint: str, payload: bytes) -> Optional[SimulationResult]:
    """The result in a record's payload, or None if the payload fails a check."""
    body = b"{" + payload[_BODY_START:]
    if (
        not payload.startswith(_CHECKSUM_OPEN)
        or payload[_CHECKSUM_END:_BODY_START] != b'",'
        or hashlib.sha256(body).hexdigest().encode("ascii")
        != payload[len(_CHECKSUM_OPEN):_CHECKSUM_END]
    ):
        return None
    try:
        fields = json.loads(body)
        if fields["version"] != CACHE_FORMAT_VERSION or fields["fingerprint"] != fingerprint:
            return None
        return SimulationResult.from_dict(fields["result"])
    except (ValueError, KeyError, TypeError):
        return None


class _Log:
    """One append-only log and what this cache object has indexed of it."""

    __slots__ = ("path", "records", "scanned", "inode")

    def __init__(self, path: str) -> None:
        self.path = path
        self.reset()

    def reset(self, inode: Optional[int] = None) -> None:
        """Forget the index; the next scan starts from the first byte."""
        self.records = {}  # fingerprint bytes -> (offset, length) of its latest record
        self.scanned = 0  # always just past a record's closing newline
        self.inode = inode

    def scan(self) -> None:
        """Index the records completed (newline-terminated) since the last look.

        An unterminated tail — a write in progress, or a crashed writer's
        torn record — waits for a later scan.  A log replaced, truncated or
        rewritten under the index is indexed from its first byte.
        """
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            self.reset()  # no log (yet, or any more)
            return
        try:
            stat = os.fstat(fd)
            if stat.st_ino != self.inode or stat.st_size < self.scanned:
                self.reset(stat.st_ino)
            elif stat.st_size == self.scanned:
                return
            elif self.scanned and os.pread(fd, 1, self.scanned - 1) != b"\n":
                self.reset(stat.st_ino)
            start = self.scanned
            data = os.pread(fd, stat.st_size - start, start)
        except OSError:
            return
        finally:
            os.close(fd)
        end = data.rfind(b"\n") + 1
        offset = start
        for line in data[:end].split(b"\n"):
            space = line.find(b" ")
            if space > 0:
                self.records[line[:space]] = (offset, len(line))
            offset += len(line) + 1
        self.scanned = start + end

    def read(self, offset: int, length: int) -> Optional[bytes]:
        """The ``length`` bytes at ``offset``, or None if the log lost them."""
        try:
            fd = os.open(self.path, os.O_RDONLY)
            try:
                line = os.pread(fd, length, offset)
            finally:
                os.close(fd)
        except OSError:
            return None
        return line if len(line) == length else None

    def append(self, record: bytes) -> None:
        """Append ``record`` with one ``write`` (re-creating the directory)."""
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o666)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            fd = os.open(self.path, flags, 0o666)
        try:
            os.write(fd, record)
        finally:
            os.close(fd)


class JobCache:
    """A directory of completed simulation jobs keyed by fingerprint."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        log_dir = self.directory / "jobs"
        log_dir.mkdir(parents=True, exist_ok=True)
        self._logs = tuple(_Log(str(log_dir / f"{digit:x}.log")) for digit in range(16))
        # Service handler threads read beside the runner; appends need no lock.
        self._lock = threading.Lock()
        #: Corrupt records met by this cache object's reads (torn writes, bit
        #: rot, checksum mismatches, foreign versions); each was also a miss.
        self.corrupt_entries = 0

    def _log(self, fingerprint: str) -> _Log:
        return self._logs[int(fingerprint[0], 16)]

    # ----------------------------------------------------------------- access
    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        """Return the cached result for ``fingerprint``, or None on a miss
        (a corrupt record is a counted, self-healing miss)."""
        key = fingerprint.encode("utf-8")
        header = key + b" "
        log = self._log(fingerprint)
        with self._lock:
            entry = log.records.get(key)
            if entry is None:
                log.scan()
                entry = log.records.get(key)
                if entry is None:
                    return None
            line = log.read(*entry)
            if line is None or not line.startswith(header):
                log.reset()  # the log moved under the index: re-index it
                return None
            result = _decode(fingerprint, line[len(header):])
            if result is None:
                self.corrupt_entries += 1
                del log.records[key]
            return result

    def put(
        self, fingerprint: str, result: SimulationResult, description: Optional[dict] = None
    ) -> None:
        """Append ``result`` under ``fingerprint`` as one checksummed record.

        The cache is only a memo: a write failure (disk full, permissions)
        is swallowed so the simulation result in hand still reaches the
        caller — the job simply is not memoised.
        """
        fields = {
            "fingerprint": fingerprint,
            "job": description if description is not None else {},
            "result": result.to_dict(),
            "version": CACHE_FORMAT_VERSION,
        }
        body = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
        checksum = hashlib.sha256(body).hexdigest().encode("ascii")
        record = b"".join((
            b"\n", fingerprint.encode("utf-8"), b" ",
            _CHECKSUM_OPEN, checksum, b'",', body[1:], b"\n",
        ))
        if faults.fire("cache_corrupt") is not None:
            # Injected torn write: land the first half of the record,
            # terminated as the next append would terminate a crashed
            # writer's record.  The next read must self-heal it into a miss.
            record = record[: len(record) // 2] + b"\n"
        try:
            self._log(fingerprint).append(record)
        except OSError:
            pass

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    # ------------------------------------------------------------ maintenance
    def __len__(self) -> int:
        """Number of distinct fingerprints with a record on disk."""
        with self._lock:
            for log in self._logs:
                log.scan()
            return sum(len(log.records) for log in self._logs)

    def clear(self) -> int:
        """Delete every log and every entry file of the earlier layout (with
        its orphaned temp files); returns how many entries were removed."""
        removed = len(self)
        with self._lock:
            for log in self._logs:
                try:
                    os.unlink(log.path)
                except OSError:
                    pass
                log.reset()
            for path in self.directory.glob("[0-9a-f][0-9a-f]/*.json*"):
                try:
                    path.unlink()
                except OSError:
                    continue
                if path.name.endswith(".json"):
                    removed += 1
            return removed

    def __repr__(self) -> str:
        return f"JobCache({str(self.directory)!r})"
