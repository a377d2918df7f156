"""Structured JSONL run-event log: one greppable timeline per run.

Spans answer "how long", metrics answer "how much"; the event log
answers "what happened, in order".  When armed (``REPRO_EVENTLOG=path``
or an explicit :meth:`EventLog.open`), the pipeline appends one JSON
object per line for every notable occurrence:

==================  =====================================================
record type         emitted by
==================  =====================================================
``run_start``       :func:`install_env_eventlog` when a process arms
``gc_pause``        the replay driver, once per simulated collection
``shard_claimed``   :mod:`repro.experiments.shard_journal` on a claim win
``shard_done``      the shard journal after a shard's result persists
``cache_hit``       :mod:`repro.experiments.trace_cache` on a served run
``cache_miss``      the trace cache before (re)generating a run
``stage1_hit``      :mod:`repro.experiments.stage1_cache` on a served
                    stage-1 product
``stage1_miss``     the stage-1 cache before recomputing a product
``shm_publish``     :mod:`repro.experiments.shm_store` when a trace set
                    lands in shared memory
``pool_start``      :mod:`repro.experiments.workers` noting the chosen
                    sweep start method (once per process)
``pool_reuse``      the warm pool serving a repeat sweep invocation
``coverage_check``  ``scripts/check_fast_path_coverage.py`` verdicts
``run_end``         an ``atexit`` hook per armed process
==================  =====================================================

Every record carries ``event`` (the type), ``ts`` (Unix seconds) and
``pid``; the per-type payload fields are documented in
``docs/OBSERVABILITY.md``.  The file **rotates by size**: once an
append would push it past ``max_bytes`` (default
:data:`~repro.config.DEFAULT_EVENTLOG_MAX_BYTES`, override with
``REPRO_EVENTLOG_MAX_BYTES``), the current file is renamed to
``<path>.1`` (replacing any previous rotation) and a fresh file
starts — a long sweep keeps at most two files.

The log is **off by default** and engineered like the tracer: the
disabled path is a single :attr:`EventLog.enabled` attribute check, so
default runs stay byte-identical.  Appends are ``O_APPEND`` writes of
one line under a thread lock, and the writer re-opens after a fork
(``replay_grid`` pool workers inherit the armed log and interleave
safely — each line is a self-contained record with its writer's pid).
"""

from __future__ import annotations

import atexit
import io
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.config import (EVENTLOG_ENV, default_eventlog_max_bytes)

#: Bump when a record type's payload fields change incompatibly.
EVENTLOG_SCHEMA_VERSION = 1

#: The record types the pipeline emits (a reference for consumers; the
#: log accepts any type so downstream layers can extend it).
EVENT_TYPES = ("run_start", "gc_pause", "shard_claimed", "shard_done",
               "cache_hit", "cache_miss", "stage1_hit", "stage1_miss",
               "shm_publish", "pool_start", "pool_reuse", "coverage_check",
               "run_end")

#: Rotated-file suffix appended to the log path.
ROTATED_SUFFIX = ".1"

#: GC trace kind -> the collector class that produces it; fills the
#: ``gc_pause`` record's ``collector`` field.
COLLECTOR_FOR_KIND = {
    "minor": "MinorGC",
    "major": "MajorGC",
    "sweep": "MarkSweepGC",
    "g1": "G1Collector",
    "concurrent": "ConcurrentMarkGC",
}


class EventLog:
    """An append-only, size-rotated JSONL event sink.

    Disabled until :meth:`open` is called; the disabled :meth:`emit`
    guard is one attribute check so instrumented hot paths stay free.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._path: Optional[Path] = None
        self._max_bytes = 0
        self._lock = threading.Lock()
        self._handle: Optional[io.TextIOWrapper] = None
        self._pid = 0
        self._size = 0

    @property
    def path(self) -> Optional[Path]:
        return self._path

    @property
    def rotated_path(self) -> Optional[Path]:
        if self._path is None:
            return None
        return self._path.with_name(self._path.name + ROTATED_SUFFIX)

    # -- control -----------------------------------------------------------

    def open(self, path: Union[str, Path],
             max_bytes: Optional[int] = None) -> None:
        """Arm the log to append at ``path``, rotating past
        ``max_bytes`` (default from the environment)."""
        with self._lock:
            self._close_handle()
            self._path = Path(path)
            self._max_bytes = (default_eventlog_max_bytes()
                               if max_bytes is None else int(max_bytes))
            self._open_handle()
            self.enabled = True

    def close(self) -> None:
        """Disarm the log (tests; an armed process normally keeps it
        open until exit)."""
        with self._lock:
            self._close_handle()
            self.enabled = False
            self._path = None

    # -- recording ---------------------------------------------------------

    def emit(self, event: str, **fields: Any) -> None:
        """Append one typed record.  No-op when disabled."""
        if not self.enabled:
            return
        record: Dict[str, Any] = {"event": event,
                                  "ts": round(time.time(), 6),
                                  "pid": os.getpid()}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None or self._pid != os.getpid():
                # A forked worker inherits the armed log but needs its
                # own O_APPEND handle (and its own size view).
                self._open_handle()
            if self._size and self._size + len(line) > self._max_bytes:
                self._rotate()
            self._handle.write(line)
            self._handle.flush()
            self._size += len(line)

    # -- internals ---------------------------------------------------------

    def _open_handle(self) -> None:
        self._close_handle()
        if self._path.parent != Path(""):
            self._path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self._path, "a", encoding="utf-8")
        self._pid = os.getpid()
        try:
            self._size = self._path.stat().st_size
        except OSError:
            self._size = 0

    def _close_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
            self._handle = None

    def _rotate(self) -> None:
        """Move the full file aside and start fresh.

        Concurrent writers (forked workers) may race the rename; the
        filesystem keeps it safe — ``replace`` is atomic and a loser
        simply reopens the fresh file on its next emit.
        """
        self._close_handle()
        try:
            self._path.replace(self.rotated_path)
        except OSError:  # pragma: no cover - raced by a sibling worker
            pass
        self._open_handle()


#: The process-wide event log every instrumented component reports to.
_EVENTLOG = EventLog()


def get_eventlog() -> EventLog:
    return _EVENTLOG


_INSTALLED = False


def install_env_eventlog(environ=None) -> Optional[str]:
    """Arm the global log from ``REPRO_EVENTLOG``; returns the path
    installed (once per process) or ``None``.

    Emits the process's ``run_start`` record immediately and registers
    an ``atexit`` ``run_end`` — forked workers inherit both the armed
    log and the exit hook, so each process in a sweep brackets its own
    lifetime in the shared timeline (records carry the writer's pid).
    """
    global _INSTALLED
    environ = os.environ if environ is None else environ
    path = environ.get(EVENTLOG_ENV)
    if not path or _INSTALLED:
        return None
    _EVENTLOG.open(path)
    _INSTALLED = True
    _EVENTLOG.emit("run_start", schema=EVENTLOG_SCHEMA_VERSION,
                   argv=list(sys.argv))
    atexit.register(_EVENTLOG.emit, "run_end")
    return path


def reset_installed_for_tests() -> None:
    """Allow a test to re-arm the env installer in one process."""
    global _INSTALLED
    _INSTALLED = False
    _EVENTLOG.close()


def read_events(path: Union[str, Path],
                include_rotated: bool = True) -> List[Dict[str, Any]]:
    """Parse a log (and its rotation, oldest first) back into records.

    A torn final line — a writer killed mid-append — is skipped, never
    misparsed.
    """
    path = Path(path)
    files = []
    rotated = path.with_name(path.name + ROTATED_SUFFIX)
    if include_rotated and rotated.exists():
        files.append(rotated)
    if path.exists():
        files.append(path)
    records: List[Dict[str, Any]] = []
    for file in files:
        for line in file.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records
