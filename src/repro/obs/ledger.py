"""The persistent run ledger: every maintenance run leaves a record.

One maintenance run is one JSON line appended to a ledger file —
per-phase durations, tuple accesses, per-view refresh counters, the cost
model's predictions, and the engine configuration.  Across nights the
file accumulates the warehouse's maintenance *trajectory*, which is what
turns the Figure 9 reproduction from a one-shot benchmark into something
auditable: ``repro history`` lists the runs.

Appends are crash- and concurrency-safe: each append takes an exclusive
inter-process lock on a ``<ledger>.lock`` sibling (``fcntl.flock`` where
available), re-reads the current contents, and rewrites the whole file
through :func:`~repro.io.atomic.atomic_write_text` — so a reader
or a crashed writer can never observe a truncated line, and concurrent
appenders serialise instead of interleaving.

The ledger is **off by default**.  Two ways to turn it on:

* ``REPRO_LEDGER=/path/to/ledger.jsonl`` in the environment — every
  ``maintain_lattice`` / ``run_nightly_maintenance`` call records itself
  (how the CI smoke builds its artifact);
* :func:`set_ledger` with a :class:`RunLedger` — for embedders and tests.

Record schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "run_id": 7,                  # 1-based position in this ledger
      "ts": 1754500000.0,           # epoch seconds at append time
      "kind": "maintain_lattice",   # or "nightly"
      "engine": {...},              # PropagateOptions + use_lattice
      "phases": [{"name", "seconds", "offline"}, ...],   # depth-0 only
      "online_s": ..., "offline_s": ...,
      "access": {"rows_scanned": ..., ..., "total": ...} | null,
      "views": {"<view>": {"delta_rows", "inserted", "updated",
                            "deleted", "recomputed"}, ...},
      "changes": {"insertions": n, "deletions": n},
      "predictions": {"<view>": {"propagate_accesses", "delta_rows"},
                       ...} | null,
      "predicted_with_lattice": ..., "predicted_without_lattice": ...
    }

(``access`` is present whenever the run recorded itself — the drivers
open a :func:`~repro.relational.stats.measuring` block around the run
when a ledger is active.)
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
import warnings
from contextlib import contextmanager
from typing import Any, Iterator

try:  # POSIX; on other platforms appends fall back to thread-level locking
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "LEDGER_ENV_VAR",
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "active_ledger",
    "set_ledger",
    "suspended_ledger",
]

LEDGER_SCHEMA_VERSION = 1

#: Environment variable naming the ledger file maintenance runs append to.
LEDGER_ENV_VAR = "REPRO_LEDGER"


class RunLedger:
    """An append-only JSONL file of maintenance-run records."""

    def __init__(self, path: pathlib.Path | str):
        self.path = pathlib.Path(path)
        self._thread_lock = threading.Lock()

    # -- writing -------------------------------------------------------

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Append one record; returns it with ``run_id``/``ts``/
        ``schema_version`` filled in.

        The whole read-extend-rewrite happens under an exclusive file
        lock, so concurrent appenders (threads or processes) each land a
        complete line and ``run_id`` stays a gapless 1-based sequence.
        """
        # Imported here, not at module level: importing repro.io runs its
        # __init__, which loads persist and, through it, the maintenance
        # drivers that import this module.
        from ..io.atomic import atomic_write_text

        with self._thread_lock, self._file_lock():
            existing = self._read_lines()
            if existing and _parse_line(existing[-1]) is None:
                # A crash mid-append can leave a truncated trailing line;
                # appending after it would corrupt the file mid-stream.
                # Drop it (with a warning) — the rewrite self-heals.
                warnings.warn(
                    f"{self.path}: dropping truncated trailing ledger line",
                    stacklevel=2,
                )
                existing.pop()
            stamped = dict(record)
            stamped.setdefault("schema_version", LEDGER_SCHEMA_VERSION)
            stamped["run_id"] = len(existing) + 1
            stamped.setdefault("ts", time.time())
            existing.append(json.dumps(stamped, sort_keys=True))
            atomic_write_text(self.path, "\n".join(existing) + "\n")
            return stamped

    def _file_lock(self):
        lock_path = self.path.with_name(self.path.name + ".lock")
        return _FileLock(lock_path)

    def _read_lines(self) -> list[str]:
        if not self.path.exists():
            return []
        text = self.path.read_text()
        return [line for line in text.splitlines() if line.strip()]

    # -- reading -------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Every record, oldest first.

        A malformed *trailing* line is the signature of a crash mid-append
        (the process died while the file was being extended); it is dropped
        with a ``UserWarning`` rather than raised, so ``repro history``
        stays usable after a crash.  A malformed line anywhere *else* is
        real corruption and still raises ``ValueError`` — a corrupt ledger
        should fail loudly, not be silently skipped.
        """
        lines = self._read_lines()
        out = []
        for number, line in enumerate(lines, start=1):
            record = _parse_line(line)
            if record is None:
                if number == len(lines):
                    warnings.warn(
                        f"{self.path}: ignoring truncated trailing ledger "
                        f"line {number} (crash mid-append?)",
                        stacklevel=2,
                    )
                    break
                raise ValueError(
                    f"{self.path}: line {number} is not a valid JSON record"
                )
            out.append(record)
        return out


def _parse_line(line: str) -> dict[str, Any] | None:
    """One ledger line as a record dict, or ``None`` when malformed."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class _FileLock:
    """Exclusive advisory lock on a sibling lockfile (no-op without fcntl)."""

    def __init__(self, path: pathlib.Path):
        self._path = path
        self._handle = None

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            self._handle = open(self._path, "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
        return False


#: Explicitly installed ledger (overrides the environment variable).
_active: RunLedger | None = None

#: Suspension depth — while positive, :func:`active_ledger` reports None.
_suspended = 0


def set_ledger(ledger: RunLedger | None) -> RunLedger | None:
    """Install (or with ``None``, clear) the process-wide ledger; returns
    the previous one.  An installed ledger takes precedence over
    ``REPRO_LEDGER``."""
    global _active
    previous = _active
    _active = ledger
    return previous


def active_ledger() -> RunLedger | None:
    """The ledger maintenance runs should record to, or ``None``.

    Checked per *run*, so exporting ``REPRO_LEDGER`` mid-process works.
    """
    if _suspended > 0:
        return None
    if _active is not None:
        return _active
    path = os.environ.get(LEDGER_ENV_VAR, "").strip()
    if path:
        return RunLedger(path)
    return None


@contextmanager
def suspended_ledger() -> Iterator[None]:
    """Disable run recording for the duration of the block.

    A driver that calls another recording driver uses this so one run
    appends exactly one record — ``run_nightly_maintenance`` suspends
    around its per-fact ``maintain_lattice`` calls and appends a single
    warehouse-wide ``nightly`` record.  Works for both installed and
    ``REPRO_LEDGER``-driven ledgers.
    """
    global _suspended
    _suspended += 1
    try:
        yield
    finally:
        _suspended -= 1
