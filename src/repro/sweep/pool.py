"""The one worker pool: persistent, crash-isolated, forked once per sweep.

:class:`WorkerPool` runs cells on *long-lived* worker processes.  It is
the only place in :mod:`repro.sweep` that forks a worker: the driver's
local host (:mod:`repro.sweep.scheduler`) and every ``repro
sweep-agent`` (:mod:`repro.sweep.remote`) run their cells through it.
Workers are forked lazily (never more than ``capacity``, never before a
cell needs one — fork-per-cell cost was measured to make small-cell
sweeps slower than sequential runs), inherit warm imports and any
runner-prewarmed shared state (e.g. one read-only workload stream per
distinct workload spec), then pull cell indices from their pipe and
stream results back as they finish.

The pool is incremental — a caller *submits* one cell under a key (the
lease id), *polls* for finished keys, and may *cancel* a key — and it
isolates per worker:

* a worker whose runner raises reports the error and lives on;
* a worker that hard-exits or is killed (OOM killer, signal) costs only
  its in-flight cell, which polls back as a failed result carrying the
  exit code; the next submit forks a replacement;
* a cancelled cell's worker is stopped with the escalating
  SIGTERM-grace-SIGKILL of :func:`_kill`.

Retry, timeouts and the merge are the scheduler's business, not the
pool's.  Results round-trip through JSON in the worker (``json.dumps``
on the worker side of the pipe, ``json.loads`` on this side), so a
payload is exactly what a report file would contain and a parallel
sweep over deterministic cells stays byte-identical to the sequential
run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable

from repro.sweep.spec import SweepCell, resolve_runner

__all__ = ["WorkerPool"]


def _worker_main(cells: tuple[SweepCell, ...], conn: Any, parent: int) -> None:
    """Worker body: pull cell indices, stream ``{ok, payload|error}`` back.

    Lives for the whole sweep: imports stay warm and runner-level caches
    (shared workload streams) persist across cells.  Exceptions are
    *reported*, not re-raised — the scheduler decides about retries.  A
    worker that dies before ``send_bytes`` lands simply leaves the pipe
    at EOF, which the pool reads as a crash.
    """
    # Warm the runner registry (and everything the builtin runners pull
    # in) before the first cell, not during it.
    import repro.sweep.runners  # noqa: F401

    while True:
        try:
            # A worker outliving a SIGKILLed parent would block in recv()
            # forever: it holds its own copy of the parent's pipe end.
            # ``parent`` is the pid that forked us, recorded before the
            # fork: one read here after start-up would miss a parent
            # killed while we were still importing.
            while not conn.poll(1.0):
                if os.getppid() != parent:
                    return
            index = conn.recv()
        except (EOFError, OSError):
            return
        if index is None:
            return
        cell = cells[index]
        t0 = time.perf_counter()
        try:
            payload = resolve_runner(cell.runner)(cell.params)
            blob: dict[str, Any] = {"ok": True, "payload": payload}
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            blob = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        # The runner's own time, for the journal's cell.run span.
        blob["compute_s"] = max(0.0, time.perf_counter() - t0)
        try:
            wire = json.dumps(blob, sort_keys=True)
        except TypeError as exc:
            wire = json.dumps(
                {"ok": False, "error": f"unserialisable cell payload: {exc}"}
            )
        try:
            conn.send_bytes(wire.encode("utf-8"))
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Worker:
    proc: Any
    conn: Any


def _kill(proc: Any, grace_s: float = 1.0) -> None:
    """Escalating stop: SIGTERM, a bounded grace window, then SIGKILL.

    The grace window is what lets a worker's ``atexit`` hooks and cache
    cleanup run; only a process that ignores SIGTERM past ``grace_s``
    is killed outright.  Already-dead processes are just reaped.
    """
    if proc.exitcode is not None:
        proc.join(0.0)
        return
    proc.terminate()
    proc.join(max(0.0, grace_s))
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)


def _context(start_method: str | None = None) -> Any:
    """Prefer fork so cell params (and prewarmed shared state) travel to
    workers by inheritance and may hold arbitrary objects (factories,
    configs).  Under spawn — fork-less hosts, or an explicit
    ``REPRO_SWEEP_START_METHOD=spawn`` override — the spec must be
    picklable, which every declarative (wire-portable) grid is; prewarm
    hooks simply stop paying off and workers rebuild shared state on
    demand.
    """
    method = start_method or os.environ.get("REPRO_SWEEP_START_METHOD")
    if method:
        if method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"unsupported sweep start method {method!r}; this host "
                f"offers: {', '.join(multiprocessing.get_all_start_methods())}"
            )
        return multiprocessing.get_context(method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _crash_error(proc: Any) -> str:
    code = proc.exitcode
    if code is not None and code < 0:
        return f"worker killed by signal {-code}"
    return f"worker crashed without a result (exit code {code})"


class WorkerPool:
    """Up to ``capacity`` persistent workers over one cell tuple."""

    def __init__(self, cells: tuple[SweepCell, ...], capacity: int) -> None:
        self.ctx = _context()
        self.cells = cells
        self.index_of = {cell.id: i for i, cell in enumerate(cells)}
        self.capacity = max(1, capacity)
        self.idle: list[_Worker] = []
        self.busy: dict[str, _Worker] = {}  # key -> worker
        self.spawned = 0  # worker processes forked so far
        self.done = 0  # cells that finished ok
        self._stillborn: list[tuple[str, dict[str, Any]]] = []

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(self.cells, child_conn, os.getpid()),
            name=f"sweep-worker-{self.spawned}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.spawned += 1
        return _Worker(proc, parent_conn)

    def submit(self, key: str, cell_id: str,
               announce: Callable[[int], None] | None = None) -> None:
        """Start ``cell_id`` on an idle (or freshly forked) worker.

        ``announce(pid)`` runs after the worker is chosen and *before*
        the cell is sent, so a caller can journal the run's begin span
        ahead of anything the cell itself might do (in the kill-agent
        fault mode: murder the agent).  A worker that died idle is
        replaced once; if the replacement dies too, the cell polls back
        as a failed result.
        """
        index = self.index_of[cell_id]
        worker = self.idle.pop() if self.idle else self._spawn()
        if announce is not None:
            announce(worker.proc.pid)
        for last in (False, True):
            try:
                worker.conn.send(index)
            except (BrokenPipeError, OSError):
                _kill(worker.proc, grace_s=0.1)
                if last:
                    self._stillborn.append((key, {
                        "ok": False,
                        "error": "worker died before accepting the cell",
                    }))
                    return
                worker = self._spawn()
            else:
                self.busy[key] = worker
                return

    def cancel(self, key: str) -> None:
        worker = self.busy.pop(key, None)
        if worker is not None:
            _kill(worker.proc, grace_s=0.5)
            worker.conn.close()

    def waitables(self) -> list[Any]:
        """What a caller's ``connection.wait`` should watch for us."""
        return [obj for w in self.busy.values() for obj in (w.conn, w.proc.sentinel)]

    def poll(self) -> list[tuple[str, dict[str, Any]]]:
        """``(key, result)`` for every cell that finished or whose worker
        died since the last poll; never blocks."""
        results, self._stillborn = self._stillborn, []
        owner = {obj: key for key, w in self.busy.items()
                 for obj in (w.conn, w.proc.sentinel)}
        ready = connection.wait(list(owner), timeout=0.0) if owner else []
        for key in dict.fromkeys(owner[r] for r in ready):
            worker = self.busy.pop(key)
            try:
                blob = json.loads(worker.conn.recv_bytes().decode("utf-8"))
                self.idle.append(worker)
            except (EOFError, OSError, json.JSONDecodeError):
                worker.proc.join(1.0)
                blob = {"ok": False, "error": _crash_error(worker.proc)}
                worker.conn.close()
            if blob.get("ok"):
                self.done += 1
            results.append((key, blob))
        return results

    def shutdown(self) -> None:
        """Idle workers get a clean stop and a short join; busy (or
        deaf) ones the escalating kill."""
        for worker in self.idle:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.idle:
            worker.proc.join(1.0)
        for worker in list(self.busy.values()) + self.idle:
            worker.conn.close()
            _kill(worker.proc, grace_s=1.0)
        self.idle, self.busy = [], {}
