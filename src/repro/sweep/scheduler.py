"""The one lease scheduler behind every sweep, local or distributed.

``run_sweep`` and ``run_remote_sweep`` are thin fronts over the same
:class:`_Scheduler`, which leases the cells of a grid to **hosts** of
two kinds:

* the **local host** — the driver's own :class:`~repro.sweep.pool.
  WorkerPool`, forked directly over pipes: no wire encoding, no
  heartbeat, never lost.  Workers inherit warm imports, runner-
  prewarmed shared state and non-portable params (factories, live
  configs) by fork, which is what ``run_policies``/``run_chaos`` grids
  rely on;
* **agent hosts** — ``repro sweep-agent`` processes reached over a
  transport and the envelope protocol of :mod:`repro.sweep.remote`.

``run_sweep(spec, workers=N)`` runs the scheduler with one local host of
N workers; ``run_remote_sweep`` runs it with agent hosts and, if every
agent dies, **degrades** by adding a local host to the same scheduler —
the sweep never aborts because the fleet did.

One loop, one ``connection.wait`` over every local worker's pipe and
sentinel and every agent's stdout: the driver runs no threads.  Each
policy below is implemented once, whatever host a lease went to:

* **settle** — a result commits **at most once** per cell id; a failed
  attempt (exception, worker crash, timeout) is requeued at the *front*
  of the pending queue up to ``max_attempts``, so a flaky cell's retry
  does not wait behind every untried cell, then recorded as failed; the
  rest of the grid still completes;
* **timeouts** — a lease past ``timeout_s`` is cancelled (a local
  worker is SIGTERM-grace-SIGKILLed) and charged an attempt; the error
  records the actual wall time and attempt number;
* **host loss** — an agent that misses three heartbeat intervals, EOFs
  its transport, or sends an undecodable line is **lost**: its leases
  are requeued without charging an attempt (the host failed, not the
  cell) and it is reconnected with exponential backoff plus
  deterministic jitter, up to ``reconnect_attempts`` times, after which
  it is **dead**.  The local host is never lost;
* **stragglers** — a lease running longer than ``straggler_factor`` ×
  the median committed cell time is also leased to a second host; the
  first result commits, the sibling is cancelled, and a late duplicate
  is discarded.  A sweep with one host never duplicates;
* **cache-serve** — every cell is looked up in the content-addressed
  result cache again when it is (re)dispatched, so a cell requeued
  after an identical one finished is served, not re-run;
* **interrupt** — the first SIGINT/SIGTERM stops dispatch, flushes
  in-flight cells to the manifest as pending and raises
  :class:`SweepInterrupted`; every host is shut down on the way out.

Before any host starts, one pass applies the manifest-resume >
result-cache > live precedence.  Merged results are keyed by cell id
and reported in spec order, so a parallel or distributed sweep over
deterministic cells is byte-identical to the sequential run.
"""

from __future__ import annotations

import hashlib
import math
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from statistics import median
from typing import TYPE_CHECKING, Any, Callable

from repro.sweep.manifest import Manifest, ResultCache
from repro.sweep.pool import WorkerPool
from repro.sweep.remote import (
    DEFAULT_HEARTBEAT_S,
    HostOutcome,
    HostSpec,
    _AgentTransport,
    parse_hosts,
)
from repro.sweep.spec import (
    SweepCell,
    SweepSpec,
    cell_fingerprint,
    resolve_prewarm,
)
from repro.sweep.wire import WireError, decode_envelope, encode_envelope, encode_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports sweep)
    from repro.obs import SweepObserver

__all__ = [
    "CellOutcome",
    "SweepResult",
    "SweepInterrupted",
    "run_sweep",
    "run_remote_sweep",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_STRAGGLER_FACTOR",
]

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_STRAGGLER_FACTOR = 4.0
#: Heartbeat intervals an agent may miss before it is declared lost.
_MISSED_HEARTBEATS = 3
_RECONNECT_BASE_S = 0.25
_RECONNECT_CAP_S = 5.0


def _default_obs(progress: Callable[[str], None] | None) -> "SweepObserver":
    """A journal-less observer that only narrates to ``progress``.

    Imported lazily: :mod:`repro.obs` imports back into the sweep
    package (for ``atomic_write_json``), so a module-level import here
    would be a cycle.
    """
    from repro.obs import SweepObserver

    return SweepObserver(progress=progress)


class SweepInterrupted(RuntimeError):
    """Raised when an operator signal stopped a sweep before completion.

    The sweep shut down *gracefully* before raising: dispatch stopped,
    in-flight cells were flushed to the manifest as pending, and every
    host was shut down (local workers with an escalating
    SIGTERM-grace-SIGKILL).  ``str(exc)`` is a one-line summary suitable
    for the CLI.
    """

    def __init__(self, done: int, failed: int, total: int,
                 manifest_path: str | None) -> None:
        self.done = done
        self.failed = failed
        self.total = total
        self.manifest_path = manifest_path
        hint = (
            f"; manifest flushed to {manifest_path} — re-run with --resume"
            if manifest_path
            else ""
        )
        super().__init__(
            f"{done}/{total} cells done, {failed} failed, "
            f"{total - done - failed} unfinished{hint}"
        )


class _SignalGuard:
    """Two-stage SIGINT/SIGTERM handling around a sweep.

    The first signal flips :attr:`stop` — the scheduler stops
    dispatching, flushes the manifest and raises
    :class:`SweepInterrupted`; the second signal raises
    ``KeyboardInterrupt`` straight out of the handler, force-killing the
    run through the scheduler's ``finally`` cleanup.  Handlers are only
    installed in the main thread (the only place Python allows it);
    elsewhere the guard is inert.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, note: Callable[[str], None]) -> None:
        self.stop = False
        self._note = note
        self._previous: dict[int, Any] = {}

    def _handle(self, signum: int, frame: Any) -> None:
        if self.stop:  # second signal: force
            raise KeyboardInterrupt
        self.stop = True
        self._note(
            f"caught {signal.Signals(signum).name}: finishing in-flight "
            f"cells' shutdown, flushing manifest (signal again to force-kill)"
        )

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is threading.main_thread():
            for sig in self.SIGNALS:
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # non-main interpreter quirks
                    pass
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass


@dataclass(frozen=True)
class CellOutcome:
    """Final state of one cell after isolation, retries and merge."""

    cell: SweepCell
    status: str  # "done" | "failed"
    attempts: int  # total attempts the cell has consumed, across resumes
    payload: Any = None
    error: str = ""
    resumed: bool = False  # skipped because the manifest had it done
    cached: bool = False  # payload served from the result cache

    @property
    def ok(self) -> bool:
        return self.status == "done"


@dataclass(frozen=True)
class SweepResult:
    """All outcomes, in spec order regardless of completion order."""

    spec: SweepSpec
    outcomes: tuple[CellOutcome, ...]
    workers: int
    #: Worker processes actually forked — 0 when every cell was resumed
    #: from the manifest or served from the result cache.  For a
    #: distributed sweep this counts agent processes plus any local
    #: fallback workers.
    spawned_workers: int = 0
    #: Per-host outcomes (:class:`repro.sweep.remote.HostOutcome`) when
    #: the sweep ran through ``run_remote_sweep``; empty for local runs.
    host_outcomes: tuple = ()
    #: Cells settled from the result cache *after* dispatch began (a
    #: requeued cell whose fingerprint-identical sibling finished first).
    #: Start-of-run cache hits show as ``CellOutcome.cached`` instead.
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> tuple[CellOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    def payloads(self) -> dict[str, Any]:
        return {o.cell.id: o.payload for o in self.outcomes if o.ok}


# --------------------------------------------------------------------------
# What is already established: manifest resume, then the result cache
# --------------------------------------------------------------------------


def _serve_cached(cell: SweepCell, cache: ResultCache,
                  outcomes: dict[str, CellOutcome], book: Manifest,
                  obs: "SweepObserver", total: int | None = None) -> bool:
    """Settle ``cell`` from the result cache if its fingerprint is there.

    Called once per pending cell before any host starts, and again
    (``total`` given) each time a cell is dispatched: by then an
    identical (runner, params) cell may have finished, and determinism
    makes the cached payload identical to what a re-run would produce.
    A corrupted entry is a miss and degrades to a live run.
    """
    key = cell_fingerprint(cell)
    entry = cache.load(key) if key is not None else None
    if entry is None:
        return False
    attempts = entry.get("attempts", 1)
    if not isinstance(attempts, int) or attempts < 1:
        attempts = 1
    outcomes[cell.id] = CellOutcome(
        cell=cell, status="done", attempts=attempts,
        payload=entry["payload"], cached=True,
    )
    book.record_done(cell.id, attempts, entry["payload"])
    during = (
        {} if total is None
        else {"when": "redispatch", "done": len(outcomes), "total": total}
    )
    obs.emit("cell.cache_hit", cell=cell.id, key=key[:12], **during)
    return True


def _prepare(
    spec: SweepSpec,
    *,
    manifest_path: str | None,
    resume: bool,
    cache_dir: str | None,
    obs: "SweepObserver",
) -> tuple[dict[str, CellOutcome], deque[tuple[SweepCell, int]],
           Manifest, ResultCache | None]:
    """The manifest-resume > result-cache > live precedence pass.

    Returns the outcomes settled so far, the deque of
    ``(cell, first_attempt)`` still to run, the manifest being written,
    and the cache (or None).
    """
    prior = (
        Manifest.load(manifest_path, spec)
        if (resume and manifest_path)
        else Manifest(None, spec)
    )
    book = Manifest(manifest_path, spec, dict(prior.cells) if resume else None)
    cache = ResultCache(cache_dir) if cache_dir else None

    outcomes: dict[str, CellOutcome] = {}
    pending: deque[tuple[SweepCell, int]] = deque()
    done_before = prior.completed
    for cell in spec.cells:
        if cell.id in done_before:
            attempts = prior.cells[cell.id].get("attempts", 1)
            outcomes[cell.id] = CellOutcome(
                cell=cell, status="done", attempts=attempts,
                payload=done_before[cell.id], resumed=True,
            )
            obs.emit("cell.resumed", cell=cell.id, attempts=attempts)
    # Anything the manifest did not cover may still be an unchanged cell
    # from an earlier sweep.  Hits never start any work.
    for cell in spec.cells:
        if cell.id not in outcomes and not (
                cache is not None
                and _serve_cached(cell, cache, outcomes, book, obs)):
            pending.append((cell, 1))
    return outcomes, pending, book, cache


# --------------------------------------------------------------------------
# Hosts
# --------------------------------------------------------------------------


@dataclass
class _Lease:
    id: str
    cell: SweepCell
    attempt: int
    host: "_LocalHost | _AgentHost"
    started: float
    sid: str | None = None  # open lease span (cell.run on the local host)


class _LocalHost:
    """The driver's own worker pool, forked directly over pipes."""

    name = None  # events carry no host: timing rows say "local"
    state = "ready"  # and stay so: the local host is never lost
    timeout_verb = "killed"

    def __init__(self, spec: SweepSpec, workers: int,
                 pending: deque[tuple[SweepCell, int]]) -> None:
        # Parent-side warm-up, inherited by every fork: the runner
        # imports, and each runner's prewarm of shared read-only state
        # for its pending cells — e.g. one numeric workload stream per
        # distinct workload spec, built once per grid instead of per cell.
        import repro.sweep.runners  # noqa: F401

        by_runner: dict[str, list[SweepCell]] = {}
        for cell, _ in pending:
            by_runner.setdefault(cell.runner, []).append(cell)
        for runner_key, runner_cells in by_runner.items():
            prewarm = resolve_prewarm(runner_key)
            if prewarm is None:
                continue
            try:
                prewarm(runner_cells)
            except Exception:  # noqa: BLE001 - best-effort; workers rebuild on demand
                pass
        self.pool = WorkerPool(spec.cells, workers)
        self.capacity = self.pool.capacity
        self.leases: dict[str, _Lease] = {}
        self.outcome = HostOutcome(host="local", state="ok")

    def send(self, lease: _Lease, obs: "SweepObserver") -> str | None:
        def announce(pid: int) -> None:
            lease.sid = obs.begin("cell.run", actor=f"worker/local/{pid}",
                                  cell=lease.cell.id, attempt=lease.attempt)

        self.pool.submit(lease.id, lease.cell.id, announce)
        return None

    def cancel(self, lease: _Lease) -> None:
        self.pool.cancel(lease.id)

    def waitables(self) -> list[Any]:
        return self.pool.waitables()

    def messages(self) -> list[tuple[str, dict[str, Any]]]:
        return [("result", {"lease": key, **blob})
                for key, blob in self.pool.poll()]

    def close(self) -> None:
        self.pool.shutdown()


@dataclass
class _AgentHost:
    """One ``--hosts`` entry: an agent behind a transport, maybe lost."""

    spec: HostSpec
    state: str = "connecting"  # connecting | ready | lost | dead
    transport: _AgentTransport | None = None
    capacity: int = 1
    last_seen: float = 0.0
    last_beat: float = 0.0  # monotonic time of the last heartbeat *kind*
    connect_deadline: float = 0.0
    backoff_until: float = 0.0
    reconnects_used: int = 0
    leases: dict[str, _Lease] = field(default_factory=dict)
    connect_sid: str | None = None  # open ssh.connect span
    reconnect_sid: str | None = None  # open reconnect (backoff) span
    outcome: HostOutcome = None  # type: ignore[assignment]

    timeout_verb = "cancelled"

    def __post_init__(self) -> None:
        self.outcome = HostOutcome(host=self.spec.name, state="unused")

    @property
    def name(self) -> str:
        return self.spec.name

    def send(self, lease: _Lease, obs: "SweepObserver") -> str | None:
        assert self.transport is not None
        dispatch_sid = obs.begin("dispatch", host=self.name,
                                 cell=lease.cell.id, lease=lease.id)
        try:
            self.transport.send_line(encode_envelope("lease", {
                "lease": lease.id, "cell": lease.cell.id,
                "attempt": lease.attempt,
            }))
        except OSError as exc:
            obs.end(dispatch_sid, ok=False)
            return f"send failed: {exc}"
        obs.end(dispatch_sid, ok=True)
        lease.sid = obs.begin("lease", host=self.name, cell=lease.cell.id,
                              lease=lease.id, attempt=lease.attempt)
        return None

    def cancel(self, lease: _Lease) -> None:
        if self.transport is not None and self.state == "ready":
            try:
                self.transport.send_line(
                    encode_envelope("cancel", {"lease": lease.id}))
            except OSError:
                pass

    def waitables(self) -> list[Any]:
        return [self.transport.reader] if self.transport is not None else []

    def messages(self) -> list[tuple[str, dict[str, Any]]]:
        """Decoded envelopes available now; a trailing ``lost`` message
        reports EOF or an undecodable line."""
        assert self.transport is not None
        decoded: list[tuple[str, dict[str, Any]]] = []
        for line in self.transport.reader.drain():
            self.last_seen = time.monotonic()
            if line is None:
                decoded.append(("lost", {"reason": "transport closed (EOF)"}))
                break
            try:
                decoded.append(decode_envelope(line))
            except WireError as exc:
                decoded.append(("lost", {"reason": f"protocol error: {exc}"}))
                break
        return decoded

    def close(self, grace_s: float = 2.0) -> None:
        if self.transport is not None:
            self.transport.close(grace_s)
            self.transport = None


def _jitter(host: str, attempt: int) -> float:
    """Deterministic jitter in [0.75, 1.25): reconnects across a fleet
    spread out, and a re-run spreads them out the same way."""
    digest = hashlib.sha256(f"{host}:{attempt}".encode("utf-8")).digest()
    return 0.75 + (digest[0] / 255.0) * 0.5


# --------------------------------------------------------------------------
# The scheduler
# --------------------------------------------------------------------------


class _Scheduler:
    """Leases a grid's pending cells to hosts; see the module docstring.

    With no agent hosts the sweep runs on a local host of ``workers``;
    with agents, a local host of ``workers`` joins only once every agent
    is dead.
    """

    def __init__(
        self,
        spec: SweepSpec,
        hosts: tuple[HostSpec, ...] = (),
        *,
        workers: int = 1,
        outcomes: dict[str, CellOutcome],
        pending: deque[tuple[SweepCell, int]],
        book: Manifest,
        cache: ResultCache | None,
        timeout_s: float | None,
        max_attempts: int,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        straggler_factor: float | None = None,
        connect_timeout_s: float = 10.0,
        reconnect_attempts: int = 1,
        obs: "SweepObserver | None" = None,
    ) -> None:
        self.spec = spec
        self.workers = workers
        self.outcomes = outcomes
        self.pending = pending
        self.book = book
        self.cache = cache
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.heartbeat_s = heartbeat_s
        self.straggler_factor = straggler_factor
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_attempts = reconnect_attempts
        self.obs = obs if obs is not None else _default_obs(None)
        self.guard: _SignalGuard | None = None  # set by the frame around run()
        self.total = len(spec.cells)
        self.agents = [_AgentHost(spec=h) for h in hosts]
        self.hosts: list[_LocalHost | _AgentHost] = list(self.agents)
        self.active: dict[str, _Lease] = {}  # lease id -> lease
        self.durations: list[float] = []  # committed cell wall times
        self.spawned_agents = 0
        self.cache_hits = 0  # cells settled from the result cache mid-run
        self._lease_seq = 0
        # Only agents need the grid on the wire: a local-only grid may
        # hold live objects.  With a journal armed, the spec envelope
        # asks every agent to buffer its own spans and ship them back as
        # `journal` lines; journal-off sweeps send exactly the
        # pre-observability bytes.
        extras: dict[str, Any] = {"heartbeat_s": heartbeat_s}
        if self.obs.journal is not None:
            extras["journal"] = True
            extras["trace"] = self.obs.trace_id
        self._spec_line = encode_spec(spec, **extras) if hosts else ""

    @property
    def spawned(self) -> int:
        """Agent processes started plus local workers forked."""
        return self.spawned_agents + sum(
            h.pool.spawned for h in self.hosts if isinstance(h, _LocalHost))

    # -- host lifecycle ----------------------------------------------------

    def _connect(self, host: _AgentHost) -> None:
        host.connect_sid = self.obs.begin(
            "ssh.connect", host=host.name, kind=host.spec.kind,
            attempt=host.reconnects_used,
        )
        try:
            host.transport = _AgentTransport(host.spec)
        except OSError as exc:  # ssh/python binary missing, fork failure
            host.transport = None
            self._lose_host(host, f"cannot start agent: {exc}")
            return
        self.spawned_agents += 1
        host.state = "connecting"
        host.last_seen = time.monotonic()
        host.connect_deadline = host.last_seen + self.connect_timeout_s

    def _lose_host(self, host: _AgentHost, reason: str) -> None:
        """Requeue the host's leases and schedule a reconnect (or declare
        it dead once reconnects are exhausted)."""
        if host.state == "dead":
            return
        self.obs.end(host.connect_sid, ok=False, reason=reason)
        host.connect_sid = None
        host.close(grace_s=0.5)
        for lease in list(host.leases.values()):
            host.leases.pop(lease.id, None)
            self.active.pop(lease.id, None)
            self.obs.end(lease.sid, outcome="host-lost")
            lease.sid = None
            if lease.cell.id in self.outcomes or self._has_sibling(lease):
                continue
            # The host failed, not the cell: requeue without charging an
            # attempt, at the front so redispatch beats untried work.
            self.pending.appendleft((lease.cell, lease.attempt))
            self.obs.emit("cell.redispatch", cell=lease.cell.id,
                          host=host.name)
        self.obs.end(host.reconnect_sid, ok=False, reason=reason)
        host.reconnect_sid = None
        if host.reconnects_used >= self.reconnect_attempts:
            host.state = "dead"
            host.outcome.state = "dead"
            host.outcome.error = reason
            self.obs.emit("host.dead", host=host.name, reason=reason)
            return
        host.reconnects_used += 1
        host.outcome.reconnects += 1
        delay = min(
            _RECONNECT_CAP_S,
            _RECONNECT_BASE_S * (2 ** (host.reconnects_used - 1)),
        ) * _jitter(host.name, host.reconnects_used)
        host.state = "lost"
        host.backoff_until = time.monotonic() + delay
        self.obs.emit("host.lost", host=host.name, reason=reason,
                      attempt=host.reconnects_used,
                      limit=self.reconnect_attempts, delay_s=delay)
        host.reconnect_sid = self.obs.begin(
            "reconnect", host=host.name,
            attempt=host.reconnects_used, delay_s=round(delay, 6),
        )

    def _has_sibling(self, lease: _Lease) -> bool:
        return any(
            other.cell.id == lease.cell.id and other.id != lease.id
            for other in self.active.values()
        )

    # -- messages from hosts -----------------------------------------------

    def _receive(self, host: "_LocalHost | _AgentHost") -> None:
        for kind, body in host.messages():
            if host.state in ("lost", "dead"):
                return  # the rest of the batch came from a dropped transport
            if kind == "lost":
                self._lose_host(host, body["reason"])
            elif kind == "result":
                self._on_result(host, body)
            elif kind == "hello":
                workers = body.get("workers")
                host.capacity = (
                    workers if isinstance(workers, int) and workers > 0 else 1
                )
                try:
                    host.transport.send_line(self._spec_line)
                except OSError as exc:
                    self._lose_host(host, f"send failed: {exc}")
            elif kind == "spec-ack":
                if body.get("fingerprint") != self.spec.fingerprint():
                    self._lose_host(host, "spec fingerprint mismatch on ack")
                    continue
                host.state = "ready"
                if host.outcome.state == "unused":
                    host.outcome.state = "ok"
                self.obs.end(host.connect_sid, ok=True, workers=host.capacity)
                host.connect_sid = None
                self.obs.end(host.reconnect_sid, ok=True)
                host.reconnect_sid = None
                self.obs.emit("host.ready", host=host.name,
                              workers=host.capacity)
            elif kind == "heartbeat":
                now = time.monotonic()
                gap = now - host.last_beat if host.last_beat else 0.0
                host.last_beat = now
                host.outcome.heartbeats += 1
                if gap > host.outcome.max_heartbeat_gap_s:
                    host.outcome.max_heartbeat_gap_s = round(gap, 3)
                busy = body.get("busy")
                self.obs.point(
                    "heartbeat", host=host.name, gap_s=round(gap, 6),
                    busy=len(busy) if isinstance(busy, list) else 0,
                    done=body.get("done", 0),
                )
            elif kind == "journal":
                events = body.get("events")
                if isinstance(events, list):
                    self.obs.record_remote(host.name, events)
            # unknown kinds are ignored: forward-compatible within a version

    def _on_result(self, host: "_LocalHost | _AgentHost",
                   body: dict[str, Any]) -> None:
        lease = self.active.pop(str(body.get("lease")), None)
        host.leases.pop(str(body.get("lease")), None)
        if lease is None or lease.cell.id in self.outcomes:
            if lease is not None:
                self.obs.end(lease.sid, outcome="duplicate")
                lease.sid = None
            host.outcome.duplicates_discarded += 1
            self.obs.emit("cell.duplicate", cell=str(body.get("cell")),
                          host=host.name)
            return
        # First result wins: cancel any straggler sibling outright.
        for other in [o for o in self.active.values()
                      if o.cell.id == lease.cell.id]:
            self._cancel(other)
        wall = time.monotonic() - lease.started
        self.durations.append(wall)
        ok = bool(body.get("ok"))
        timing = {"compute_s": body["compute_s"]} if "compute_s" in body else {}
        self.obs.end(lease.sid, outcome="result", ok=ok, **timing)
        lease.sid = None
        if ok:
            host.outcome.done += 1
        self._settle(lease.cell, lease.attempt, ok, body.get("payload"),
                     str(body.get("error", "worker reported failure")), host,
                     wall_s=wall)

    def _settle(self, cell: SweepCell, attempt: int, ok: bool,
                payload: Any, error: str, host: "_LocalHost | _AgentHost",
                wall_s: float | None = None) -> None:
        """Commit one cell attempt, or requeue it for another."""
        if ok:
            self.outcomes[cell.id] = CellOutcome(cell, "done", attempt, payload)
            self.book.record_done(cell.id, attempt, payload)
            if self.cache is not None:
                key = cell_fingerprint(cell)
                if key is not None:
                    self.cache.store(key, cell_id=cell.id, attempts=attempt,
                                     payload=payload)
            self.obs.emit("cell.done", cell=cell.id,
                          done=len(self.outcomes), total=self.total,
                          attempt=attempt, host=host.name, wall_s=wall_s)
        elif attempt < self.max_attempts:
            self.obs.emit("cell.retry", cell=cell.id, attempt=attempt,
                          error=error, host=host.name, wall_s=wall_s)
            # Front of the queue: on a wide sweep the retry must not wait
            # behind every untried cell and become the run's straggler.
            self.pending.appendleft((cell, attempt + 1))
        else:
            self.outcomes[cell.id] = CellOutcome(cell, "failed", attempt,
                                                 None, error)
            self.book.record_failed(cell.id, attempt, error)
            host.outcome.failed += 1
            self.obs.emit("cell.failed", cell=cell.id,
                          done=len(self.outcomes), total=self.total,
                          attempt=attempt, error=error, host=host.name,
                          wall_s=wall_s)
        self._status_tick()

    def _cancel(self, lease: _Lease) -> None:
        self.active.pop(lease.id, None)
        lease.host.leases.pop(lease.id, None)
        self.obs.end(lease.sid, outcome="cancelled")
        lease.sid = None
        lease.host.cancel(lease)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self) -> None:
        for host in self.hosts:
            while (host.state == "ready" and self.pending
                   and len(host.leases) < host.capacity):
                cell, attempt = self.pending.popleft()
                if cell.id in self.outcomes:
                    continue
                if self.cache is not None and _serve_cached(
                        cell, self.cache, self.outcomes, self.book, self.obs,
                        self.total):
                    self.cache_hits += 1
                    continue
                self._lease_to(host, cell, attempt)

    def _lease_to(self, host: "_LocalHost | _AgentHost", cell: SweepCell,
                  attempt: int) -> None:
        self._lease_seq += 1
        lease = _Lease(id=f"L{self._lease_seq}", cell=cell, attempt=attempt,
                       host=host, started=time.monotonic())
        error = host.send(lease, self.obs)
        if error is not None:
            self.pending.appendleft((cell, attempt))
            self._lose_host(host, error)
            return
        host.leases[lease.id] = lease
        self.active[lease.id] = lease

    def _redispatch_straggler(self, lease: _Lease, now: float) -> None:
        for host in self.hosts:
            if (host is lease.host or host.state != "ready"
                    or len(host.leases) >= host.capacity):
                continue
            self.obs.emit("cell.straggler", cell=lease.cell.id,
                          host=lease.host.name,
                          elapsed_s=now - lease.started, to=host.name)
            self._lease_to(host, lease.cell, lease.attempt)
            return

    # -- deadline supervision ----------------------------------------------

    def _check_deadlines(self, now: float) -> None:
        suspect_after = self.heartbeat_s * _MISSED_HEARTBEATS
        for host in self.agents:
            if host.state == "connecting" and now >= host.connect_deadline:
                self._lose_host(host, "no hello before the connect timeout")
            elif (host.state in ("ready", "connecting")
                    and now - host.last_seen > suspect_after):
                self._lose_host(
                    host,
                    f"heartbeat silent for {now - host.last_seen:.1f}s "
                    f"(> {suspect_after:.1f}s)",
                )
            elif host.state == "lost" and now >= host.backoff_until:
                self._connect(host)
        if self.timeout_s is not None:
            for lease in list(self.active.values()):
                elapsed = now - lease.started
                if elapsed < self.timeout_s:
                    continue
                self._cancel(lease)
                if self._has_sibling(lease) or lease.cell.id in self.outcomes:
                    continue
                self._settle(
                    lease.cell, lease.attempt, False, None,
                    f"timeout: attempt {lease.attempt} "
                    f"{lease.host.timeout_verb} after {elapsed:.2f}s wall "
                    f"(limit {self.timeout_s}s)",
                    lease.host, wall_s=elapsed,
                )
        if self.straggler_factor and len(self.durations) >= 3:
            threshold = self.straggler_factor * median(self.durations)
            for lease in list(self.active.values()):
                if (now - lease.started > threshold
                        and not self._has_sibling(lease)):
                    self._redispatch_straggler(lease, now)

    def _next_wake(self, now: float) -> float:
        """Seconds the wait may sleep before a deadline could fire."""
        horizon = now + self.heartbeat_s
        for host in self.agents:
            if host.state == "connecting":
                horizon = min(horizon, host.connect_deadline)
            elif host.state == "ready":
                horizon = min(
                    horizon,
                    host.last_seen + self.heartbeat_s * _MISSED_HEARTBEATS,
                )
            elif host.state == "lost":
                horizon = min(horizon, host.backoff_until)
        if self.timeout_s is not None:
            for lease in self.active.values():
                horizon = min(horizon, lease.started + self.timeout_s)
        return max(0.05, horizon - now)

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        if not self.agents:
            self.hosts.append(_LocalHost(self.spec, self.workers, self.pending))
        for host in self.agents:
            self._connect(host)
        try:
            while len(self.outcomes) < self.total:
                if self.guard is not None and self.guard.stop:
                    self._interrupt()
                if all(h.state == "dead" for h in self.hosts):
                    # Graceful degradation: every agent is gone, the grid
                    # is not.  Their leases were requeued by _lose_host,
                    # so `pending` is exactly the unfinished set.
                    self.obs.emit("sweep.degraded", hosts=len(self.agents),
                                  cells=self.total - len(self.outcomes))
                    self.hosts.append(
                        _LocalHost(self.spec, self.workers, self.pending))
                self._dispatch()
                owner = {obj: host for host in self.hosts
                         for obj in host.waitables()}
                ready = connection.wait(
                    list(owner), timeout=self._next_wake(time.monotonic()))
                for host in self.hosts:
                    if any(owner[obj] is host for obj in ready):
                        self._receive(host)
                self._check_deadlines(time.monotonic())
                self._status_tick()
        finally:
            self._close_hosts()

    def _interrupt(self) -> None:
        flushed: set[str] = set()
        for lease in list(self.active.values()):
            self.obs.end(lease.sid, outcome="interrupted")
            lease.sid = None
            if lease.cell.id not in self.outcomes and lease.cell.id not in flushed:
                self.book.record_pending(lease.cell.id, lease.attempt)
                flushed.add(lease.cell.id)
                self.obs.emit("cell.interrupted", cell=lease.cell.id)
        done = sum(1 for o in self.outcomes.values() if o.ok)
        failed = len(self.outcomes) - done
        raise SweepInterrupted(done, failed, self.total, self.book.path)

    def _close_hosts(self) -> None:
        # Ask every agent to stop before waiting on any, so they exit
        # (and stop their workers) concurrently.
        for host in self.agents:
            if host.transport is not None:
                try:
                    host.transport.send_line(encode_envelope("shutdown", {}))
                except OSError:
                    pass
                host.transport.hang_up()
        for host in self.hosts:
            host.close()

    def _status_tick(self) -> None:
        self.obs.status_tick(pending=len(self.pending),
                             leased=len(self.active),
                             hosts=self._host_status())

    def _host_status(self) -> dict[str, dict[str, Any]] | None:
        """Live per-agent rows for the status sidecar (`repro top`)."""
        if not self.agents:
            return None
        now = time.monotonic()
        return {
            h.name: {
                "state": h.state,
                "busy": len(h.leases),
                "done": h.outcome.done,
                "failed": h.outcome.failed,
                "reconnects": h.outcome.reconnects,
                "heartbeat_age_s": (
                    round(now - h.last_beat, 3) if h.last_beat else None
                ),
                "workers": h.capacity,
            }
            for h in self.agents
        }

    def host_outcomes(self) -> tuple[HostOutcome, ...]:
        now = time.monotonic()
        for h in self.agents:
            if h.last_beat:
                h.outcome.last_heartbeat_age_s = round(now - h.last_beat, 3)
        return tuple(h.outcome for h in self.agents)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def _sweep(spec: SweepSpec, hosts: tuple[HostSpec, ...], *, workers: int,
           manifest_path: str | None, resume: bool, cache_dir: str | None,
           progress: Callable[[str], None] | None,
           obs: "SweepObserver | None", **options: Any) -> SweepResult:
    """The outer frame every sweep shares: the sweep/prepare/merge spans,
    the precedence pass, the signal guard and the result assembly."""
    if obs is None:
        obs = _default_obs(progress)
    total = len(spec.cells)
    width = {"hosts": len(hosts)} if hosts else {"workers": workers}
    sweep_sid = obs.begin("sweep", spec=spec.name, cells=total, **width)
    try:
        prep_sid = obs.begin("prepare")
        outcomes, pending, book, cache = _prepare(
            spec, manifest_path=manifest_path, resume=resume,
            cache_dir=cache_dir, obs=obs,
        )
        obs.end(prep_sid, pending=len(pending), settled=len(outcomes))
        obs.status_tick(pending=len(pending), leased=0, force=True)

        scheduler = _Scheduler(
            spec, hosts, workers=workers, outcomes=outcomes,
            pending=pending, book=book, cache=cache, obs=obs, **options,
        )
        if pending:
            with _SignalGuard(obs.note) as guard:
                scheduler.guard = guard
                scheduler.run()

        merge_sid = obs.begin("merge")
        result = SweepResult(
            spec=spec,
            outcomes=tuple(outcomes[cell.id] for cell in spec.cells),
            workers=sum(h.workers for h in hosts) if hosts else workers,
            spawned_workers=scheduler.spawned,
            host_outcomes=scheduler.host_outcomes(),
            cache_hits=scheduler.cache_hits,
        )
        obs.end(merge_sid, cells=len(result.outcomes))
    except SweepInterrupted:
        obs.end(sweep_sid, state="interrupted")
        obs.status_tick(force=True)
        raise
    obs.end(sweep_sid, state="done" if result.ok else "failed")
    obs.status_tick(pending=0, leased=0, force=True)
    return result


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    timeout_s: float | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    manifest_path: str | None = None,
    resume: bool = False,
    cache_dir: str | None = None,
    progress: Callable[[str], None] | None = None,
    obs: "SweepObserver | None" = None,
) -> SweepResult:
    """Execute every cell of ``spec`` on a local pool of ``workers``.

    Always completes: per-cell failures (exceptions, hard crashes,
    timeouts) are retried up to ``max_attempts`` and then recorded as
    failed outcomes.  With ``manifest_path`` set, every final cell state
    is checkpointed; ``resume=True`` loads the manifest and skips cells
    already done (failed cells run again), carrying their recorded
    attempt counts through to the outcomes.  With ``cache_dir`` set,
    completed payloads are memoized by cell fingerprint and unchanged
    cells are served from the cache without spawning any worker.

    ``obs`` carries the journal/status sinks (:mod:`repro.obs`); when
    None, a null observer narrating only to ``progress`` is used and
    the sweep's outputs are byte-identical to pre-observability runs.
    """
    workers = max(1, int(workers))
    return _sweep(
        spec, (), workers=workers, manifest_path=manifest_path,
        resume=resume, cache_dir=cache_dir, progress=progress, obs=obs,
        timeout_s=timeout_s, max_attempts=max(1, int(max_attempts)),
    )


def run_remote_sweep(
    spec: SweepSpec,
    hosts: "str | list[str] | tuple[HostSpec, ...]",
    *,
    workers: int = 1,
    timeout_s: float | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    manifest_path: str | None = None,
    resume: bool = False,
    cache_dir: str | None = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    straggler_factor: float | None = DEFAULT_STRAGGLER_FACTOR,
    connect_timeout_s: float = 10.0,
    reconnect_attempts: int = 1,
    progress: Callable[[str], None] | None = None,
    obs: "SweepObserver | None" = None,
) -> SweepResult:
    """Execute ``spec`` across host agents; always completes.

    Same contract as :func:`run_sweep` — per-cell retry up to
    ``max_attempts``, resumable manifest, result cache, deterministic
    merge — plus the host fault model of the module docstring.
    ``workers`` means what it means for :func:`run_sweep`: the pool
    width of every host entry without a ``:N`` suffix, and of the local
    host the sweep degrades to if every agent dies.
    """
    workers = max(1, int(workers))
    host_specs = parse_hosts(hosts, default_workers=workers)
    if not (math.isfinite(heartbeat_s) and heartbeat_s > 0.0):
        raise ValueError(
            f"--heartbeat-s must be a positive finite number, got {heartbeat_s!r}"
        )
    if not straggler_factor:  # 0 / None both mean "never re-dispatch"
        straggler_factor = None
    elif not math.isfinite(straggler_factor) or straggler_factor < 1.0:
        raise ValueError(
            f"--straggler-factor must be >= 1 (or 0 to disable), "
            f"got {straggler_factor!r}"
        )
    # Fail fast on a non-portable grid — before any agent is started.
    encode_spec(spec)
    return _sweep(
        spec, host_specs, workers=workers, manifest_path=manifest_path,
        resume=resume, cache_dir=cache_dir, progress=progress, obs=obs,
        timeout_s=timeout_s,
        max_attempts=max(1, int(max_attempts)), heartbeat_s=heartbeat_s,
        straggler_factor=straggler_factor,
        connect_timeout_s=connect_timeout_s,
        reconnect_attempts=reconnect_attempts,
    )
