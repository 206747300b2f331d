"""Agent hosts: ``--hosts`` parsing, the agent transport, ``sweep-agent``.

A distributed sweep (:func:`repro.sweep.scheduler.run_remote_sweep`)
leases cells to **host agents**.  Each agent is a ``repro sweep-agent``
process — reached over a transport (a local subprocess for the loopback
kind, an ssh subprocess for remote hosts) — that runs cells on its own
:class:`~repro.sweep.pool.WorkerPool` and speaks a newline-delimited
JSON protocol of :mod:`~repro.sweep.wire` envelopes:

========== =========== ====================================================
direction  kind        body
========== =========== ====================================================
agent →    ``hello``   ``{host, pid, workers}`` — first line after start
driver →   ``spec``    the whole grid (fingerprinted) + ``heartbeat_s``
agent →    ``spec-ack``  ``{fingerprint}`` — must match the driver's
driver →   ``lease``   ``{lease, cell}`` — run one cell
agent →    ``heartbeat`` ``{busy: [lease ids], done}`` — every interval
agent →    ``result``  ``{lease, cell, ok, payload | error}``
agent →    ``journal`` ``{events}`` — buffered spans, journal mode only
driver →   ``cancel``  ``{lease}`` — kill that lease's worker
driver →   ``shutdown``  drain and exit
========== =========== ====================================================

Neither side runs a reader thread: both frame their end of the pipe
with :class:`LineReader` and wait on it in the same
``connection.wait`` as their worker pipes.  The driver-side fault model
(leases, heartbeats, re-dispatch) lives in the scheduler.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from multiprocessing import connection
from typing import Any

from repro.sweep.pool import WorkerPool
from repro.sweep.wire import (
    WireError,
    decode_envelope,
    decode_spec,
    encode_envelope,
)

__all__ = [
    "HostSpec",
    "HostOutcome",
    "parse_hosts",
    "agent_main",
    "DEFAULT_HEARTBEAT_S",
]

DEFAULT_HEARTBEAT_S = 5.0


# --------------------------------------------------------------------------
# Host descriptions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One entry of ``--hosts``: where an agent runs and how wide it is."""

    name: str  # unique display name (``loopback#1``, ``user@h1``)
    kind: str  # "loopback" | "ssh"
    target: str  # ssh destination; "" for loopback
    workers: int  # agent-side pool width


def parse_hosts(hosts: "str | list[str] | tuple[HostSpec, ...]",
                *, default_workers: int = 1) -> tuple[HostSpec, ...]:
    """Parse a ``--hosts`` value into :class:`HostSpec` entries.

    Each comma-separated entry is ``loopback`` (an agent subprocess on
    this machine — the CI/test transport) or ``[user@]host`` (an agent
    over ssh), optionally suffixed ``:N`` for the agent's worker count.
    Garbage entries — empty strings, a non-integer worker suffix, or
    shell metacharacters in an ssh target — are operator errors reported
    as one-line ``ValueError``\\ s.
    """
    if isinstance(hosts, tuple) and all(isinstance(h, HostSpec) for h in hosts):
        return hosts
    entries = (
        [e.strip() for e in hosts.split(",")] if isinstance(hosts, str)
        else [str(e).strip() for e in hosts]
    )
    if not entries or all(not e for e in entries):
        raise ValueError("--hosts is empty; give loopback or [user@]host entries")
    specs: list[HostSpec] = []
    counts: dict[str, int] = {}
    for entry in entries:
        if not entry:
            raise ValueError(
                f"--hosts has an empty entry in {','.join(entries)!r}"
            )
        target, _, suffix = entry.partition(":")
        workers = default_workers
        if suffix:
            try:
                workers = int(suffix)
            except ValueError:
                raise ValueError(
                    f"bad --hosts entry {entry!r}: worker suffix {suffix!r} "
                    f"is not an integer"
                ) from None
            if workers < 1:
                raise ValueError(
                    f"bad --hosts entry {entry!r}: worker count must be >= 1"
                )
        if target == "loopback":
            kind = "loopback"
        else:
            kind = "ssh"
            if not target or any(c in target for c in " \t;|&$`'\"(){}<>\\"):
                raise ValueError(
                    f"bad --hosts entry {entry!r}: {target!r} is not a "
                    f"plausible ssh destination"
                )
        n = counts.get(target, 0)
        counts[target] = n + 1
        name = target if kind == "ssh" and n == 0 else f"{target}#{n}"
        specs.append(HostSpec(name=name, kind=kind, target=target, workers=workers))
    return tuple(specs)


@dataclass
class HostOutcome:
    """What one host contributed to (and suffered during) a sweep."""

    host: str
    state: str  # "ok" | "dead" | "unused"
    done: int = 0
    failed: int = 0
    reconnects: int = 0
    duplicates_discarded: int = 0
    error: str = ""
    #: Heartbeat round-trip health, for the ``<out>.hosts.json`` sidecar:
    #: how many beats arrived, the widest observed gap between two, and
    #: how stale the last one was when the sweep finished (None if the
    #: host never beat at all).
    heartbeats: int = 0
    max_heartbeat_gap_s: float = 0.0
    last_heartbeat_age_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# --------------------------------------------------------------------------
# Line framing and the transport: how the driver reaches an agent
# --------------------------------------------------------------------------


class LineReader:
    """Non-blocking newline framing over a raw pipe fd.

    Both ends of the envelope protocol read through one of these — the
    agent its stdin, the driver each agent's stdout — and wait on it in
    the same ``connection.wait`` as their worker pipes (it has a
    ``fileno``).  That is why neither side needs a reader thread, and
    the agent must not have one: a thread blocked in
    ``sys.stdin.readline()`` would hold the buffered reader's lock
    across the pool's ``fork()``, and the forked worker's
    multiprocessing bootstrap then closes ``sys.stdin`` and deadlocks on
    that never-to-be-released lock.
    """

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.buffer = b""
        self.eof = False
        os.set_blocking(fd, False)

    def fileno(self) -> int:
        return self.fd

    def drain(self) -> list[str | None]:
        """Complete lines available now; ``None`` marks the peer's EOF."""
        lines: list[str | None] = []
        while not self.eof:
            try:
                chunk = os.read(self.fd, 1 << 16)
            except BlockingIOError:
                break
            except OSError:
                chunk = b""
            if not chunk:
                self.eof = True
                break
            self.buffer += chunk
        while b"\n" in self.buffer:
            raw, self.buffer = self.buffer.split(b"\n", 1)
            lines.append(raw.decode("utf-8", errors="replace"))
        if self.eof:
            lines.append(None)
        return lines


class _AgentTransport:
    """A live agent subprocess: envelope lines in on stdin, out on stdout.

    The loopback kind starts ``repro sweep-agent`` on this machine with
    the driver's interpreter and PYTHONPATH — the in-machine stand-in
    used by tests and CI.  The ssh kind runs the same command on a
    remote host through ``ssh -o BatchMode=yes`` (key-based auth only;
    an agent must never hang on a password prompt).
    """

    def __init__(self, host: HostSpec) -> None:
        if host.kind == "loopback":
            repro_root = os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))
            )
            src_dir = os.path.dirname(repro_root)
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src_dir, env.get("PYTHONPATH")) if p
            )
            argv = [
                sys.executable, "-m", "repro", "sweep-agent",
                "--workers", str(host.workers),
            ]
        else:
            argv = [
                "ssh", "-o", "BatchMode=yes", "-o", "ConnectTimeout=10",
                host.target,
                f"python3 -m repro sweep-agent --workers {host.workers}",
            ]
            env = None
        # Agent chatter (tracebacks, ssh banners) is dropped; stdout is
        # the protocol channel and must stay clean.
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        assert self.proc.stdout is not None
        self.reader = LineReader(self.proc.stdout.fileno())

    def send_line(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line.encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def hang_up(self) -> None:
        """Close the agent's stdin: its EOF means "driver gone, exit"."""
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
        except OSError:
            pass

    def close(self, grace_s: float = 2.0) -> None:
        """Hang up, then give the agent ``grace_s`` to exit on its own.

        The wait is what lets the agent's ``finally`` stop its workers:
        signalling it straight away killed the agent first, and its
        forked workers — still holding their own pipe ends — then
        blocked in ``recv()`` forever.  Only an agent that ignores its
        EOF past the grace window is terminated, then killed.
        """
        self.hang_up()
        for stop in (None, self.proc.terminate, self.proc.kill):
            if stop is not None:
                stop()
            try:
                self.proc.wait(grace_s)
                break
            except subprocess.TimeoutExpired:
                pass
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# --------------------------------------------------------------------------
# Agent side
# --------------------------------------------------------------------------


def agent_main(workers: int = 1) -> int:
    """``repro sweep-agent``: serve one driver over stdin/stdout.

    Speaks the envelope protocol described in the module docstring.
    Exits 0 on a clean ``shutdown`` (or driver EOF — an orphaned agent
    must not outlive its sweep), 2 on a protocol error before the spec
    was accepted.
    """
    out = sys.stdout

    def emit(kind: str, body: dict[str, Any]) -> None:
        out.write(encode_envelope(kind, body) + "\n")
        out.flush()

    emit("hello", {
        "host": os.uname().nodename if hasattr(os, "uname") else "unknown",
        "pid": os.getpid(),
        "workers": max(1, int(workers)),
    })
    spec_line = sys.stdin.readline()  # still blocking: nothing to fork yet
    if not spec_line:
        return 2
    try:
        spec, extras = decode_spec(spec_line.rstrip("\n"))
    except WireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    heartbeat_s = float(extras.get("heartbeat_s", DEFAULT_HEARTBEAT_S))
    emit("spec-ack", {"fingerprint": spec.fingerprint()})

    # Workers inherit this and use it to tell "I run under an agent"
    # apart from the driver's own local host (see the flaky kill-agent
    # mode).
    os.environ["REPRO_SWEEP_AGENT"] = "1"
    pool = WorkerPool(spec.cells, max(1, int(workers)))
    stdin = LineReader(sys.stdin.fileno())

    # Journal mode (spec extras carry the driver's request): buffer
    # begin/end events for this agent's cell.run spans and ship them as
    # `journal` envelopes.  The driver namespaces actors and sids by
    # host on receipt; a SIGKILLed agent simply never flushes its last
    # buffer, and the driver synthesises the missing ends at close.
    journal_on = bool(extras.get("journal"))
    journal_events: list[dict[str, Any]] = []
    open_spans: dict[str, tuple[str, str, str]] = {}  # lease -> (sid, actor, cell)
    span_seq = 0

    def flush_journal() -> None:
        if journal_events:
            emit("journal", {"events": list(journal_events)})
            journal_events.clear()

    def span_begin(lease_id: str, cell_id: str, pid: int,
                   attempt: Any) -> None:
        nonlocal span_seq
        if not journal_on:
            return
        span_seq += 1
        sid = f"a{span_seq}"
        actor = f"worker/{pid}"
        open_spans[lease_id] = (sid, actor, cell_id)
        event: dict[str, Any] = {
            "ev": "begin", "span": "cell.run", "sid": sid, "actor": actor,
            "cell": cell_id, "lease": lease_id, "t": time.time(),
        }
        if attempt is not None:
            event["fields"] = {"attempt": attempt}
        journal_events.append(event)
        # On the wire BEFORE the cell starts: a cell that SIGKILLs this
        # agent must never outrace its own begin event to the driver.
        flush_journal()

    def span_end(lease_id: str, **fields: Any) -> None:
        entry = open_spans.pop(lease_id, None)
        if entry is None:
            return
        sid, actor, cell_id = entry
        journal_events.append({
            "ev": "end", "span": "cell.run", "sid": sid, "actor": actor,
            "cell": cell_id, "lease": lease_id, "t": time.time(),
            "fields": fields,
        })

    lease_cells: dict[str, str] = {}
    # Heartbeats at half the driver's interval: one drop never kills us.
    beat_every = max(0.05, heartbeat_s / 2.0)
    next_beat = time.monotonic() + beat_every
    try:
        while True:
            timeout = max(0.0, min(beat_every, next_beat - time.monotonic()))
            connection.wait([stdin, *pool.waitables()], timeout=timeout)
            for command in stdin.drain():
                if command is None:
                    return 0  # driver went away; die with it
                try:
                    kind, body = decode_envelope(command)
                except WireError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    continue
                if kind == "shutdown":
                    # Flush any ends buffered in this drain batch (a
                    # cancel riding with the shutdown) before exiting,
                    # or they would surface as synthetic aborted ends.
                    flush_journal()
                    return 0
                if kind == "lease":
                    lease_id = str(body["lease"])
                    cell_id = str(body["cell"])
                    if cell_id not in pool.index_of:
                        emit("result", {
                            "lease": lease_id, "cell": cell_id, "ok": False,
                            "error": f"agent does not know cell {cell_id!r}",
                        })
                        continue
                    lease_cells[lease_id] = cell_id
                    pool.submit(
                        lease_id, cell_id,
                        lambda pid: span_begin(lease_id, cell_id, pid,
                                               body.get("attempt")),
                    )
                elif kind == "cancel":
                    lease_id = str(body["lease"])
                    pool.cancel(lease_id)
                    lease_cells.pop(lease_id, None)
                    span_end(lease_id, ok=False, cancelled=True)
            for lease_id, blob in pool.poll():
                ok = bool(blob.get("ok"))
                if "compute_s" in blob:
                    span_end(lease_id, ok=ok, compute_s=blob["compute_s"])
                else:
                    span_end(lease_id, ok=ok, error=blob.get("error", ""))
                # Journal before result: the driver may stop reading
                # the moment the last result settles the sweep, and
                # the pipe preserves order — so the span's real end
                # always lands before the result that retires it.
                flush_journal()
                emit("result", {
                    "lease": lease_id,
                    "cell": lease_cells.pop(lease_id, "?"),
                    "ok": ok,
                    "payload": blob.get("payload"),
                    "error": blob.get("error", ""),
                })
            flush_journal()
            now = time.monotonic()
            if now >= next_beat:
                emit("heartbeat", {
                    "busy": sorted(pool.busy), "done": pool.done,
                })
                next_beat = now + beat_every
    except (BrokenPipeError, OSError):
        return 0  # driver pipe gone mid-write
    finally:
        pool.shutdown()
