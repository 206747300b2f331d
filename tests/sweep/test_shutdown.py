"""Graceful shutdown: escalating kills, SIGINT-safe sweeps, and the
manifest state they leave behind."""

import os
import signal
import threading
import time

import multiprocessing as mp

import pytest

from repro.sweep import (
    Manifest,
    SweepCell,
    SweepInterrupted,
    SweepSpec,
    run_remote_sweep,
    run_sweep,
)
from repro.sweep.pool import _kill, _worker_main


def _cooperative(path):
    def on_term(_signo, _frame):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("cleaned up")
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    time.sleep(3600.0)


def _stubborn():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(3600.0)


def test_kill_lets_sigterm_cleanup_run(tmp_path):
    """SIGTERM first: a worker with a handler gets its grace window."""
    witness = str(tmp_path / "witness.txt")
    ctx = mp.get_context("fork")
    proc = ctx.Process(target=_cooperative, args=(witness,))
    proc.start()
    time.sleep(0.2)  # let the child install its handler
    _kill(proc, grace_s=2.0)
    assert not proc.is_alive()
    assert os.path.exists(witness)


def test_worker_exits_when_its_forker_died_before_it_started():
    """A worker whose parent was killed while it was still starting up is
    already re-parented when it first looks: it must still notice and
    exit instead of idling forever on a pipe it holds both ends of."""
    ours, theirs = mp.Pipe()
    gone = os.getppid() + 1  # any pid other than the actual parent
    start = time.monotonic()
    _worker_main((), theirs, gone)
    assert time.monotonic() - start < 5.0
    assert not ours.poll(0.0)  # exited without a result


def test_kill_escalates_on_sigterm_deaf_process():
    """A process that ignores SIGTERM is SIGKILLed after the grace."""
    ctx = mp.get_context("fork")
    proc = ctx.Process(target=_stubborn)
    proc.start()
    time.sleep(0.2)
    start = time.monotonic()
    _kill(proc, grace_s=0.3)
    assert not proc.is_alive()
    assert time.monotonic() - start < 5.0
    assert proc.exitcode == -signal.SIGKILL


def test_kill_reaps_already_dead_process():
    ctx = mp.get_context("fork")
    proc = ctx.Process(target=lambda: None)
    proc.start()
    proc.join(5.0)
    _kill(proc, grace_s=0.1)  # must not raise or hang
    assert proc.exitcode == 0


def test_sigint_flushes_manifest_and_raises(tmp_path):
    """First SIGINT: stop dispatching, record in-flight cells as pending,
    raise SweepInterrupted; a later --resume run finishes the job."""
    manifest = str(tmp_path / "m.json")
    cells = tuple(
        SweepCell(f"s{i}", "flaky",
                  {"mode": "sleep", "sleep_s": 0.4, "payload": f"p{i}"})
        for i in range(4)
    )
    spec = SweepSpec("interruptible", cells)

    def interrupt_soon():
        time.sleep(0.6)  # mid-sweep: some cells done, some in flight
        os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=interrupt_soon, daemon=True).start()
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(spec, workers=1, manifest_path=manifest)
    message = str(excinfo.value)
    assert "manifest flushed" in message and "--resume" in message

    book = Manifest.load(manifest, spec)
    assert 0 < len(book.completed) < len(cells)  # partial progress kept

    resumed = run_sweep(spec, workers=1, manifest_path=manifest, resume=True)
    assert resumed.ok
    assert [o.payload for o in resumed.outcomes] == [
        f"p{i}" for i in range(4)
    ]


def _processes_with_env(token):
    """Pids whose environment carries ``token`` (agents and their workers
    inherit the driver's environment)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if token in fh.read():
                    found.append(int(entry))
        except OSError:
            pass
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("kill_agent", [False, True])
def test_remote_sweep_leaves_no_agents_or_reader_threads(
        monkeypatch, tmp_path, kill_agent):
    """A finished remote sweep must not leak: within 2 s of returning, no
    agent (or agent worker) process and no driver reader thread is left —
    not even the workers of an agent SIGKILLed mid-sweep."""
    token = f"sweep-leak-probe-{os.getpid()}-{time.monotonic_ns()}"
    monkeypatch.setenv("REPRO_TEST_LEAK_PROBE", token)
    cells = [
        SweepCell(f"c{i}", "flaky",
                  {"mode": "sleep", "sleep_s": 0.05, "payload": f"p{i}"})
        for i in range(4)
    ]
    if kill_agent:
        cells.insert(1, SweepCell("killer", "flaky", {
            "mode": "kill-agent", "marker": str(tmp_path / "killed"),
            "payload": "recovered",
        }))
    result = run_remote_sweep(SweepSpec("leak", tuple(cells)), "loopback:2",
                              heartbeat_s=0.3)
    assert result.ok
    deadline = time.monotonic() + 2.0
    while True:
        survivors = _processes_with_env(token.encode())
        readers = [t.name for t in threading.enumerate()
                   if t.name.startswith("sweep-reader")]
        if (not survivors and not readers) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert survivors == [] and readers == []
