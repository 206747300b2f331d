"""Failure paths of the distributed sweep: hosts dying mid-cell,
duplicate results, full-fleet loss, and operator mistakes."""

from collections import deque

import pytest

from repro.sweep import (
    Manifest,
    SweepCell,
    SweepSpec,
    parse_hosts,
    run_remote_sweep,
    run_sweep,
)
from repro.obs import SweepObserver
from repro.sweep.scheduler import _LocalHost, _Lease, _Scheduler


def sleepy_cells(n, prefix="c", sleep_s=0.05):
    return [
        SweepCell(f"{prefix}{i}", "flaky",
                  {"mode": "sleep", "sleep_s": sleep_s, "payload": f"p{i}"})
        for i in range(n)
    ]


def test_agent_killed_mid_sweep_heals(tmp_path):
    """SIGKILLing one agent mid-cell must not lose the sweep: the cell is
    re-dispatched (straggler duplicate or host-loss requeue) and the
    merged result stays identical to the sequential run."""
    marker = str(tmp_path / "killed.marker")
    cells = sleepy_cells(8)
    cells.insert(3, SweepCell("killer", "flaky",
                              {"mode": "kill-agent", "marker": marker,
                               "payload": "recovered"}))
    spec = SweepSpec("faulty", tuple(cells))
    sequential = run_sweep(spec, workers=1)
    remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.5,
                              reconnect_attempts=2)
    assert remote.ok
    assert remote.payloads() == sequential.payloads()
    assert [o.cell.id for o in remote.outcomes] == [
        o.cell.id for o in sequential.outcomes
    ]


def test_heartbeat_loss_requeues_and_reconnects(tmp_path):
    """With straggler rescue off, the driver must detect the dead agent
    by heartbeat silence, requeue its lease, and reconnect the host."""
    marker = str(tmp_path / "killed.marker")
    cells = sleepy_cells(6)
    cells.insert(2, SweepCell("killer", "flaky",
                              {"mode": "kill-agent", "marker": marker,
                               "payload": "recovered"}))
    spec = SweepSpec("silent", tuple(cells))
    sequential = run_sweep(spec, workers=1)
    notes = []
    remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.3,
                              reconnect_attempts=2, straggler_factor=0,
                              progress=notes.append)
    assert remote.ok
    assert remote.payloads() == sequential.payloads()
    assert any("lost mid-cell; re-dispatching" in n for n in notes)
    assert sum(h.reconnects for h in remote.host_outcomes) >= 1


def test_all_hosts_dead_degrades_to_local_pool():
    """A kill-agent cell with no marker murders every agent that leases
    it; with reconnects exhausted the sweep must finish on the local
    pool (where kill-agent is inert) instead of aborting."""
    cells = sleepy_cells(4, prefix="d", sleep_s=0.02)
    cells.insert(0, SweepCell("assassin", "flaky",
                              {"mode": "kill-agent", "payload": "recovered"}))
    spec = SweepSpec("doomed", tuple(cells))
    sequential = run_sweep(spec, workers=1)
    notes = []
    remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.3,
                              reconnect_attempts=0, straggler_factor=0,
                              progress=notes.append)
    assert remote.ok
    assert remote.payloads() == sequential.payloads()
    assert all(h.state == "dead" for h in remote.host_outcomes)
    assert any("degrading to the local pool" in n for n in notes)


def test_duplicate_result_discarded_at_most_once(tmp_path):
    """Unit-level at-most-once: the first result commits, the straggler
    sibling's late result is discarded and counted against its host."""
    cell = SweepCell("dup", "flaky", {"mode": "sleep", "payload": "x"})
    spec = SweepSpec("dups", (cell,))
    scheduler = _Scheduler(
        spec, parse_hosts("loopback,loopback"),
        outcomes={}, pending=deque(), book=Manifest(None, spec), cache=None,
        timeout_s=None, max_attempts=3, heartbeat_s=1.0,
        straggler_factor=None, connect_timeout_s=5.0, reconnect_attempts=0,
    )
    first, second = scheduler.hosts
    for host, lease_id in ((first, "L1"), (second, "L2")):
        lease = _Lease(id=lease_id, cell=cell, attempt=1, host=host,
                       started=0.0)
        scheduler.active[lease_id] = lease
        host.leases[lease_id] = lease
    scheduler._on_result(first, {"lease": "L1", "cell": "dup",
                                 "ok": True, "payload": "committed"})
    scheduler._on_result(second, {"lease": "L2", "cell": "dup",
                                  "ok": True, "payload": "too late"})
    assert scheduler.outcomes["dup"].payload == "committed"
    assert second.outcome.duplicates_discarded == 1
    assert not scheduler.active


@pytest.mark.parametrize("kind", ["local", "loopback"])
def test_redispatch_consults_result_cache(tmp_path, kind):
    """A cell requeued after dispatch began is served from the result
    cache when a fingerprint-identical cell has completed in the
    meantime, instead of being re-executed on a host — the local host
    and an agent host alike."""
    from repro.sweep.manifest import ResultCache
    from repro.sweep.spec import cell_fingerprint

    params = {"mode": "ok", "payload": "shared"}
    first = SweepCell("first", "flaky", params)
    second = SweepCell("second", "flaky", params)  # same fingerprint
    spec = SweepSpec("cache-consult", (first, second))
    cache = ResultCache(str(tmp_path / "cache"))
    # "first" finished elsewhere while "second" sat requeued after a
    # host loss: its payload is cached under the shared fingerprint.
    cache.store(cell_fingerprint(first), cell_id="first", attempts=1,
                payload={"value": 41})

    notes = []
    outcomes = {}
    pending = deque([(second, 1)])
    scheduler = _Scheduler(
        spec, parse_hosts("loopback") if kind == "loopback" else (),
        outcomes=outcomes, pending=pending, book=Manifest(None, spec),
        cache=cache, timeout_s=None, max_attempts=3, heartbeat_s=1.0,
        straggler_factor=None, connect_timeout_s=5.0, reconnect_attempts=0,
        obs=SweepObserver(progress=notes.append),
    )
    if kind == "loopback":
        host = scheduler.hosts[0]
        host.state = "ready"
        host.transport = object()  # must never be used: the cache serves it
    else:
        host = _LocalHost(spec, 1, pending)
        scheduler.hosts.append(host)
    scheduler._dispatch()
    assert scheduler.cache_hits == 1
    assert scheduler.spawned == 0
    assert not pending and not scheduler.active
    assert outcomes["second"].ok and outcomes["second"].cached
    assert outcomes["second"].payload == {"value": 41}
    assert any("served from result cache" in n for n in notes)


def test_unreachable_ssh_host_dies_cleanly():
    """A host that never says hello is dead after its connect timeout;
    the surviving loopback host completes the sweep."""
    spec = SweepSpec("mixed", tuple(sleepy_cells(3, sleep_s=0.02)))
    sequential = run_sweep(spec, workers=1)
    remote = run_remote_sweep(
        spec, "nosuchhost.invalid,loopback", heartbeat_s=0.5,
        connect_timeout_s=2.0, reconnect_attempts=0,
    )
    assert remote.ok
    assert remote.payloads() == sequential.payloads()
    by_name = {h.host: h for h in remote.host_outcomes}
    assert by_name["nosuchhost.invalid"].state == "dead"
    assert by_name["loopback#0"].done == 3


@pytest.mark.parametrize("hosts,fragment", [
    ("", "empty"),
    ("loopback,,loopback", "empty entry"),
    ("loopback:two", "not an integer"),
    ("loopback:0", ">= 1"),
    ("host; rm -rf /", "ssh destination"),
])
def test_bad_hosts_are_one_line_value_errors(hosts, fragment):
    with pytest.raises(ValueError) as excinfo:
        parse_hosts(hosts)
    message = str(excinfo.value)
    assert fragment in message
    assert "\n" not in message


def test_bad_tuning_flags_are_one_line_value_errors():
    spec = SweepSpec("flags", tuple(sleepy_cells(1)))
    with pytest.raises(ValueError, match="heartbeat"):
        run_remote_sweep(spec, "loopback", heartbeat_s=-1.0)
    with pytest.raises(ValueError, match="straggler"):
        run_remote_sweep(spec, "loopback", straggler_factor=0.5)
