"""Unit tests for trace recording and replay."""

import json

import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.trace import TraceRecorder, TraceReplayWorkload
from repro.workloads.synthetic import ZipfWorkload

CONFIG = SimulationConfig(dram_pages=(128,), pm_pages=(512,))


def record(tmp_path, workload=None):
    path = tmp_path / "trace.txt"
    inner = workload or ZipfWorkload(pages=100, ops=300, seed=4, write_ratio=0.3)
    recorder = TraceRecorder(inner, path)
    result = run_workload(recorder, CONFIG, policy="static")
    return path, result


def test_record_produces_header_and_lines(tmp_path):
    path, result = record(tmp_path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["version"] == 1
    assert header["workload"] == "zipf"
    assert len(header["processes"]) == 1
    assert len(lines) - 1 == result.accesses == 300


def test_replay_reproduces_the_run(tmp_path):
    path, original = record(tmp_path)
    replay = TraceReplayWorkload(path)
    replayed = run_workload(replay, CONFIG, policy="static")
    assert replayed.accesses == original.accesses
    assert replayed.operations == original.operations
    # Same accesses on the same config and policy: identical timing.
    assert replayed.elapsed_ns == original.elapsed_ns


def test_replay_on_a_different_policy(tmp_path):
    path, __ = record(tmp_path)
    replayed = run_workload(TraceReplayWorkload(path), CONFIG, policy="multiclock")
    assert replayed.policy == "multiclock"
    assert replayed.accesses == 300


def test_replay_footprint_from_header(tmp_path):
    path, __ = record(tmp_path)
    assert TraceReplayWorkload(path).footprint_pages() == 100


def test_replay_preserves_write_flags(tmp_path):
    path, __ = record(tmp_path)
    replay = TraceReplayWorkload(path)
    machine = Machine(CONFIG, "static")
    replay.setup(machine)
    writes = sum(1 for access in replay.accesses() if access.is_write)
    assert 0 < writes < 300


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text('{"version": 99, "processes": []}\n')
    with pytest.raises(ValueError, match="version"):
        TraceReplayWorkload(path)


def replay_of(tmp_path, body):
    """A set-up replay of a one-process trace whose access lines are ``body``."""
    path = tmp_path / "bad.txt"
    path.write_text(
        '{"version": 1, "processes": [{"name": "p", "home_socket": 0, '
        '"regions": [[0, 10, true, false]]}]}\n' + "".join(body)
    )
    replay = TraceReplayWorkload(path)
    replay.setup(Machine(CONFIG, "static"))
    return replay


def test_malformed_line_reports_location(tmp_path):
    replay = replay_of(tmp_path, ["0 5 r 1 -\n", "garbage\n"])
    with pytest.raises(ValueError, match=":3"):
        list(replay.accesses())


def test_malformed_line_past_the_first_chunk_reports_location(tmp_path):
    from repro.workloads.trace import _CHUNK

    bad_line = _CHUNK + 200  # file line numbers count the header as line 1
    body = ["0 5 r 1 -\n"] * (bad_line - 2) + ["0 5 r\n"] + ["0 5 r 1 -\n"] * 10
    with pytest.raises(ValueError, match=f":{bad_line}: malformed"):
        list(replay_of(tmp_path, body).accesses())


def test_negative_process_index_is_malformed(tmp_path):
    replay = replay_of(tmp_path, ["0 5 r 1 -\n", "-1 5 r 1 -\n"])
    with pytest.raises(ValueError, match=":3: malformed"):
        list(replay.accesses())


def test_dual_socket_multitenant_round_trip(tmp_path):
    """Two tenants pinned one per socket: the replay reproduces the
    recorded run's result exactly, counters included."""
    from repro.workloads.multitenant import MultiTenantWorkload
    from repro.workloads.synthetic import UniformWorkload

    dual = SimulationConfig(
        dram_pages=(32, 32),
        pm_pages=(256, 256),
        sockets=2,
        daemons=DaemonConfig(kpromoted_interval_s=0.001, kswapd_interval_s=0.001),
        seed=3,
    )
    tenants = [
        ZipfWorkload(pages=200, ops=3000, seed=5, write_ratio=0.3),
        UniformWorkload(pages=60, ops=1500, seed=6, write_ratio=0.1),
    ]
    workload = MultiTenantWorkload(tenants, home_sockets=[0, 1], batch=40)
    path = tmp_path / "dual.trace"
    recorded = run_workload(TraceRecorder(workload, path), dual, policy="multiclock")
    replayed = run_workload(TraceReplayWorkload(path), dual, policy="multiclock")
    assert recorded.counters["accesses.remote"] > 0
    assert recorded.promotions > 0
    expected = recorded.to_dict()
    got = replayed.to_dict()
    assert got.pop("workload") == "replay[" + expected.pop("workload")[len("record["):]
    assert got == expected
