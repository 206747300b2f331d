"""The YCSB phases' column batches match the per-op reference stream.

Each YCSB phase builds one column batch per block of operations, with
every per-op step -- operation kind, keyspace growth, zipfian rank, key,
slab layout and the CPU-cache draws of the metadata probes -- done as a
column operation.  The reference below is the per-operation generator
the phases used to be: one store call and one :class:`PageAccess` per
touch, a scalar cache draw per non-last metadata probe.  The derived
``accesses()`` stream must equal it row for row, and ``run_workload``
must give the same results on the array driver as on the
``batch=False`` scalar oracle.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pytest

from repro.experiments.common import EVALUATED_POLICIES, run_ycsb_sequence, scaled_config
from repro.faults.plan import CopyFailures, FaultPlan, PmSlowdown
from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import SimulationConfig
from repro.sim.rng import make_rng
from repro.workloads import ycsb
from repro.workloads.base import PageAccess
from repro.workloads.motivation import MotivationWorkload
from repro.workloads.ycsb import (
    EXECUTION_SEQUENCE,
    MAX_SCAN_LENGTH,
    WORKLOAD_MIXES,
    YCSBPhase,
    YCSBSession,
)

CONFIG = SimulationConfig(dram_pages=(256,), pm_pages=(4096,))

# -- the per-operation reference stream ---------------------------------


def reference_load(session: YCSBSession, process) -> Iterator[PageAccess]:
    for key in range(session.n_records):
        touches = session.store.insert(key)
        session.next_key = key + 1
        last = len(touches) - 1
        for i, touch in enumerate(touches):
            yield PageAccess(
                process,
                touch.vpage,
                is_write=touch.is_write,
                lines=touch.lines,
                op_boundary=(i == last),
            )


def reference_phase(phase: YCSBPhase, process) -> Iterator[PageAccess]:
    session = phase.session
    store = session.store
    rng = make_rng(session.seed, f"ycsb-{phase.label}")
    mix = phase.mix
    thresholds = np.cumsum([mix.read, mix.update, mix.insert, mix.rmw, mix.scan])
    emitted = 0
    while emitted < phase.ops:
        batch = min(2048, phase.ops - emitted)
        op_draw = rng.random(batch)
        rank_draw = rng.random(batch)
        hit_rate = session.hash_cache_hit_rate
        for i in range(batch):
            touches = _one_op(phase, rng, op_draw[i], rank_draw[i], thresholds)
            last = len(touches) - 1
            for j, touch in enumerate(touches):
                is_hash_probe = touch.vpage < store.data_base
                if is_hash_probe and j != last and rng.random() < hit_rate:
                    continue  # bucket served from the CPU cache
                yield PageAccess(
                    process,
                    touch.vpage,
                    is_write=touch.is_write,
                    lines=touch.lines,
                    op_boundary=(j == last),
                )
        emitted += batch


def _one_op(phase, rng, op_p, rank_p, thresholds) -> list:
    session = phase.session
    store = session.store
    if op_p < thresholds[0]:
        return store.read(_pick_key(phase, rank_p))
    if op_p < thresholds[1]:
        return store.update(_pick_key(phase, rank_p))
    if op_p < thresholds[2]:
        key = session.next_key
        if key >= session.max_records:
            return store.update(session.next_key - 1)
        session.next_key = key + 1
        return store.insert(key)
    if op_p < thresholds[3]:
        return store.read_modify_write(_pick_key(phase, rank_p))
    length = int(rng.integers(1, MAX_SCAN_LENGTH + 1))
    return store.scan(_pick_key(phase, rank_p), length)


def _pick_key(phase, rank_p) -> int:
    session = phase.session
    n = session.next_key
    rank = phase._zipf_rank(rank_p, n)
    if phase.mix.distribution == "latest":
        return n - 1 - rank
    return int(session._key_of_rank[rank] % n)


# -- stream equality -------------------------------------------------------


def _rows(accesses) -> list[tuple]:
    return [(a.vpage, a.is_write, a.lines, a.op_boundary) for a in accesses]


def _session(backend: str, seed: int, **kwargs) -> tuple[YCSBSession, object]:
    session = YCSBSession(600, value_size=512, seed=seed, backend=backend, **kwargs)
    return session, session.ensure_setup(Machine(CONFIG, "static"))


def _assert_streams_equal(backend, seed, phases, ops, **kwargs):
    derived, __ = _session(backend, seed, **kwargs)
    reference, ref_process = _session(backend, seed, **kwargs)
    machine = Machine(CONFIG, "static")
    load = derived.load_phase()
    load.setup(machine)
    assert _rows(load.accesses()) == _rows(reference_load(reference, ref_process))
    for name in phases:
        phase = derived.phase(name, ops)
        phase.setup(machine)
        got = _rows(phase.accesses())
        want = _rows(reference_phase(reference.phase(name, ops), ref_process))
        assert got == want, name
        assert derived.next_key == reference.next_key, name
        assert derived.store.n_records == reference.store.n_records, name


@pytest.mark.parametrize("seed", [1, 2, 42])
def test_memcached_stream_matches_reference(seed):
    # 2500 ops: one full block and a partial one.
    _assert_streams_equal("memcached", seed, ("A", "B", "C", "F", "W", "D"), 2500)


@pytest.mark.parametrize("seed", [1, 2, 42])
def test_sorted_stream_matches_reference(seed):
    _assert_streams_equal("sorted", seed, ("A", "B", "C", "D", "E", "F", "W"), 2500)


def test_d_past_its_insert_headroom_matches_reference():
    session, __ = _session("memcached", 3, insert_headroom=0.01)
    assert session.max_records - session.n_records == 6
    _assert_streams_equal("memcached", 3, ("D", "D"), 3000, insert_headroom=0.01)


def test_load_twice_reinserts_as_updates():
    """A second load finds every key present: each insert is an update."""
    derived, __ = _session("memcached", 5)
    reference, ref_process = _session("memcached", 5)
    machine = Machine(CONFIG, "static")
    for __ in range(2):
        load = derived.load_phase()
        load.setup(machine)
        assert _rows(load.accesses()) == _rows(reference_load(reference, ref_process))
    assert derived.store.n_records == reference.store.n_records == 600


# -- zipfian ranks ----------------------------------------------------------


def _phase(n_records: int = 4500) -> YCSBPhase:
    return YCSBSession(n_records).phase("C", ops=1)


@pytest.mark.parametrize("n", [300, 3000, 3150, 4500])
def test_vector_ranks_equal_scalar_ranks(n):
    phase = _phase()
    p = make_rng(n, "ranks").random(50_000)
    ranks = phase._zipf_ranks(p, np.full(len(p), n))
    assert ranks.tolist() == [phase._zipf_rank(q, n) for q in p.tolist()]


def test_vector_ranks_over_a_growing_keyspace():
    phase = _phase()
    n = np.repeat(np.arange(1, 401), 25)
    p = make_rng(7, "ranks").random(len(n))
    ranks = phase._zipf_ranks(p, n)
    assert ranks.tolist() == [phase._zipf_rank(q, m) for q, m in zip(p.tolist(), n.tolist())]


def test_near_integer_products_are_recomputed(monkeypatch):
    """A power a hair below libm's flips the truncation of any product
    just above an integer; the guard must recompute those exactly."""
    phase = _phase()
    n = 3000
    theta = ycsb.ZIPFIAN_CONSTANT
    alpha = 1.0 / (1.0 - theta)
    zetan = phase.session.zeta.upto(n)
    eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - (1.0 + 0.5**theta) / zetan)

    def product(q: float) -> float:
        return n * (eta * q - eta + 1) ** alpha

    forced = []
    for target in range(40, 2000, 7):
        # Solve for the draw whose product is `target`, then step it up
        # one ulp at a time to the first product at or past the integer.
        q = ((target / n) ** (1 / alpha) - 1 + eta) / eta
        for __ in range(10_000):
            if product(q) >= target:
                break
            q = float(np.nextafter(q, 1.0))
        if target <= product(q) < target * (1 + 5e-13):
            forced.append(q)
    assert len(forced) > 20

    true_power = np.power
    monkeypatch.setattr(np, "power", lambda x, y: true_power(x, y) * (1 - 1e-12))
    # Without the guard every forced draw would truncate one rank low.
    assert all(
        int(n * (eta * q - eta + 1) ** alpha * (1 - 1e-12)) == int(product(q)) - 1
        for q in forced
    )
    ranks = phase._zipf_ranks(np.array(forced), np.full(len(forced), n))
    assert ranks.tolist() == [phase._zipf_rank(q, n) for q in forced]


# -- run results: array driver vs the scalar oracle -----------------------


def _config(session: YCSBSession):
    footprint = session.footprint_pages()
    return scaled_config(
        dram_pages=max(64, footprint // 3),
        pm_pages=footprint * 4,
        interval_s=0.01,
        scan_budget_pages=32,
    )


def _oracle_sequence(policy, config, *, n_records, ops_per_phase, seed, armed=False):
    """run_ycsb_sequence, every phase on the batch=False scalar oracle."""
    machine = Machine(config, policy)
    if armed:
        _arm(machine)
    session = YCSBSession(n_records, seed=seed)
    results = {"load": run_workload(session.load_phase(), config, machine=machine, batch=False)}
    for name in EXECUTION_SEQUENCE:
        results[name] = run_workload(
            session.phase(name, ops=ops_per_phase), config, machine=machine, batch=False
        )
    return {label: result.to_dict() for label, result in results.items()}


def _arm(machine: Machine) -> None:
    machine.enable_tracing(capacity_per_node=1 << 16)
    machine.enable_metrics()
    machine.enable_memcg()
    machine.install_faults(
        FaultPlan(
            seed=3,
            events=(
                CopyFailures(start_s=0.0, end_s=30.0, rate=0.3),
                PmSlowdown(start_s=0.0005, end_s=0.002, multiplier=2.5),
            ),
        )
    )


@pytest.mark.parametrize("policy", EVALUATED_POLICIES + ("memory-mode",))
def test_sequence_on_array_driver_matches_scalar_oracle(policy):
    sizes = {"n_records": 1500, "ops_per_phase": 2500, "seed": 11}
    config = _config(YCSBSession(sizes["n_records"]))
    fast = run_ycsb_sequence(policy, config, **sizes)
    assert {label: r.to_dict() for label, r in fast.items()} == _oracle_sequence(
        policy, config, **sizes
    )
    if policy in ("multiclock", "nimble"):
        assert sum(r.demotions for r in fast.values()) > 0
        assert sum(r.promotions for r in fast.values()) > 0


def test_armed_sequence_on_array_driver_matches_scalar_oracle(monkeypatch):
    sizes = {"n_records": 1500, "ops_per_phase": 2500, "seed": 11}
    config = _config(YCSBSession(sizes["n_records"]))
    original = Machine.__init__

    def armed_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        _arm(self)

    monkeypatch.setattr(Machine, "__init__", armed_init)
    fast = run_ycsb_sequence("multiclock", config, **sizes)
    monkeypatch.setattr(Machine, "__init__", original)
    oracle = _oracle_sequence("multiclock", config, armed=True, **sizes)
    assert {label: r.to_dict() for label, r in fast.items()} == oracle
    assert sum(r["counters"].get("migrate.failed_copy", 0) for r in oracle.values()) > 0


def test_phase_accesses_is_derived_from_the_batches():
    for cls in (ycsb.YCSBLoadPhase, YCSBPhase, MotivationWorkload):
        assert "accesses" not in vars(cls), cls


def test_motivation_stream_is_its_trace():
    """One read of each traced page, every access an operation."""
    workload = MotivationWorkload("rubis", pages=300, segments=4, ops_per_segment=500)
    workload.setup(Machine(CONFIG, "static"))
    assert _rows(workload.accesses()) == [
        (vpage, False, workload.lines, True) for __, vpage in workload.trace()
    ]


@pytest.mark.parametrize("policy", ["static", "multiclock", "autotiering-opm"])
def test_motivation_on_array_driver_matches_scalar_oracle(policy):
    def run(batch: bool) -> dict:
        workload = MotivationWorkload("xalan", pages=600, segments=6, ops_per_segment=1500)
        config = scaled_config(dram_pages=150, pm_pages=2400, interval_s=0.01)
        return run_workload(workload, config, policy, batch=batch).to_dict()

    fast = run(True)
    assert fast == run(False)
    assert fast["operations"] == 6 * 1500


def test_mix_thresholds_follow_the_scalar_chain():
    """Every mix's kinds agree with the reference's comparison chain."""
    p = make_rng(0, "kinds").random(20_000)
    for mix in WORKLOAD_MIXES.values():
        thresholds = np.cumsum([mix.read, mix.update, mix.insert, mix.rmw, mix.scan])
        kinds = np.minimum(np.searchsorted(thresholds, p, side="right"), ycsb.SCAN)
        chain = [next((k for k, t in enumerate(thresholds[:4]) if q < t), 4) for q in p]
        assert kinds.tolist() == chain
