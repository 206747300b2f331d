"""Run one benchmark workload against the simulator and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload ycsb --seed 1 --seconds 20 --trace 0

``--trace 0`` times passes of the workload for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` runs rounds of one untraced pass, one
traced pass (and, on ``tiering``, one pass with tracing, metrics and memcg
armed) for ``--seconds`` and reports the per-layer metrics.  Every
simulated run is checked: counter conservation, the invariant checker on
every in-process machine, identical results on every pass, and -- on the
canonical seed -- the digests recorded in ``digests.json``.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from typing import Any, Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# Set-up repeats: at least SETUP_MIN_REPEATS, and more while they fit in
# SETUP_BUDGET_S, so a set-up of a few milliseconds still gets a steady median.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 200
SETUP_BUDGET_S = 1.0
MIN_COVERAGE = 0.95

END_TO_END = {
    "sim_accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_s": "s",
    "dram_access_fraction": "ratio",
}


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A loopback sweep agent's forked workers outlive the agent when the
    driver kills it; as a subreaper this process becomes their parent,
    so :func:`reap_children` can stop them.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_children() -> int:
    """SIGKILL and wait for every child process; return how many there were.

    Called only between cells, when no child should be running.
    """
    me = os.getpid()
    reaped = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) != me:
            continue
        pid = int(entry)
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        reaped += 1
    return reaped


def digest(result: dict) -> str:
    """SHA-256 of one ``RunResult.to_dict()`` in canonical JSON."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Bench:
    """One workload instance plus the run-level correctness tally."""

    def __init__(self, name: str, seed: int, size: str) -> None:
        from perfbench.workloads import SIZES, WORKLOADS

        self.workload = WORKLOADS[name](seed, **SIZES[size][name])
        with open(DIGESTS, encoding="utf-8") as handle:
            recorded = json.load(handle)
        self.canonical = seed == recorded["canonical_seed"]
        self.recorded: dict[str, str] = recorded[size][name] if self.canonical else {}
        # Digests every later run must reproduce: the in-process oracle's
        # on sweeps, otherwise the first pass's.
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        # Raw measurements, reported in the meta line.
        self.kernel_means: list[float] = []
        self.pass_accesses = 0
        # Processes a cell left running after it returned (see reap_children).
        self.orphans_reaped = 0
        self.raw_walls: dict[str, list[float]] = {}

    def fail(self, runs: int, problem: str) -> None:
        self.failed += runs
        if len(self.problems) < 20:
            self.problems.append(problem)

    def run_pass(
        self,
        arm: Callable[[Any], Any] | None = None,
        runner: Callable[[str], dict[str, dict]] | None = None,
        sampled: bool = False,
    ) -> tuple[dict[str, float], list[dict]]:
        """Run every cell once; return each cell's time and the results.

        A cell's time is its wall time, or with ``sampled`` its wall time
        scaled to the reference host speed (:mod:`perfbench.hostspeed`).
        Only the cells themselves are timed; correctness checks run after
        each cell's clock stops.
        """
        from perfbench.hostspeed import SpeedSampler
        from perfbench.workloads import capture_machines

        workload = self.workload
        runner = runner or workload.run_cell
        times: dict[str, float] = {}
        results: list[dict] = []
        for cell in workload.cells():
            labels = workload.labels(cell)
            self.attempted += len(labels)
            gc.collect()
            hook = capture_machines(arm) if workload.in_process else contextlib.nullcontext([])
            speed = SpeedSampler() if sampled else None
            out = None
            with speed or contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    with hook as machines:
                        out = runner(cell)
                except Exception as exc:  # a crashed cell fails its runs, the rest go on
                    self.fail(len(labels), f"{cell}: crashed: {exc!r}")
                wall = time.perf_counter() - start
            self.orphans_reaped += reap_children()
            self.raw_walls.setdefault(cell, []).append(wall)
            if speed is None:
                times[cell] = wall
            else:
                times[cell] = speed.reference_seconds(wall)
                self.kernel_means.append(statistics.fmean(speed.samples))
            if out is not None:
                results.extend(out.values())
                self.check_cell(cell, labels, out, machines)
            # Drop the machine now so the next cell's gc.collect() frees it:
            # machines hold reference cycles.
            machines.clear()
        return times, results

    def check_cell(self, cell: str, labels: tuple, out: dict, machines: list) -> None:
        from repro.mm.debug import check_invariants

        violations = [v for machine in machines for v in check_invariants(machine.system)]
        if violations:
            self.fail(len(labels), f"{cell}: invariant violations: {violations[:3]}")
            return
        for label in labels:
            key = f"{cell}/{label}"
            result = out.get(label)
            if result is None:
                self.fail(1, f"{key}: missing result")
                continue
            counters = result["counters"]
            total = counters.get("accesses.total", 0)
            if not (
                counters.get("accesses.dram", 0) + counters.get("accesses.pm", 0)
                == total
                == result["accesses"]
            ):
                self.fail(1, f"{key}: access counters do not conserve")
                continue
            got = digest(result)
            self.digests[key] = got
            expected = self.reference.setdefault(key, got)
            if got != expected:
                self.fail(1, f"{key}: result differs from the reference run")
            elif self.recorded and self.recorded.get(key) != got:
                self.fail(1, f"{key}: digest differs from digests.json")

    def set_oracle(self) -> None:
        """Sweeps: every pass must match the cells run in this process."""
        from perfbench.workloads import capture_machines
        from repro.mm.debug import check_invariants

        workload = self.workload
        with capture_machines() as machines:
            oracle = workload.oracle()
        self.attempted += len(oracle)
        violations = [v for machine in machines for v in check_invariants(machine.system)]
        if violations:
            self.fail(len(oracle), f"oracle: invariant violations: {violations[:3]}")
        for cell in workload.cells():
            for label in workload.labels(cell):
                self.reference[f"{cell}/{label}"] = digest(oracle[label])


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    """Median set-up time over repeats, then timed passes for ``seconds``."""
    from perfbench.hostspeed import SpeedSampler

    workload = bench.workload
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        with SpeedSampler() as speed:
            start = time.perf_counter()
            workload.setup()
            wall = time.perf_counter() - start
        bench.raw_walls.setdefault("setup", []).append(wall)
        setup_times.append(speed.reference_seconds(wall))
    if not workload.in_process:
        bench.set_oracle()

    # Each cell's time is its median over the passes, and the rate is one
    # pass's accesses over the sum of those medians.
    cell_times: dict[str, list[float]] = {}
    first: list[dict] | None = None
    elapsed = 0.0
    while elapsed < seconds:
        start = time.perf_counter()
        times, results = bench.run_pass(sampled=True)
        elapsed += time.perf_counter() - start
        for cell, cell_time in times.items():
            cell_times.setdefault(cell, []).append(cell_time)
        if first is None:
            first = results
    pass_time = sum(statistics.median(times) for times in cell_times.values())
    first = first or []
    bench.pass_accesses = sum(r["accesses"] for r in first)
    dram = sum(r["counters"].get("accesses.dram", 0) for r in first)
    total = sum(r["counters"].get("accesses.total", 0) for r in first)
    return {
        "sim_accesses_per_s": bench.pass_accesses / pass_time,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual_s": sum(r["elapsed_ns"] for r in first) / 1e9,
        "dram_access_fraction": dram / total if total else 0.0,
    }


def per_layer(bench: Bench, seconds: float) -> dict[str, float]:
    """Rounds of an untraced pass, a traced pass and, on tiering, an armed
    pass, for ``seconds``; busy times are means per traced pass."""
    from perfbench.layers import PER_LAYER, LayerTracer, counter_metrics

    workload = bench.workload
    workload.setup()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    tracer = LayerTracer()
    tracers: list[Any] = []
    profiles: dict[str, list[dict]] = {"local": [], "loopback": []}
    off_s = on_s = armed_s = 0.0
    rounds = 0

    def traced_sweep(cell: str) -> dict[str, dict]:
        payloads, profile = workload.run_traced_cell(cell, WORK_DIR)
        profiles[cell].append(profile)
        return payloads

    def arm(machine: Any) -> None:
        tracers.append(machine.enable_tracing())
        machine.enable_metrics()
        machine.enable_memcg()

    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        off_s += sum(bench.run_pass()[0].values())
        if workload.in_process:
            times, on = bench.run_pass(arm=tracer.attach)
        else:
            times, on = bench.run_pass(runner=traced_sweep)
        on_s += sum(times.values())
        if workload.name == "tiering":
            armed_s += sum(bench.run_pass(arm=arm)[0].values())
        rounds += 1

    if workload.in_process:
        metrics.update({f"{layer}.busy_s": busy / rounds
                        for layer, busy in tracer.busy.items()})
        coverage = sum(tracer.busy.values()) / on_s
    else:
        def mean(cell: str, *keys: str) -> float:
            values = []
            for profile in profiles[cell]:
                for key in keys:
                    profile = profile[key]
                values.append(profile)
            return statistics.fmean(values) if values else 0.0

        metrics.update({
            "sweep.local_s": mean("local", "wall_s"),
            "sweep.loopback_s": mean("loopback", "wall_s"),
            "sweep.envelope_tax_s": mean("loopback", "attribution", "envelope_tax_s"),
            "sweep.connect_s": mean("loopback", "phases", "connect_s"),
            "sweep.merge_s": mean("local", "phases", "merge_s")
            + mean("loopback", "phases", "merge_s"),
        })
        coverage = min((p["coverage"] for ps in profiles.values() for p in ps),
                       default=0.0)
    if coverage < MIN_COVERAGE:
        bench.fail(len(on), f"trace coverage {coverage:.3f} < {MIN_COVERAGE}")
    metrics["trace.coverage"] = coverage
    metrics["trace.overhead"] = on_s / off_s
    metrics.update(counter_metrics(on))
    if workload.name == "tiering":
        metrics["instrumentation.armed_overhead"] = armed_s / off_s
        metrics["instrumentation.events"] = sum(t.events_emitted for t in tracers) / rounds
    return metrics


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.hostspeed import kernel
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the reduced sizes the benchmark's own test uses")
    args = parser.parse_args(argv)

    become_subreaper()
    calibration_s = statistics.median(kernel() for _ in range(25))
    bench = Bench(args.workload, args.seed, args.size)
    if args.trace:
        values, units = per_layer(bench, args.seconds), PER_LAYER
    else:
        values, units = end_to_end(bench, args.seconds), END_TO_END
    for name, value in values.items():
        print(f"{name:<32} {value:>16.6g} {units[name]}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "canonical_seed": bench.canonical,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_s": calibration_s,
        "pass_accesses": bench.pass_accesses,
        "orphans_reaped": bench.orphans_reaped,
        "kernel_mean_s": bench.kernel_means,
        "raw_walls_s": bench.raw_walls,
        "digests": dict(sorted(bench.digests.items())),
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
