#!/usr/bin/env bash
# CI entry point: tier-1 tests, bench-harness smoke test, then a smoke
# run of the microbenchmarks themselves (writes BENCH_perf.json to a
# scratch path so CI never clobbers the committed full-run results).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# A finished remote sweep must leave no agent (or agent worker) behind.
assert_no_agents() {
    if pgrep -f "repro sweep-agent" >/dev/null; then
        echo "leaked sweep agents after $1:" >&2
        pgrep -af "repro sweep-agent" >&2
        exit 1
    fi
    echo "no sweep-agent process survived $1"
}

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== bench harness smoke test =="
python -m pytest benchmarks/perf -q

echo "== repro bench --smoke =="
BENCH_TMP="$(mktemp -d)"
python -m repro bench --smoke --repeats 1 --out "$BENCH_TMP/BENCH_perf.json"

echo "== pagestore smoke (SoA array driver vs recorded baseline) =="
python - <<'PYEOF'
import json
from repro.machine import Machine
from repro.run import run_numeric_stream
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ZipfWorkload

recorded = json.load(open("tests/data/baseline_runresults.json"))
config = SimulationConfig(
    dram_pages=(512,), pm_pages=(4096,), swap_pages=1 << 20,
    daemons=DaemonConfig(kpromoted_interval_s=0.002,
                         kswapd_interval_s=0.001,
                         hint_scan_interval_s=0.002),
    seed=7,
)
workload = ZipfWorkload(2000, 20_000, seed=7, write_ratio=0.2)
stream = list(workload.numeric_batches())
result = run_numeric_stream(workload, config, stream, "autonuma")
got = {
    "operations": result.operations, "accesses": result.accesses,
    "elapsed_ns": result.elapsed_ns, "app_ns": result.app_ns,
    "system_ns": result.system_ns, "ops_fallback": result.ops_fallback,
    "counters": dict(sorted(result.counters.items())),
}
assert got == recorded["autonuma"], "SoA array driver diverged from baseline"
print("SoA array driver is bit-identical to the recorded autonuma baseline")
PYEOF

echo "== figure gates (each regenerated table must match the recorded one) =="
for id in fig1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 overhead \
          ablation-ratio ablation-dirty ablation-adaptive ext-workload-e \
          ext-dual-socket; do
    python -m repro experiment "$id" | diff "tests/data/${id}_table.txt" -
    echo "$id table matches tests/data/${id}_table.txt"
done

echo "== figure suite (benchmarks/, the paper-claim assertions) =="
python -m pytest benchmarks/ --ignore=benchmarks/perf -q

echo "== bench guard (batched touch must not regress below the floor) =="
python - "$BENCH_TMP/BENCH_perf.json" <<'PYEOF'
import json
import sys

# The committed full-run batched-touch throughput before the SoA
# vectorized driver landed; even the smoke-sized run clears it by an
# order of magnitude, so dipping below means the fast path fell off.
FLOOR = 1_455_757

# The columnar deactivate scan measures ~3.4M pages/s at smoke size
# (scalar reference: ~135k); a floor 10x under that still sits well
# above the scalar loop, so tripping it means the vector guard stopped
# taking the fast path.
DEACTIVATE_FLOOR = 300_000

# Fig 6's pr+tc on the array driver measures ~260k simulated accesses/s
# at smoke size (the batch=False scalar oracle: ~60k); the floor sits 3x
# under it, so tripping it means the kernels fell off the array driver.
GAPBS_FLOOR = 85_000

# YCSB Load + A on the array driver measures ~360k-590k simulated
# accesses/s at smoke size (the batch=False scalar oracle: ~90k-120k;
# the object driver the phases used before: ~80k); the floor sits 3x
# under the slowest run, so tripping it means the phases fell off the
# array driver.
YCSB_FLOOR = 110_000

bench = json.load(open(sys.argv[1]))
touch = bench["touch"]
assert touch["identical"] is True, f"touch drivers diverged: {touch}"
rate = touch["batched_ops_per_sec"]
assert rate >= FLOOR, (
    f"batched touch regressed: {rate:,.0f} ops/s < floor {FLOOR:,} ops/s"
)
print(f"batched touch {rate:,.0f} ops/s >= floor {FLOOR:,} ops/s")

deact = bench["deactivate"]
assert deact["identical"] is True, f"deactivate paths diverged: {deact}"
drate = deact["vector_pages_per_sec"]
assert drate >= DEACTIVATE_FLOOR, (
    f"vector deactivate regressed: {drate:,.0f} pages/s"
    f" < floor {DEACTIVATE_FLOOR:,} pages/s"
)
print(f"vector deactivate {drate:,.0f} pages/s >= floor {DEACTIVATE_FLOOR:,}"
      f" pages/s (scalar {deact['scalar_pages_per_sec']:,.0f},"
      f" speedup {deact['speedup']}x)")

gapbs = bench["gapbs"]
assert gapbs["identical"] is True, f"GAPBS array path diverged from the oracle: {gapbs}"
grate = gapbs["accesses_per_sec"]
assert grate >= GAPBS_FLOOR, (
    f"GAPBS end to end regressed: {grate:,.0f} accesses/s"
    f" < floor {GAPBS_FLOOR:,} accesses/s"
)
print(f"GAPBS pr+tc {grate:,.0f} accesses/s >= floor {GAPBS_FLOOR:,} accesses/s"
      f" (oracle {gapbs['oracle_accesses_per_sec']:,.0f}, speedup"
      f" {gapbs['speedup']}x), identical=True")

ycsb = bench["ycsb_a"]
assert ycsb["identical"] is True, f"YCSB array path diverged from the oracle: {ycsb}"
yrate = ycsb["accesses_per_wall_sec"]
assert yrate >= YCSB_FLOOR, (
    f"YCSB end to end regressed: {yrate:,.0f} accesses/s"
    f" < floor {YCSB_FLOOR:,} accesses/s"
)
print(f"YCSB load+A {yrate:,.0f} accesses/s >= floor {YCSB_FLOOR:,} accesses/s"
      f" (oracle {ycsb['oracle_accesses_per_wall_sec']:,.0f}, speedup"
      f" {ycsb['speedup']}x), identical=True")

journal = bench["journal"]
assert journal["identical"] is True, f"journal-armed sweep diverged: {journal}"
assert journal["journal_events"] > 0, journal
print(f"span journal is a measured nop: {journal['journal_events']} events, "
      f"overhead {journal['overhead']}x, identical=True")

trace = bench["trace"]
assert trace["identical"] is True, f"trace-armed run diverged: {trace}"
assert trace["events_emitted"] > 0, trace
print(f"tracepoints observe, never steer: {trace['events_emitted']} events, "
      f"overhead {trace['overhead']}x, identical=True")
PYEOF

echo "== chaos smoke (2 policies x 1 workload under faults) =="
python -m repro chaos --policies multiclock,static --workload zipf \
    --pages 600 --ops 4000 --dram-pages 256 --pm-pages 2048 \
    --interval 0.002 --out "$(mktemp -d)/CHAOS_report.json"

echo "== sweep smoke (2 workers == sequential; forced crash retried) =="
SWEEP_TMP="$(mktemp -d)"
SWEEP_ARGS=(--policies static,multiclock --workload zipf
            --pages 400 --ops 3000 --dram-pages 128 --pm-pages 1024
            --interval 0.002)
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 2 \
    --out "$SWEEP_TMP/par.json" >/dev/null 2>&1
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 1 --no-cache \
    --out "$SWEEP_TMP/seq.json" >/dev/null 2>&1
cmp "$SWEEP_TMP/par.json" "$SWEEP_TMP/seq.json"
python - "$SWEEP_TMP" <<'PYEOF'
import sys
from repro.sweep import SweepCell, SweepSpec, run_sweep

marker = sys.argv[1] + "/crash.marker"
spec = SweepSpec(name="ci-crash", cells=(
    SweepCell("boom", "flaky",
              {"marker": marker, "mode": "exit", "payload": "recovered"}),
))
result = run_sweep(spec, workers=2)
assert result.ok and result.outcomes[0].attempts == 2, result.outcomes
print("forced worker crash was retried and healed")
PYEOF

echo "== sweep perf smoke (pool beats sequential; cached re-run is free) =="
python - <<'PYEOF'
from repro.bench import bench_sweep

# Cells sized so the pool's fork-and-pipe overhead is well below the
# per-cell work; smaller cells made this comparison a coin flip on a
# busy single-core host.
r = bench_sweep(pages=1500, ops=20_000)
assert r["identical"], f"pool results diverged from sequential: {r}"
assert r["parallel_s"] <= r["sequential_s"], (
    f"2-worker pool slower than sequential: {r}"
)
assert r["cached_rerun_workers"] == 0, (
    f"cached re-run spawned child processes: {r}"
)
assert r["cached_rerun_seconds"] < r["parallel_s"], f"warm cache not faster: {r}"
print(f"pool {r['parallel_s']}s vs sequential {r['sequential_s']}s "
      f"(speedup {r['speedup']}x); cached re-run {r['cached_rerun_seconds']}s "
      f"with 0 workers spawned")
PYEOF
cp "$SWEEP_TMP/par.json" "$SWEEP_TMP/par.first.json"
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 2 \
    --out "$SWEEP_TMP/par.json" > "$SWEEP_TMP/rerun.out" 2>/dev/null
grep -q "0 worker(s) spawned" "$SWEEP_TMP/rerun.out"
cmp "$SWEEP_TMP/par.json" "$SWEEP_TMP/par.first.json"
echo "cached CLI re-run: byte-identical report, zero workers spawned"

echo "== distributed sweep smoke (2 loopback agents == sequential) =="
python -m repro sweep "${SWEEP_ARGS[@]}" --no-cache \
    --hosts loopback,loopback --heartbeat-s 1 \
    --out "$SWEEP_TMP/remote.json" >/dev/null 2>&1
cmp "$SWEEP_TMP/remote.json" "$SWEEP_TMP/seq.json"
test -s "$SWEEP_TMP/remote.json.hosts.json"
echo "2-host loopback sweep: byte-identical report, host sidecar written"
assert_no_agents "the distributed sweep smoke"

echo "== distributed sweep fault smoke (agent killed mid-run heals, journal armed) =="
python - "$(mktemp -d)" <<'PYEOF'
import sys
from repro.obs import (Journal, SweepObserver, pair_spans, read_journal,
                       timeline_records)
from repro.sweep import SweepCell, SweepSpec, run_remote_sweep, run_sweep

tmp = sys.argv[1]
marker = tmp + "/killed.marker"
cells = [
    SweepCell(f"c{i}", "flaky",
              {"mode": "sleep", "sleep_s": 0.05, "payload": f"p{i}"})
    for i in range(8)
]
cells.insert(3, SweepCell("killer", "flaky",
                          {"mode": "kill-agent", "marker": marker,
                           "payload": "recovered"}))
spec = SweepSpec(name="ci-kill-agent", cells=tuple(cells))
sequential = run_sweep(spec, workers=1)
journal_path = tmp + "/sweep.journal.ndjson"
obs = SweepObserver(journal=Journal(journal_path))
remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.5,
                          reconnect_attempts=2, obs=obs)
obs.close("done")
assert remote.ok, [o.error for o in remote.outcomes if not o.ok]
assert remote.payloads() == sequential.payloads(), "results diverged"

# The journal must tell the same story: the killed host's cell.run span
# and its re-run elsewhere share the cell id, the cell commits once,
# and the merged timeline shows the whole fleet (driver + 2 hosts).
events = read_journal(journal_path)
runs = [s for s in pair_spans(events)
        if s.span == "cell.run" and s.cell == "killer"]
assert len(runs) >= 2 and any(s.aborted for s in runs), runs
commits = [e for e in events if e["ev"] == "point"
           and e["span"] == "commit" and e.get("cell") == "killer"]
assert len(commits) == 1, commits
_, lanes = timeline_records(events)
assert lanes >= 3, f"expected >=3 timeline lanes, got {lanes}"
print("agent SIGKILLed mid-sweep: every cell re-dispatched and completed, "
      "results identical to sequential; journal shows the re-run "
      f"({len(runs)} cell.run spans, 1 commit, {lanes} timeline lanes)")
PYEOF

echo "== observability smoke (journal -> top -> timeline -> byte-identity) =="
OBS_TMP="$(mktemp -d)"
python -m repro sweep "${SWEEP_ARGS[@]}" --no-cache \
    --hosts loopback,loopback --heartbeat-s 1 --journal \
    --out "$OBS_TMP/armed.json" >/dev/null 2>&1
python -m repro top "$OBS_TMP/armed.json" --once | grep -q "done 2"
python -m repro timeline "$OBS_TMP/armed.json" \
    --out "$OBS_TMP/trace.json" >/dev/null
python - "$OBS_TMP" <<'PYEOF'
import json, sys

tmp = sys.argv[1]
trace = json.load(open(tmp + "/trace.json"))  # perfetto export is JSON
lanes = {r["pid"] for r in trace["traceEvents"]}
assert len(lanes) >= 3, f"expected >=3 lanes, got {len(lanes)}"
report = json.load(open(tmp + "/armed.json"))
profile = report.pop("profile")
timing = report.pop("timing")
assert profile["coverage"] >= 0.95, profile
assert timing == sorted(timing, key=lambda r: (r["cell"], r["attempt"]))
with open(tmp + "/stripped.json", "w") as fh:
    json.dump(report, fh, indent=2, sort_keys=True)
    fh.write("\n")
print(f"timeline has {len(lanes)} lanes; profile covers "
      f"{100 * profile['coverage']:.1f}% of measured wall")
PYEOF
cmp "$OBS_TMP/stripped.json" "$SWEEP_TMP/seq.json"
echo "journal-armed report minus timing/profile is byte-identical to journal-off"
assert_no_agents "the observability smoke"

echo "== trace smoke (run -> export -> audit) =="
TRACE_TMP="$(mktemp -d)"
python -m repro trace --workload zipf --pages 600 --ops 4000 \
    --dram-pages 256 --pm-pages 2048 --interval 0.002 --no-summary \
    --ndjson "$TRACE_TMP/events.ndjson" --perfetto "$TRACE_TMP/events.json" \
    --audit
test -s "$TRACE_TMP/events.ndjson"

echo "== invariant checker against a clean run =="
python -m repro check --workload shifting-hotset --pages 800 --ops 6000 \
    --dram-pages 256 --pm-pages 2048 --interval 0.002 --strict

echo "== metrics smoke (stat -> prometheus -> html dashboard -> nop check) =="
METRICS_TMP="$(mktemp -d)"
METRICS_ARGS=(--workload zipf --pages 600 --ops 4000
              --dram-pages 256 --pm-pages 2048 --interval 0.002)
python -m repro stat "${METRICS_ARGS[@]}" | grep -q node0_nr_free_pages
python -m repro stat "${METRICS_ARGS[@]}" --prometheus \
    | grep -q '^repro_nr_free_pages{node="0",tier="DRAM"}'
python -m repro stat "${METRICS_ARGS[@]}" --json \
    | python -c "import json,sys; s=json.load(sys.stdin); assert s['meta']['samples']>0"
python -m repro report "${METRICS_ARGS[@]}" --html \
    --out "$METRICS_TMP/REPORT.html" >/dev/null
grep -q "<svg" "$METRICS_TMP/REPORT.html"
python - <<'PYEOF'
from repro.bench import bench_metrics

result = bench_metrics(20_000, pages=1500, repeats=1)
assert result["identical"], "metrics-armed run diverged from metrics-off"
assert result["samples"] > 0 and result["observations"] > 0, result
print(f"metrics are a measured nop: {result['samples']} samples, "
      f"{result['observations']} observations, identical=True")
PYEOF

echo "== colocation smoke (3 tenants, memcg armed, OOM kill + co-tenants survive) =="
COLO_TMP="$(mktemp -d)"
COLO_ARGS=(--tenants 3 --records 600 --ops 1500
           --dram-pages 96 --pm-pages 300 --swap-pages 16
           --limits none,80,none --seed 7)
# Tight swap pins the limited tenant over its cap at the crunch, so the
# OOM killer selects it; the other two must run to completion.
python -m repro colo "${COLO_ARGS[@]}" --vmstat > "$COLO_TMP/colo.txt"
grep -q "KILLED" "$COLO_TMP/colo.txt"
grep -q "2/3 tenants finished" "$COLO_TMP/colo.txt"
grep -q "1 OOM group kill" "$COLO_TMP/colo.txt"
# p50/p99 reach all four exposition formats: vmstat ...
grep -q "tenant_tenant0_latency_ns_p99" "$COLO_TMP/colo.txt"
# ... Prometheus ...
python -m repro colo "${COLO_ARGS[@]}" --prometheus \
    | grep -q '^repro_tenant_tenant0_latency_ns_p50'
# ... JSON snapshot ...
python -m repro colo "${COLO_ARGS[@]}" \
    --snapshot "$COLO_TMP/colo_snap.json" > /dev/null
python - "$COLO_TMP/colo_snap.json" <<'PYEOF'
import json, sys

snapshot = json.load(open(sys.argv[1]))
hists = snapshot["histograms"]
for tenant in ("tenant0", "tenant2"):  # the survivors
    data = hists[f"tenant_{tenant}_latency_ns"]
    assert data["count"] > 0 and data["p50"] is not None, (tenant, data)
    assert data["p99"] >= data["p50"], (tenant, data)
print("snapshot carries per-tenant p50/p99 for every survivor")
PYEOF
# ... and the HTML dashboard, via the save -> report round trip.
python -m repro report --snapshot "$COLO_TMP/colo_snap.json" \
    --out "$COLO_TMP/colo.html" >/dev/null
grep -q "tenant_tenant0_latency_ns" "$COLO_TMP/colo.html"
grep -q "<svg" "$COLO_TMP/colo.html"

echo "CI OK"
