"""``repro.sweep`` — parallel sweep orchestration with crash isolation.

Shards an arbitrary (policy × workload × seed × config) cell grid
across persistent worker processes and merges results
deterministically: cell ids key the merge, spec order keys the output,
and payloads round-trip through JSON in the workers, so a parallel
sweep over deterministic cells is byte-identical to the sequential run.
A content-addressed result cache (keyed by per-cell fingerprint) makes
re-runs of unchanged cells free.

One lease scheduler (:mod:`repro.sweep.scheduler`) runs every sweep.
It leases cells to hosts of two kinds: the driver's own *local host*,
forked directly over pipes (``run_sweep``), and ``repro sweep-agent``
*agent hosts* reached over a versioned JSON wire format
(:mod:`repro.sweep.wire`, :mod:`repro.sweep.remote`;
``run_remote_sweep``).  Both kinds run cells on the one worker pool
(:mod:`repro.sweep.pool`).  The scheduler supervises agents with leases
and heartbeats, re-dispatches work from lost hosts, and — if every
agent dies — adds a local host and finishes the sweep there.  The
driver is threadless: one ``connection.wait`` watches every worker
pipe and every agent's stdout.  See DESIGN.md §7.
"""

from repro.sweep.manifest import Manifest, ResultCache, atomic_write_json
from repro.sweep.remote import (
    DEFAULT_HEARTBEAT_S,
    HostOutcome,
    HostSpec,
    parse_hosts,
)
from repro.sweep.report import build_report, write_report
from repro.sweep.scheduler import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_STRAGGLER_FACTOR,
    CellOutcome,
    SweepInterrupted,
    SweepResult,
    run_remote_sweep,
    run_sweep,
)
from repro.sweep.spec import (
    SweepCell,
    SweepSpec,
    cell_fingerprint,
    is_portable,
    register_runner,
    resolve_runner,
)
from repro.sweep.wire import (
    WIRE_VERSION,
    WireError,
    decode_envelope,
    decode_spec,
    encode_envelope,
    encode_spec,
)

__all__ = [
    "SweepCell",
    "SweepSpec",
    "CellOutcome",
    "SweepResult",
    "SweepInterrupted",
    "Manifest",
    "ResultCache",
    "atomic_write_json",
    "build_report",
    "write_report",
    "run_sweep",
    "run_remote_sweep",
    "HostSpec",
    "HostOutcome",
    "parse_hosts",
    "register_runner",
    "resolve_runner",
    "cell_fingerprint",
    "is_portable",
    "encode_envelope",
    "decode_envelope",
    "encode_spec",
    "decode_spec",
    "WireError",
    "WIRE_VERSION",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_STRAGGLER_FACTOR",
]
