"""Access-trace recording and replay.

The reproduction is trace driven at heart, so traces are first-class: any
workload can be recorded while it runs (:class:`TraceRecorder`) and the
resulting file replayed later (:class:`TraceReplayWorkload`) against any
policy or configuration — which is how external traces are brought into
the simulator.  Recording is a one-shot capture: it tees the workload's
object stream, so it runs on the scalar :meth:`Machine.touch` oracle.
Replay parses the file in chunks into per-process column runs and
drives them as segments through the access driver's multi-process entry
(:meth:`Machine.touch_batch`), like every other multi-process stream.

File format: a one-line JSON header describing the processes and their
regions, then one line per access::

    {"version": 1, "processes": [{"name": ..., "home_socket": 0,
                                  "regions": [[start, n, is_anon, supervised], ...]}]}
    <process_index> <vpage> <w|r> <lines> <o|->

The format is line oriented and append friendly; gzip-compress large
traces externally if needed.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.machine import Machine
from repro.mm.address_space import MemoryRegion, Process
from repro.workloads.base import PageAccess, SegmentWorkload, Workload

__all__ = ["TraceRecorder", "TraceReplayWorkload", "TRACE_VERSION"]

TRACE_VERSION = 1

_CHUNK = 4096  # trace lines parsed per step of a replay


def _region_spec(region: MemoryRegion) -> list:
    return [region.start_vpage, region.n_pages, region.is_anon, region.supervised]


class TraceRecorder(Workload):
    """Tees an inner workload's access stream into a trace file."""

    def __init__(self, inner: Workload, path: str | Path) -> None:
        self.inner = inner
        self.path = Path(path)
        # The tee is transparent: boundary semantics are the inner
        # workload's.
        self.marks_op_boundaries = inner.marks_op_boundaries
        self.name = f"record[{inner.name}]"
        self._processes: list[Process] = []
        self._machine: Machine | None = None

    def setup(self, machine: Machine) -> None:
        before = set(machine.system.processes)
        self.inner.setup(machine)
        created = [
            machine.system.processes[pid]
            for pid in machine.system.processes
            if pid not in before
        ]
        self._processes = sorted(created, key=lambda p: p.pid)
        self._machine = machine

    def footprint_pages(self) -> int:
        return self.inner.footprint_pages()

    def accesses(self) -> Iterator[PageAccess]:
        index_of = {process.pid: i for i, process in enumerate(self._processes)}
        header = {
            "version": TRACE_VERSION,
            "workload": self.inner.name,
            "processes": [
                {
                    "name": process.name,
                    "home_socket": process.home_socket,
                    "regions": [_region_spec(r) for r in process.regions],
                }
                for process in self._processes
            ],
        }
        with self.path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for access in self.inner.accesses():
                index = index_of.get(access.process.pid)
                if index is None:
                    raise RuntimeError(
                        f"access to unregistered process pid={access.process.pid}"
                    )
                fh.write(
                    f"{index} {access.vpage} {'w' if access.is_write else 'r'} "
                    f"{access.lines} {'o' if access.op_boundary else '-'}\n"
                )
                yield access


class TraceReplayWorkload(SegmentWorkload):
    """Replays a recorded trace file as a workload."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with self.path.open() as fh:
            self.header = json.loads(fh.readline())
        if self.header.get("version") != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {self.header.get('version')!r}"
            )
        self.name = f"replay[{self.header.get('workload', self.path.name)}]"
        self._processes: list[Process] = []

    def setup(self, machine: Machine) -> None:
        self._processes = []
        for spec in self.header["processes"]:
            process = machine.create_process(
                spec["name"], home_socket=spec.get("home_socket", 0)
            )
            for start, n_pages, is_anon, supervised in spec["regions"]:
                process.mmap(
                    MemoryRegion(start, n_pages, is_anon=is_anon, supervised=supervised)
                )
            self._processes.append(process)

    def footprint_pages(self) -> int:
        return sum(
            n_pages
            for spec in self.header["processes"]
            for __, n_pages, __a, __s in spec["regions"]
        )

    def segments(self) -> Iterator[tuple[Process, tuple]]:
        with self.path.open() as fh:
            fh.readline()  # header
            line_no = 2
            while chunk := list(islice(fh, _CHUNK)):
                try:
                    index, columns = self._columns(chunk)
                except ValueError:
                    for offset, line in enumerate(chunk):
                        try:
                            self._columns([line])
                        except ValueError as exc:
                            raise ValueError(
                                f"{self.path}:{line_no + offset}: malformed trace line"
                            ) from exc
                    raise
                cuts = (np.flatnonzero(index[1:] != index[:-1]) + 1).tolist()
                for lo, hi in zip([0] + cuts, cuts + [len(chunk)]):
                    yield self._processes[index[lo]], tuple(col[lo:hi] for col in columns)
                line_no += len(chunk)

    def _columns(self, chunk: list[str]) -> tuple[np.ndarray, tuple]:
        """``chunk``'s process indices and access columns; raises
        ValueError when any of its lines is malformed."""
        rows = [line.split() for line in chunk]
        if any(len(row) != 5 for row in rows):
            raise ValueError("a trace line has five fields")
        fields = list(chain.from_iterable(rows))
        n = len(rows)
        index = np.fromiter(map(int, fields[0::5]), np.int64, n)
        if index.min() < 0 or index.max() >= len(self._processes):
            raise ValueError("process index out of range")
        return index, (
            np.fromiter(map(int, fields[1::5]), np.int64, n),
            np.fromiter(map("w".__eq__, fields[2::5]), bool, n),
            np.fromiter(map(int, fields[3::5]), np.int64, n),
            np.fromiter(map("o".__eq__, fields[4::5]), bool, n),
            np.zeros(n, dtype=np.int8),
        )
