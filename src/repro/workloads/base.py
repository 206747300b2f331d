"""Workload interface: anything that drives memory accesses.

A workload declares its processes and regions against a machine in
:meth:`Workload.setup`, then yields a stream of page references.  The
runner in :mod:`repro.run` feeds them to the machine, pumps the daemon
scheduler, and measures virtual time.  Workloads count *operations*
(requests, graph iterations) separately from raw page touches so
throughput matches what the paper reports (ops/sec for YCSB, time per
trial for GAPBS).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.machine import Machine
from repro.mm.address_space import Process
from repro.mm.hardware import ABSORB_HEAD, CpuCache

__all__ = ["PageAccess", "Workload", "NumericWorkload", "page_accesses"]


@dataclass(frozen=True, slots=True)
class PageAccess:
    """One page reference emitted by a workload.

    ``lines`` is how many cache lines the operation touches within the
    page (a 1 KiB value read is ~16 lines); the access latency scales
    with it, which is what makes tier placement dominate operation cost
    the way it does on the paper's real machines.
    """

    process: Process
    vpage: int
    is_write: bool = False
    op_boundary: bool = False
    lines: int = 1


class Workload(abc.ABC):
    """Base class for every benchmark driver."""

    name: str = "workload"

    #: True when this workload's stream marks operation completions with
    #: ``op_boundary``.  The runner uses it to keep a phase that
    #: completes zero operations labelled as a real (zero-op) result
    #: instead of falling back to accesses/s; raw page traces leave it
    #: False and rely on markers observed in the stream.
    marks_op_boundaries: bool = False

    @abc.abstractmethod
    def setup(self, machine: Machine) -> None:
        """Create processes and map regions; called once before the stream."""

    @abc.abstractmethod
    def accesses(self) -> Iterator[PageAccess]:
        """The access stream.  ``setup`` has been called already."""

    def footprint_pages(self) -> int:
        """Approximate resident-set target, for configuring machines."""
        return 0


class NumericWorkload(Workload):
    """A single-process workload whose stream is numeric batches.

    :meth:`numeric_batches` defines the stream and :meth:`accesses` is
    derived from it, so :func:`repro.run.run_workload` drives such a
    workload through :meth:`Machine.touch_batch_array` -- unless a
    subclass overrides :meth:`accesses` with a stream of its own.
    ``lines`` is the width of each access of a ``(vpages, writes)``
    stream, ``cpu_cache`` the filter a column stream's absorbable
    touches pass.
    """

    process: Process | None = None
    lines: int = 1
    cpu_cache: CpuCache | None = None

    @abc.abstractmethod
    def numeric_batches(self) -> Iterator[tuple]:
        """The stream, as batches for :meth:`Machine.touch_batch_array`.

        Computed without reading machine state, so the array driver and
        the scalar :meth:`accesses` see the same candidate touches.
        """

    def accesses(self) -> Iterator[PageAccess]:
        assert self.process is not None, "setup() must run before accesses()"
        return page_accesses(
            self.process, self.numeric_batches(), lines=self.lines, cache=self.cpu_cache
        )


def page_accesses(
    process: Process,
    batches: Iterable[tuple],
    *,
    lines: int = 1,
    cache: CpuCache | None = None,
) -> Iterator[PageAccess]:
    """The object stream of a numeric batch stream.

    ``batches`` is what :meth:`~repro.machine.Machine.touch_batch_array`
    drives: ``(vpages, writes)`` pairs, every access ``lines`` wide and an
    operation boundary, or ``(vpages, writes, lines, boundary, absorb)``
    column batches whose absorbable touches pass ``cache``'s filter
    against the live page table as the stream is consumed.  This is the
    scalar reference for the array driver: fed to :meth:`Machine.touch`
    one access at a time it reproduces the array driver bit for bit.
    """
    page_table = process.page_table
    absorbed = False
    for batch in batches:
        if len(batch) == 2:
            for vpage, is_write in zip(batch[0].tolist(), batch[1].tolist()):
                yield PageAccess(process, vpage, is_write=is_write, op_boundary=True, lines=lines)
            continue
        for vpage, is_write, width, boundary, code in zip(*(col.tolist() for col in batch)):
            if code and cache is not None:
                if code == ABSORB_HEAD:
                    absorbed = cache.absorbs(page_table, vpage)
                if absorbed:
                    continue
            yield PageAccess(
                process, vpage, is_write=is_write, op_boundary=boundary, lines=width
            )
