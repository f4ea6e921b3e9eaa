"""Grid builder: labelled job grids over loops x machines x variants.

A :class:`Grid` holds one *cell* per label -- a machine, pipeline options
and the loop list -- and runs every cell in one
:func:`repro.runner.executor.run_jobs` call.  Results come back keyed by
label, each list aligned to its cell's loops, so a driver looks a result
up by what it is (``results["queu-4fu"]``, ``results[(4, "affinity")]``)
and never by where it sits in the job list, which runs loop-major.
:func:`sweep` fills a grid with the full cartesian product of machines
and variants.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Union

from repro.ir.ddg import Ddg

from .executor import RunnerConfig, run_jobs
from .job import CompileJob, JobResult, PipelineOptions

Variant = Union[PipelineOptions, dict, None]


def as_options(variant: Variant,
               *, extras: tuple[str, ...] = ()) -> PipelineOptions:
    """Coerce a variant (options object, kwargs dict or None) to options.

    A dict variant may override ``extras``; otherwise the *extras* default
    applies.
    """
    if variant is None:
        return PipelineOptions(extras=extras)
    if isinstance(variant, PipelineOptions):
        return variant
    kwargs = dict(variant)
    kwargs.setdefault("extras", extras)
    kwargs["extras"] = tuple(kwargs["extras"])
    return PipelineOptions(**kwargs)


class Grid:
    """Labelled cells of compile jobs, run together, looked up by label."""

    def __init__(self, loops: Sequence[Ddg]) -> None:
        self.loops = list(loops)
        self.cells: dict[Hashable, list[CompileJob]] = {}

    def add(self, label: Hashable, machine: object,
            variant: "Variant | list[Variant]" = None, *,
            loops: Optional[Sequence[Ddg]] = None,
            extras: tuple[str, ...] = ()) -> None:
        """One job per loop (the grid's, or *loops*) on *machine*.

        *variant* applies to every loop, or is a list with one variant
        per loop.  A label names one cell; reusing it is an error.
        """
        if label in self.cells:
            raise ValueError(f"grid label {label!r} is already taken")
        loops = self.loops if loops is None else list(loops)
        variants = (variant if isinstance(variant, list)
                    else [variant] * len(loops))
        if len(variants) != len(loops):
            raise ValueError(f"{len(variants)} variants for "
                             f"{len(loops)} loops in cell {label!r}")
        self.cells[label] = [
            CompileJob(ddg=ddg, machine=machine,
                       options=as_options(v, extras=extras))
            for ddg, v in zip(loops, variants)]

    @property
    def jobs(self) -> list[CompileJob]:
        """Every job, cell by cell in insertion order, loops in order."""
        return [job for cell in self.cells.values() for job in cell]

    def run(self, runner: Optional[RunnerConfig] = None
            ) -> dict[Hashable, list[JobResult]]:
        """Run every cell; label -> results aligned to the cell's loops.

        The jobs are submitted loop-major: every job of a loop, in cell
        order, before the next loop (loops in order of first appearance).
        The pipeline's front-end memo drops a loop on its first visit
        once the next loop arrives, so run serially a loop's unrolled
        and copy-inserted bodies are built once for all its cells, and
        only one loop's bodies are alive at a time, however many loops
        the grid holds.  A worker pool hands its workers contiguous
        loop-major chunks of the stream, so only the workers that take
        one of a loop's chunks build its bodies, and only while it is
        in flight.
        """
        by_loop: dict[int, list[tuple[Hashable, int]]] = {}
        for label, cell in self.cells.items():
            for i, job in enumerate(cell):
                by_loop.setdefault(id(job.ddg), []).append((label, i))
        order = [slot for slots in by_loop.values() for slot in slots]
        done = run_jobs([self.cells[label][i] for label, i in order], runner)
        results: dict[Hashable, list] = {
            label: [None] * len(cell) for label, cell in self.cells.items()}
        for (label, i), result in zip(order, done):
            results[label][i] = result
        return results


def sweep(loops: Sequence[Ddg], machines: Iterable,
          variants: Optional[Sequence[Variant]] = None,
          *, extras: tuple[str, ...] = ()) -> Grid:
    """The full grid: one cell per (machine, variant), labelled by the
    machine's name and the variant's :class:`PipelineOptions`."""
    grid = Grid(loops)
    for machine in machines:
        for variant in variants or [None]:
            opts = as_options(variant, extras=extras)
            grid.add((machine.name, opts), machine, opts)
    return grid
