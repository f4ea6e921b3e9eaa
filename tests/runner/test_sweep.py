"""Grid builder: labels, ordering, variants, extras defaults."""

import pytest

from repro.machine.presets import clustered_machine, qrf_machine
from repro.runner import (Grid, PipelineOptions, RunnerConfig, as_options,
                          sweep)
from repro.workloads.kernels import kernel


def _loops():
    return [kernel("daxpy"), kernel("dot"), kernel("fir4")]


def test_grid_size_and_nesting_order():
    loops = _loops()
    machines = [qrf_machine(4), qrf_machine(6)]
    variants = [dict(copies=False), dict(copies=True)]
    jobs = sweep(loops, machines, variants).jobs
    assert len(jobs) == len(loops) * len(machines) * len(variants)
    # machine-major, then variant, then loop
    assert [j.machine.name for j in jobs[:6]] == ["queu-4fu"] * 6
    assert [j.options.copies for j in jobs[:6]] == [False] * 3 + [True] * 3
    assert [j.ddg.name for j in jobs[:3]] == ["daxpy", "dot", "fir4"]


def test_default_variant_is_default_options():
    jobs = sweep(_loops(), [qrf_machine(4)]).jobs
    assert all(j.options == PipelineOptions() for j in jobs)


def test_sweep_is_deterministic():
    loops = _loops()
    machines = [qrf_machine(4), clustered_machine(4)]
    keys_a = [j.key for j in
              sweep(loops, machines, [dict(do_unroll=True)]).jobs]
    keys_b = [j.key for j in
              sweep(loops, machines, [dict(do_unroll=True)]).jobs]
    assert keys_a == keys_b
    assert len(set(keys_a)) == len(keys_a)   # no dup jobs in the grid


def test_extras_default_applies_to_dict_variants():
    jobs = sweep(_loops(), [qrf_machine(4)], [dict(allocate=False)],
                 extras=("crf_registers",)).jobs
    assert all(j.options.extras == ("crf_registers",) for j in jobs)


def test_dict_variant_may_override_extras():
    jobs = sweep(_loops(), [qrf_machine(4)],
                 [dict(allocate=False, extras=["queue_locations"])],
                 extras=("crf_registers",)).jobs
    assert all(j.options.extras == ("queue_locations",) for j in jobs)


def test_as_options_passthrough_and_coercion():
    opts = PipelineOptions(do_unroll=True)
    assert as_options(opts) is opts
    assert as_options(None) == PipelineOptions()
    coerced = as_options(dict(copy_strategy="chain"))
    assert coerced.copy_strategy == "chain"


def test_results_come_back_by_label_in_loop_order(tmp_path):
    """A result is found by its label, whatever the job order, and is
    the same serially and over two workers."""
    loops = _loops()
    grid = Grid(loops)
    grid.add("ring", clustered_machine(4), dict(allocate=False))
    grid.add(("flat", 4), qrf_machine(4))
    grid.add("rolled-pair", qrf_machine(6), loops=loops[1:])
    serial = grid.run()
    assert list(serial) == ["ring", ("flat", 4), "rolled-pair"]
    for label, loop_list in (("ring", loops), (("flat", 4), loops),
                             ("rolled-pair", loops[1:])):
        assert [r.outcome.loop for r in serial[label]] == \
            [ddg.name for ddg in loop_list]
    assert {r.outcome.machine for r in serial["ring"]} == \
        {clustered_machine(4).name}
    assert grid.run(RunnerConfig(n_workers=2)) == serial


def test_per_loop_variants_and_label_misuse():
    loops = _loops()
    grid = Grid(loops)
    grid.add("factors", qrf_machine(4),
             [dict(unroll_factor=f) for f in (1, 2, 3)])
    assert [j.options.unroll_factor for j in grid.jobs] == [1, 2, 3]
    with pytest.raises(ValueError, match="already taken"):
        grid.add("factors", qrf_machine(6))
    with pytest.raises(ValueError, match="2 variants for 3 loops"):
        grid.add("short", qrf_machine(6), [None, None])
