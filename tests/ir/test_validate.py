"""Unit tests for DDG validation."""

import pytest

from repro.ir.builder import LoopBuilder
from repro.ir.copyins import insert_copies
from repro.ir.ddg import Ddg, DepKind
from repro.ir.operations import Opcode
from repro.ir.validate import DdgValidationError, is_valid, validate_ddg


def test_valid_loop_passes():
    b = LoopBuilder("ok")
    x = b.load("x")
    b.store("st", x)
    validate_ddg(b.build(validate=False))


def test_zero_distance_self_edge():
    ddg = Ddg("bad")
    a = ddg.add_operation(Opcode.ADD, name="a")
    ddg.add_dependence(a, a, distance=0, kind=DepKind.DATA, latency=1)
    with pytest.raises(DdgValidationError):
        validate_ddg(ddg)


def test_zero_distance_cycle():
    ddg = Ddg("cyc")
    a = ddg.add_operation(Opcode.ADD, name="a")
    b = ddg.add_operation(Opcode.ADD, name="b")
    ddg.add_dependence(a, b, distance=0)
    ddg.add_dependence(b, a, distance=0, kind=DepKind.DATA, latency=1)
    with pytest.raises(DdgValidationError, match="cycle"):
        validate_ddg(ddg)


def test_data_latency_mismatch():
    ddg = Ddg("lat")
    a = ddg.add_operation(Opcode.LOAD, name="a")   # latency 2
    b = ddg.add_operation(Opcode.STORE, name="b")
    ddg.add_dependence(a, b, distance=0, kind=DepKind.DATA, latency=1)
    with pytest.raises(DdgValidationError, match="latency"):
        validate_ddg(ddg)


def test_copy_with_too_many_consumers():
    ddg = Ddg("cp")
    src = ddg.add_operation(Opcode.LOAD, name="src")
    cp = ddg.add_operation(Opcode.COPY, name="cp")
    ddg.add_dependence(src, cp)
    for i in range(3):
        c = ddg.add_operation(Opcode.ADD, name=f"c{i}")
        ddg.add_dependence(cp, c)
    with pytest.raises(DdgValidationError, match="write"):
        validate_ddg(ddg)


def test_copy_without_producer():
    ddg = Ddg("cp2")
    cp = ddg.add_operation(Opcode.COPY, name="cp")
    c = ddg.add_operation(Opcode.ADD, name="c")
    ddg.add_dependence(cp, c)
    with pytest.raises(DdgValidationError, match="reads"):
        validate_ddg(ddg)


def test_dead_copy():
    ddg = Ddg("cp3")
    src = ddg.add_operation(Opcode.LOAD, name="src")
    cp = ddg.add_operation(Opcode.COPY, name="cp")
    ddg.add_dependence(src, cp)
    with pytest.raises(DdgValidationError, match="dead"):
        validate_ddg(ddg)


def test_move_arity():
    ddg = Ddg("mv")
    src = ddg.add_operation(Opcode.LOAD, name="src")
    mv = ddg.add_operation(Opcode.MOVE, name="mv")
    ddg.add_dependence(src, mv)
    with pytest.raises(DdgValidationError, match="move"):
        validate_ddg(ddg)  # no consumer


def test_is_valid_bool(daxpy_ddg):
    assert is_valid(daxpy_ddg)


def test_insert_copies_output_always_validates(synth_sample):
    for ddg in synth_sample:
        out = insert_copies(ddg).ddg
        validate_ddg(out)  # must not raise
