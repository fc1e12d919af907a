"""Unit tests for basic blocks and kernels (structure, CFG edges,
validation)."""

import pytest

from repro.ir import (
    BasicBlock,
    Kernel,
    KernelBuilder,
    KernelValidationError,
    Opcode,
    parse_kernel,
)
from repro.ir.registers import gpr, pred


def _branchy_kernel() -> Kernel:
    b = KernelBuilder("branchy", live_in=[gpr(0)])
    b.block("entry")
    b.op(Opcode.SETP, pred(0), gpr(0), 5)
    b.bra("other", guard=pred(0))
    b.block("fall")
    b.op(Opcode.IADD, gpr(1), gpr(0), 1)
    b.bra("end")
    b.block("other")
    b.op(Opcode.IADD, gpr(1), gpr(0), 2)
    b.block("end")
    b.op(Opcode.STG, None, gpr(0), gpr(1))
    b.exit()
    return b.build()


class TestBasicBlock:
    def test_terminator_detection(self):
        from repro.ir.instructions import Instruction

        block = BasicBlock("b")
        assert block.terminator is None
        block.append(Instruction(Opcode.IADD, gpr(0), (gpr(1), gpr(2))))
        assert block.terminator is None

    def test_falls_through_rules(self):
        from repro.ir.instructions import Instruction

        block = BasicBlock("b")
        block.append(Instruction(Opcode.IADD, gpr(0), (gpr(1), gpr(2))))
        assert block.falls_through
        block.append(Instruction(Opcode.BRA, None, (), target="x"))
        assert not block.falls_through

    def test_conditional_branch_falls_through(self):
        from repro.ir.instructions import Instruction

        block = BasicBlock("b")
        block.append(
            Instruction(Opcode.BRA, None, (), guard=pred(0), target="x")
        )
        assert block.falls_through
        assert block.branch_target == "x"

    def test_exit_does_not_fall_through(self):
        from repro.ir.instructions import Instruction

        block = BasicBlock("b")
        block.append(Instruction(Opcode.EXIT, None, ()))
        assert not block.falls_through


class TestKernelStructure:
    def test_successors_conditional(self):
        kernel = _branchy_kernel()
        entry = kernel.block_index("entry")
        assert set(kernel.successors(entry)) == {
            kernel.block_index("other"),
            kernel.block_index("fall"),
        }

    def test_successors_unconditional(self):
        kernel = _branchy_kernel()
        fall = kernel.block_index("fall")
        assert kernel.successors(fall) == (kernel.block_index("end"),)

    def test_predecessors(self):
        kernel = _branchy_kernel()
        preds = kernel.predecessors_map()
        end = kernel.block_index("end")
        assert set(preds[end]) == {
            kernel.block_index("fall"),
            kernel.block_index("other"),
        }

    def test_backward_edges(self, loop_kernel):
        targets = loop_kernel.backward_branch_targets()
        assert targets == {loop_kernel.block_index("loop")}

    def test_no_backward_edges_in_dag(self):
        assert _branchy_kernel().backward_branch_targets() == set()

    def test_instruction_refs_are_sequential(self, loop_kernel):
        positions = [ref.position for ref, _ in loop_kernel.instructions()]
        assert positions == list(range(loop_kernel.num_instructions))

    def test_instruction_at_round_trip(self, loop_kernel):
        for ref, instruction in loop_kernel.instructions():
            assert loop_kernel.instruction_at(ref) is instruction

    def test_registers_used(self, straight_kernel):
        regs = straight_kernel.registers_used()
        assert gpr(0) in regs and gpr(7) in regs

    def test_num_architectural_registers(self, straight_kernel):
        assert straight_kernel.num_architectural_registers == 8


def _fresh_fingerprint(kernel: Kernel) -> str:
    """The fingerprint recomputed from the kernel's current text."""
    cached = kernel.__dict__.pop("_content_fingerprint", None)
    try:
        return kernel.content_fingerprint()
    finally:
        kernel.__dict__["_content_fingerprint"] = cached


class TestClone:
    def test_clone_inherits_cached_fingerprint(self, loop_kernel):
        from repro.alloc import AllocationConfig, allocate_kernel

        fingerprint = loop_kernel.content_fingerprint()
        clone = loop_kernel.clone()
        assert clone.__dict__.get("_content_fingerprint") == fingerprint
        assert _fresh_fingerprint(clone) == fingerprint
        allocate_kernel(clone, AllocationConfig(orf_entries=3))
        assert clone.content_fingerprint() == fingerprint
        assert _fresh_fingerprint(clone) == fingerprint

    def test_clone_of_unhashed_kernel_hashes_lazily(self):
        kernel = _branchy_kernel()
        clone = kernel.clone()
        assert "_content_fingerprint" not in clone.__dict__
        assert clone.content_fingerprint() == kernel.content_fingerprint()


class TestValidation:
    def test_unknown_branch_target(self):
        b = KernelBuilder("bad")
        b.block("entry")
        b.bra("nowhere")
        with pytest.raises(KernelValidationError):
            b.build()

    def test_fall_off_end(self):
        b = KernelBuilder("bad")
        b.block("entry")
        b.op(Opcode.IADD, gpr(0), 1, 2)
        with pytest.raises(KernelValidationError):
            b.build()

    def test_empty_block(self):
        b = KernelBuilder("bad")
        b.block("entry")
        b.block("second")
        b.exit()
        with pytest.raises(KernelValidationError):
            b.build()

    def test_duplicate_labels(self):
        b = KernelBuilder("bad")
        b.block("entry")
        b.exit()
        b.block("entry")
        b.exit()
        with pytest.raises(KernelValidationError):
            b.build()

    def test_mid_block_branch_rejected(self):
        from repro.ir.instructions import Instruction

        block = BasicBlock("entry")
        block.append(Instruction(Opcode.BRA, None, (), target="entry"))
        block.append(Instruction(Opcode.EXIT, None, ()))
        with pytest.raises(KernelValidationError):
            Kernel("bad", [block]).validate()

    def test_no_blocks(self):
        with pytest.raises(KernelValidationError):
            Kernel("bad", []).validate()

    def test_valid_kernels_pass(self, loop_kernel, hammock_kernel):
        loop_kernel.validate()
        hammock_kernel.validate()


class TestBuilder:
    def test_immediate_coercion(self):
        b = KernelBuilder("k")
        b.block("entry")
        inst = b.op(Opcode.IADD, gpr(0), gpr(1), 42)
        b.exit()
        from repro.ir.instructions import Immediate

        assert inst.srcs[1] == Immediate(42)

    def test_float_coercion(self):
        b = KernelBuilder("k")
        b.block("entry")
        inst = b.op(Opcode.FMUL, gpr(0), gpr(1), 2.5)
        b.exit()
        assert inst.srcs[1].value == 2.5

    def test_bad_source_type_rejected(self):
        b = KernelBuilder("k")
        b.block("entry")
        with pytest.raises(TypeError):
            b.op(Opcode.IADD, gpr(0), gpr(1), "nope")

    def test_emit_without_block_rejected(self):
        b = KernelBuilder("k")
        with pytest.raises(ValueError):
            b.op(Opcode.IADD, gpr(0), 1, 2)

    def test_reset_annotations(self, loop_kernel):
        for _, inst in loop_kernel.instructions():
            inst.ensure_default_annotations()
            inst.ends_strand = True
        loop_kernel.reset_annotations()
        assert all(
            inst.dst_ann is None and not inst.ends_strand
            for _, inst in loop_kernel.instructions()
        )
