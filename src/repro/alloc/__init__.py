"""Compile-time hierarchy allocation — the paper's core contribution
(Section 4)."""

from .allocator import (
    AllocationConfig,
    AllocationResult,
    ReadOperandAssignment,
    WebAssignment,
    allocate_kernel,
    allocate_kernels_batch,
)
from .analysis import (
    KernelAnalysis,
    analyze_kernel,
    kernel_analysis,
)
from .intervals import EntryFile
from .serialize import (
    AnnotationFormatError,
    annotations_from_dict,
    annotations_to_dict,
    dump_annotations,
    load_annotations,
)
from .savings import (
    occupancy_slots,
    priority,
    read_operand_savings,
    value_allocation_savings,
)
from .webs import (
    ReadOperandCandidate,
    StrandValues,
    Web,
    WebRead,
    build_strand_values,
)

__all__ = [
    "AllocationConfig",
    "AnnotationFormatError",
    "AllocationResult",
    "EntryFile",
    "KernelAnalysis",
    "analyze_kernel",
    "allocate_kernels_batch",
    "kernel_analysis",
    "ReadOperandAssignment",
    "ReadOperandCandidate",
    "StrandValues",
    "Web",
    "WebAssignment",
    "WebRead",
    "allocate_kernel",
    "annotations_from_dict",
    "annotations_to_dict",
    "dump_annotations",
    "load_annotations",
    "build_strand_values",
    "occupancy_slots",
    "priority",
    "read_operand_savings",
    "value_allocation_savings",
]
