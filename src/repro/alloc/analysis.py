"""Scheme-independent kernel analysis for the allocator.

Everything the allocation pipeline computes *before* it looks at an
:class:`~repro.alloc.allocator.AllocationConfig` — the control-flow
graph, strand partition, reaching definitions, register instances
(webs), read-operand groups, and the divergence-hazard fencing baked
into them — depends only on the kernel's architectural content plus one
bit of configuration: the ``assume_persistent_strands`` limit-study
flag, which changes where strands end.  A multi-config sweep
(sensitivity studies, the bench harness's 18-scheme software grid, the
auto-tuner direction in the ROADMAP) therefore re-derives identical
structures once per config unless the analysis is factored out.

:class:`KernelAnalysis` is that factored phase.  :func:`analyze_kernel`
computes one from scratch on a pristine clone of the kernel (the clone
is owned by the analysis and never annotated — per-config levels passes
annotate their *own* clones, resolving instruction refs by position);
:func:`kernel_analysis` memoizes by ``(content fingerprint,
assume_persistent)`` exactly like the compiled-trace layer's liveness
cache.  Attaching a :class:`~repro.obs.provenance.ProvenanceRecorder`
to an allocation never touches this cache: every provenance event is
emitted by the per-config levels pass, so recorded and unrecorded runs
share the same cached analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.cfg import ControlFlowGraph
from ..analysis.reaching import ReachingDefinitions
from ..engine.cache import BoundedCache
from ..ir.kernel import Kernel
from ..obs.tracer import TRACER
from ..strands.model import StrandPartition
from ..strands.partition import partition_strands
from .webs import StrandValues, build_strand_values


@dataclass
class KernelAnalysis:
    """The scheme-independent inputs to the per-config levels pass.

    ``kernel`` is the analysis's private pristine clone; all contained
    refs (:class:`~repro.ir.kernel.InstructionRef`) are position-based
    and resolve identically on any structurally identical kernel, which
    is what lets one analysis drive annotation of many per-config
    clones.  Instances are immutable by convention: the levels pass
    only reads them.
    """

    fingerprint: str
    assume_persistent: bool
    kernel: Kernel
    cfg: ControlFlowGraph
    reaching: ReachingDefinitions
    partition: StrandPartition
    strand_values: List[StrandValues]


def analyze_kernel(
    kernel: Kernel, assume_persistent: bool = False
) -> KernelAnalysis:
    """Run the scheme-independent pipeline phase on a clone of ``kernel``.

    Uncached: every call pays full analysis cost.  Use
    :func:`kernel_analysis` unless you specifically need a fresh
    instance (the bench harness times this function to isolate the
    analysis share of a cold allocation).
    """
    clone = kernel.clone()
    with TRACER.span(
        "alloc.analysis",
        kernel=kernel.name,
        persistent=assume_persistent,
    ):
        with TRACER.span("alloc.partition"):
            cfg = ControlFlowGraph(clone)
            partition = partition_strands(
                clone, cfg, assume_persistent=assume_persistent
            )
        with TRACER.span("alloc.webs"):
            reaching = ReachingDefinitions(clone, cfg)
            strand_values = build_strand_values(
                clone, partition, reaching, cfg=cfg
            )
    return KernelAnalysis(
        fingerprint=kernel.content_fingerprint(),
        assume_persistent=assume_persistent,
        kernel=clone,
        cfg=cfg,
        reaching=reaching,
        partition=partition,
        strand_values=strand_values,
    )


#: (kernel content fingerprint, assume_persistent) -> KernelAnalysis.
#: Bounded so long fuzz runs cannot accumulate kernels.
_ANALYSIS_ENTRIES = 128
_ANALYSIS_CACHE = BoundedCache("alloc.analyses", _ANALYSIS_ENTRIES)


def kernel_analysis(
    kernel: Kernel, assume_persistent: bool = False
) -> KernelAnalysis:
    """Cached accessor for :func:`analyze_kernel`.

    Analysis is deterministic in the kernel's architectural content, so
    a fingerprint hit is exact; structurally identical kernels (and all
    their clones) share one entry per ``assume_persistent`` flavour.
    """
    return _ANALYSIS_CACHE.get_or_compute(
        (kernel.content_fingerprint(), assume_persistent),
        lambda: analyze_kernel(kernel, assume_persistent),
    )
