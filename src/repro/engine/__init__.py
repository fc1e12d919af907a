"""Job-based experiment engine: memoization, fan-out, run metrics.

See :mod:`repro.engine.engine` for the architecture overview and
``docs/architecture.md`` ("Experiment engine") for cache keying, merge
determinism, and the metrics JSON schema.
"""

__all__ = ["ExperimentEngine", "EvaluationJob", "RunMetrics"]


def __getattr__(name: str):
    # Lazy, so the allocator can import repro.engine.cache although the
    # engine imports the allocator.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import engine

    return getattr(engine, name)
