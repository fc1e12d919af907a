"""Regenerate ``golden.json``, the benchmark's expected outputs.

    python3 perfbench/make_golden.py

* ``figures``: the SHA-256 of each of the ten rendered figures at scale
  1.0, computed on the compiled accounting path and cross-checked
  against a second run on the scalar oracle path
  (``REPRO_COMPILED=0``) in a fresh process, so the golden does not
  come only from the code under test.  A mismatch aborts.
* ``sweep``: for every suite kernel and every fuzz kernel of
  ``fuzz_pool``, the digest of the exhaustive tune's best config and
  frontier.

Regenerate only when a change is *meant* to alter outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    FIGURES,
    GOLDEN_PATH,
    SRC,
    canonical_digest,
    child_env,
    text_digest,
)

sys.path.insert(0, str(SRC))

#: Fuzz-kernel seeds the design sweep draws from.
FUZZ_POOL = list(range(100, 164))


def figure_digests() -> dict:
    from repro.experiments import SuiteData
    from repro.workloads.suites import all_workloads

    from layers import figure_functions

    data = SuiteData.build(all_workloads(1.0), scale=1.0)
    digests = {}
    for name in FIGURES:
        run, fmt = figure_functions(name)
        digests[name] = text_digest(fmt(run(data)))
    return digests


def sweep_digests(names) -> dict:
    from repro.engine import ExperimentEngine
    from repro.sim.runner import build_traces
    from repro.tuner.runner import run_tune
    from repro.tuner.space import default_space

    from worker import sweep_spec

    space = default_space()
    digests = {}
    for name in names:
        spec = sweep_spec(name)
        payload = run_tune(
            build_traces(spec.kernel, spec.warp_inputs),
            space=space,
            strategy="exhaustive",
            budget=space.valid_size(),
            engine=ExperimentEngine(),
        )
        digests[name] = canonical_digest(
            {"best": payload["best"], "frontier": payload["frontier"]}
        )
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--figures-json",
        action="store_true",
        help="print this process's figure digests as JSON and exit",
    )
    args = parser.parse_args(argv)
    if args.figures_json:
        print(json.dumps(figure_digests()))
        return 0

    started = time.perf_counter()
    compiled = figure_digests()
    env = child_env()
    env["REPRO_COMPILED"] = "0"
    scalar = json.loads(
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--figures-json"],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )
    if scalar != compiled:
        differing = sorted(k for k in compiled if compiled[k] != scalar.get(k))
        print(f"compiled and scalar figures differ: {differing}")
        return 1
    print(f"figures: compiled == scalar ({time.perf_counter() - started:.0f}s)")

    from repro.workloads.suites import BENCHMARK_NAMES

    sweep = sweep_digests(
        list(BENCHMARK_NAMES) + [f"fuzz:{seed}" for seed in FUZZ_POOL]
    )
    golden = {
        "figures": compiled,
        "figures_cross_checked": "REPRO_COMPILED=0",
        "fuzz_pool": FUZZ_POOL,
        "sweep": sweep,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({time.perf_counter() - started:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
