"""Self-tests of the benchmark (not of the program).

    python3 -m pytest perfbench -q

They check that the benchmark would notice a wrong output, that the
traced run's wrappers are removed again and add up, and that the
untraced path wraps nothing.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import threading
import time

import pytest

from common import (
    BENCH_DIR,
    ENVELOPE_KEYS,
    SRC,
    canonical_digest,
    child_env,
    load_golden,
    percentile,
    text_digest,
)

sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import service_wl  # noqa: E402
import units  # noqa: E402
from ledger import Ledger, install, installed_wrappers  # noqa: E402


# -- corrupted outputs are failed operations --------------------------------


def test_corrupted_figure_counts_as_failed():
    golden = load_golden()
    good = {"name": "fig13", "digest": golden["figures"]["fig13"]}
    bad = {"name": "fig2", "digest": text_digest("corrupted figure text\n")}
    assert units._check("figures", [good, bad], golden) == 1
    assert good["ok"] and not bad["ok"]


def test_corrupted_sweep_result_counts_as_failed():
    golden = load_golden()
    name = "matrixmul"
    good = {"name": name, "digest": golden["sweep"][name]}
    bad = {"name": "fuzz:100", "digest": canonical_digest({"best": None})}
    assert units._check("design_sweep", [good, bad], golden) == 1


def _response_digest(payload):
    body = dict(payload)
    body["fingerprint"] = "f" * 64
    body["served_from"] = "computed"
    return service_wl._digest(200, json.dumps(body).encode())


def test_corrupted_or_unexpected_response_counts_as_failed():
    plan = [
        service_wl.Request("allocate", b"{}", 200, 0),
        service_wl.Request("evaluate", b"{}", 200, 0),
        service_wl.Request("allocate", b"{}", 400, -1),
        service_wl.Request("allocate", b"{}", 200, 1),
    ]
    result = {"schema": 1, "op": "allocate", "summary": {"webs": 3}}
    corrupted = {"schema": 1, "op": "allocate", "summary": {"webs": 4}}
    expected = {
        (0, "allocate"): canonical_digest(result),
        (0, "evaluate"): canonical_digest(result),
        (1, "allocate"): canonical_digest(result),
    }
    outcomes = [
        service_wl.Outcome(200, 0.01, _response_digest(result)),
        service_wl.Outcome(200, 0.01, _response_digest(corrupted)),
        service_wl.Outcome(200, 0.01, _response_digest(result)),
        service_wl.Outcome(None, 0.01, None, error="ConnectionResetError"),
    ]
    # Envelope keys never take part in the comparison.
    assert set(ENVELOPE_KEYS) >= {"fingerprint", "served_from"}
    assert service_wl.check(plan, outcomes[:1], expected) == 0
    # Corrupted body, 200 where 400 was due, and a dropped request.
    assert service_wl.check(plan, outcomes, expected) == 3


# -- wrappers ----------------------------------------------------------------


def _bindings():
    """id of every object bound in every ``repro`` module and class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            snapshot[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in list(vars(value).items()):
                    snapshot[(name, attr, member)] = id(inner)
    return snapshot


def _all_targets():
    from repro import experiments  # noqa: F401
    from repro.service import server  # noqa: F401
    from repro.tuner import runner  # noqa: F401

    return layers.pipeline_targets() + layers.figure_targets()


def test_wrappers_restore_every_patched_name():
    targets = _all_targets()
    before = _bindings()
    patches = install(Ledger(), targets)
    try:
        wrapped = installed_wrappers()
        # Defining modules and importing modules are both patched.
        assert "repro.alloc.allocator._levels_pass" in wrapped
        assert "repro.service.protocol.parse_kernels" in wrapped
        assert "repro.service.pipeline.parse_kernels" in wrapped
        assert "repro.engine.engine.ExperimentEngine.evaluate_batch" in wrapped
        assert "repro.experiments.run_limit_study" in wrapped
    finally:
        patches.restore()
    assert installed_wrappers() == []
    assert _bindings() == before


def test_service_wrappers_restore_every_patched_name():
    import serve

    _all_targets()
    before = _bindings()
    from repro.service.server import ServiceServer

    handle = ServiceServer.handle
    patches = serve.install_service(Ledger())
    try:
        wrapped = installed_wrappers()
        assert ServiceServer.handle is not handle
        assert "repro.service.batcher.JobBatcher.submit" in wrapped
        assert "repro.service.server.normalize_request" in wrapped
    finally:
        patches.restore()
    assert installed_wrappers() == []
    assert _bindings() == before


# -- additivity --------------------------------------------------------------


def test_self_times_add_up_to_the_traced_total():
    ledger = Ledger()

    def leaf(seconds):
        time.sleep(seconds)

    wrapped_leaf = ledger.wrap("leaf", leaf)

    def middle():
        time.sleep(0.002)
        wrapped_leaf(0.003)
        wrapped_leaf(0.001)

    wrapped_middle = ledger.wrap("middle", middle)

    async def handler():
        wrapped_middle()
        await asyncio.sleep(0.002)
        wrapped_leaf(0.001)

    wrapped_handler = ledger.wrap("handler", handler)

    async def two_tasks():
        await asyncio.gather(wrapped_handler(), wrapped_handler())

    started = time.perf_counter()
    with ledger.span("root"):
        wrapped_middle()
        # A thread starts with no open span: its calls are roots.
        thread = threading.Thread(target=wrapped_middle)
        thread.start()
        thread.join()
        asyncio.run(two_tasks())
    wall = time.perf_counter() - started

    ok, error = ledger.check()
    assert ok and error < 1e-9
    assert ledger.self_sum_s() == pytest.approx(ledger.root_s, rel=1e-9)
    # Two concurrent handlers each charged only their own children
    # (a child charged to the wrong parent would make a self time
    # negative): each awaited at least 2 ms itself.
    assert ledger.calls("handler") == 2
    assert 0.004 <= ledger.self_s("handler") < 0.05
    # Roots are the main span and the thread's call, which started
    # with no open span of its own.
    assert ledger.total_s("root") < ledger.root_s
    assert ledger.root_s < ledger.total_s("root") + ledger.total_s("middle")
    assert ledger.total_s("root") <= wall


def test_ledger_round_trips_through_json():
    ledger = Ledger()
    ledger.wrap("f", lambda: None)()
    ledger.count("n", 3)
    copy = Ledger.from_dict(json.loads(json.dumps(ledger.to_dict())))
    assert copy.calls("f") == 1 and copy.counters == {"n": 3}
    assert copy.root_s == ledger.root_s


# -- the untraced path -------------------------------------------------------


def _worker(*extra):
    out = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", "design_sweep", "--seed", "0", "--every", "48",
            *extra,
        ],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.splitlines()
    return json.loads(out[-1].split(" ", 1)[1])


def test_untraced_path_installs_no_wrapper():
    plain = _worker()
    assert plain["wrapped"] == [] and plain["ledger"] is None
    traced = _worker("--trace")
    assert "repro.alloc.allocator._levels_pass" in traced["wrapped"]
    assert traced["units"][0]["digest"] == plain["units"][0]["digest"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([3.0], 0.99) == 3.0
