"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve.py --ledger-out L.json -- --port 8079 --jobs 1

Installs the pipeline wrappers of ``layers.py`` plus the service's
own spans, serves until SIGTERM (the server drains as usual), then
writes the span ledger to ``--ledger-out``.  The span tree of one job
request is::

    service.handle                 request handler (loop thread)
      service.normalize            request validation, parses the kernel
      service.submit               waiting for the job: queue + dedup
        service.job                the job, run in the worker thread
          ir.parse, alloc.*, sim.*  the pipeline layers it called

The job span is parented under the submitting request's wait span by
running the job in the context captured at submit time, so the wait's
self time is the queueing the request saw.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import sys

from common import SRC

sys.path.insert(0, str(SRC))

from ledger import Ledger, Patches, Target, install  # noqa: E402


def install_service(ledger: Ledger) -> Patches:
    """Wrap the pipeline layers and the service's request path."""
    from repro.service import batcher, server

    from layers import pipeline_targets

    patches = install(
        ledger,
        pipeline_targets()
        + [
            Target(
                "service.normalize",
                "repro.service.protocol",
                "normalize_request",
            ),
            Target("service.job", "repro.service.pipeline", "run_service_job"),
        ],
    )

    def replace(owner, name, value) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else (
            getattr(owner, name)
        )
        patches.replaced.append((owner, name, original))
        setattr(owner, name, value)

    handle = server.ServiceServer.__dict__["handle"]
    job_handle = ledger.wrap("service.handle", handle)
    admin_handle = ledger.wrap("service.admin", handle)

    async def traced_handle(self, request):
        path = request.target.split("?", 1)[0]
        chosen = job_handle if path.startswith("/v1/") else admin_handle
        return await chosen(self, request)

    contexts = {}
    submit = batcher.JobBatcher.__dict__["submit"]

    async def remember_context(self, job, timeout=None):
        contexts.setdefault(job.fingerprint, contextvars.copy_context())
        return await submit(self, job, timeout)

    fingerprints = {}
    run_job = server.ServiceServer.__dict__["_run_job"]

    async def remember_fingerprint(self, job):
        fingerprints[id(job.payload)] = job.fingerprint
        return await run_job(self, job)

    job = server.run_service_job  # the ledger wrapper installed above

    def job_in_submit_context(payload):
        context = contexts.pop(fingerprints.pop(id(payload), None), None)
        if context is None:
            return job(payload)
        return context.run(job, payload)

    replace(server.ServiceServer, "handle", traced_handle)
    replace(
        batcher.JobBatcher,
        "submit",
        ledger.wrap("service.submit", remember_context),
    )
    replace(server.ServiceServer, "_run_job", remember_fingerprint)
    replace(server, "run_service_job", job_in_submit_context)
    return patches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as repro_main

    ledger = Ledger()
    patches = install_service(ledger)
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        patches.restore()
    with open(args.ledger_out, "w", encoding="utf-8") as handle:
        json.dump(ledger.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
