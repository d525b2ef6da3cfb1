"""The service process: one fresh ``ServeService`` per spawn.

Run from the repository root (``python3 perfbench/server.py ...``).  It
builds the service through the same public constructors ``repro serve``
uses, binds an ephemeral loopback UDP port and the control socket, prints
one ``{"ready": ...}`` line, serves until the ``shutdown`` control op,
and prints one final JSON line with its exit summary, peak RSS and,
when traced, the per-layer span totals.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def build_service(workload: str):
    from repro.serve.service import ServeService

    if workload == "udp-small":
        return ServeService(workloads.small_specs(), workloads.SMALL_LINK_RATE)
    if workload == "udp-backlog-ctl":
        return ServeService(workloads.backlog_specs(),
                            workloads.BACKLOG_LINK_RATE)
    raise SystemExit(f"unknown workload {workload!r}")


def emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, default=str) + "\n")
    sys.stdout.flush()


async def serve(service, ctl: str, tracer) -> None:
    sockname = await service.start_udp("127.0.0.1", 0)
    await service.start_control(ctl)
    if tracer is not None:
        install(service, tracer)
    emit({"ready": True, "port": sockname[1], "pid": os.getpid()})
    await service.run()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ctl", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", default=None,
                        help="write the sampled span records here (JSON)")
    args = parser.parse_args()

    service = build_service(args.workload)
    tracer = Tracer() if args.trace else None
    from repro.obs.core import telemetry_session

    telemetry = (telemetry_session(record_packets=False)
                 if args.workload == "udp-backlog-ctl"
                 else contextlib.nullcontext())
    with telemetry:
        asyncio.run(serve(service, args.ctl, tracer))
    result = {"summary": service.summary()}
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = {"totals": tracer.totals(), "root_ns": tracer.root_ns,
                           "spans_kept": len(tracer.spans)}
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start_ns", "end_ns",
                                      "parent_id", "key"],
                           "spans": tracer.spans}, fh)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
