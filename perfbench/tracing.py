"""Span tracing around the calls into each layer of the served path.

The wrappers are installed on the live objects of one service process by
:func:`install`; nothing in the program itself is changed.  Every traced
call is counted and timed, and its *self time* -- its duration minus the
part its child spans cover -- is accumulated exactly.  One root span in
``sample_every`` is also kept in full, with its descendants, as span
records ``(id, name, start_ns, end_ns, parent_id, key)`` where ``key`` is
the packet's ``flow#seq`` wire identity wherever a layer sees one.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

#: Sampled span records kept in memory at most (the rest are only counted).
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 sample_every: int = 64):
        self.clock = clock
        self.sample_every = sample_every
        self.count: Dict[str, int] = {}
        self.units: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.spans: List[tuple] = []
        # Open spans: [name, start, covered_ns, span_id or None, key].
        self._stack: List[list] = []
        self._roots = 0
        self._next_id = 0
        #: Total duration of the outermost spans (no double counting).
        self.root_ns = 0

    def span(self, name: str, fn: Callable[..., Any],
             units: Optional[Callable[..., int]] = None,
             key_of_args: Optional[Callable[..., str]] = None,
             key_of_result: Optional[Callable[[Any], Optional[str]]] = None,
             ) -> Callable[..., Any]:
        """Wrap ``fn`` so every call records a span called ``name``.

        ``units(*args)`` counts the work items of a call (packets in a
        batch); by default a call is one unit.
        """
        clock = self.clock
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            if parent is None:
                self._roots += 1
                sampled = self._roots % self.sample_every == 0
            else:
                sampled = parent[3] is not None
            span_id = None
            if sampled and len(self.spans) < MAX_SPANS:
                span_id = self._next_id
                self._next_id += 1
            key = key_of_args(*args) if key_of_args is not None else (
                parent[4] if parent is not None else None)
            frame = [name, 0, 0, span_id, key]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if key_of_result is not None and span_id is not None:
                    frame[4] = key_of_result(result)
                    if parent is not None and parent[4] is None:
                        parent[4] = frame[4]
                return result
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end, parent, units(*args) if units else 1)

        return traced

    def _close(self, frame: list, end: int, parent: Optional[list],
               units: int) -> None:
        name, start, covered, span_id, key = frame
        duration = end - start
        self.count[name] = self.count.get(name, 0) + 1
        self.units[name] = self.units.get(name, 0) + units
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - covered
        if parent is not None:
            parent[2] += duration
        else:
            self.root_ns += duration
        if span_id is not None:
            parent_id = parent[3] if parent is not None else None
            self.spans.append((span_id, name, start, end, parent_id, key))

    def totals(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "count": self.count[name],
                "units": self.units[name],
                "total_ns": self.total_ns[name],
                "self_ns": self.self_ns[name],
            }
            for name in sorted(self.count)
        }


def _packet_key(flow: Any, seq: Any, *rest: Any) -> str:
    return f"{flow}#{seq}"


class _TracedTransport:
    """Stands in for a datagram transport; times each ``sendto``."""

    def __init__(self, transport: Any, sendto: Callable[..., Any]):
        self._transport = transport
        self.sendto = sendto

    def __getattr__(self, name: str) -> Any:
        return getattr(self._transport, name)


def install(service: Any, tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of one ``ServeService``.

    Call after the sockets are bound (the reflect transport is wrapped
    through the bound protocol) and before traffic starts.
    """
    from repro.obs.core import Telemetry
    from repro.serve import ingress
    from repro.serve.control import ControlServer

    span = tracer.span
    plane = service.dataplane
    sched = service.scheduler
    ingress.decode_packet = span(
        "wire.decode", ingress.decode_packet,
        key_of_result=lambda r: f"{r[0]}#{r[1]}")
    ingress.encode_departure = span(
        "wire.encode", ingress.encode_departure, key_of_args=_packet_key)
    plane.classifier = span("wire.classify", plane.classifier)
    plane.ingest = span("ingress.ingest", plane.ingest)
    plane._deliver_burst = span("ingress.deliver", plane._deliver_burst)
    service.link.offer_batch = span(
        "link.offer_batch", service.link.offer_batch,
        units=lambda packets, *rest: len(packets))
    sched.enqueue_batch = span(
        "sched.enqueue_batch", sched.enqueue_batch,
        units=lambda packets, *rest: len(packets))
    sched.dequeue = span("sched.dequeue", sched.dequeue)
    sched.check_invariants = span("watchdog.check", sched.check_invariants)
    service.loop.run = span("engine.run", service.loop.run)
    service.write_snapshot = span("persist.snapshot", service.write_snapshot)
    for hook in ("on_enqueue", "on_dequeue", "on_hfsc_serve", "on_depart",
                 "on_drop"):
        # The hub has __slots__, so its methods are wrapped on the class.
        setattr(Telemetry, hook, span("obs.hook", getattr(Telemetry, hook)))
    for transport in service._transports:
        protocol = transport.get_protocol()
        protocol.transport = _TracedTransport(
            transport, span("ingress.reflect_send", transport.sendto))
    dispatch = ControlServer.dispatch
    by_op: Dict[str, Callable[..., Any]] = {}

    def traced_dispatch(server: Any, request: Dict[str, Any]) -> Any:
        op = str(request.get("op"))
        if op not in by_op:
            by_op[op] = span(f"control.dispatch.{op}", dispatch)
        return by_op[op](server, request)

    ControlServer.dispatch = traced_dispatch
