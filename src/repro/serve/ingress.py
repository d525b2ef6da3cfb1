"""Datagram ingress: the edge between real sockets and the scheduler.

A :class:`Dataplane` accepts raw datagrams (UDP or unix-domain), parses
the serve wire format, classifies the flow onto a leaf class, enforces a
bounded per-class buffer, and injects the resulting
:class:`~repro.sim.packet.Packet` into the paced event loop at the
simulated time its arrival maps to.  On departure it reflects a notice to
the sender so ``repro load`` can measure goodput and latency.

Shedding happens at three points, each with its own counter -- the edge
never lets unbounded state build up and never lets an overload become an
exception on the hot path:

* ``shed_unparseable`` / ``shed_unknown`` -- not the wire format, or the
  classifier returned ``None``;
* ``shed_buffer`` -- the class already holds ``buffer_packets`` packets
  between scheduler arrival and departure (the bounded per-class buffer;
  real interfaces drop at the ring, not inside the scheduler);
* ``shed_overload`` -- the scheduler's admission check raised
  :class:`~repro.core.errors.OverloadError` under the ``raise`` overload
  policy.  Exactly like the chaos subsystem's
  :class:`~repro.sim.faults.ArrivalFaultGate`, the edge absorbs the
  structured failure as load shedding; the other PR-2 policies
  (``reject`` / ``scale-rt`` / ``linkshare-only``) degrade inside the
  scheduler instead and the packet is accepted.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, OverloadError
from repro.obs.core import TELEMETRY as _TELEM
from repro.serve.driver import RealTimeDriver
from repro.serve.wire import (
    Classifier,
    WireError,
    decode_packet,
    encode_departure,
)
from repro.sim.link import Link
from repro.sim.packet import Packet


class Dataplane:
    """Parse, classify, bound, inject; reflect departures back out.

    The dataplane owns no sockets -- each :class:`DatagramEndpoint` hands
    its datagrams to :meth:`ingest` together with its reflect sender,
    which is remembered per packet so the departure notice goes back out
    of the socket the packet came in on.
    """

    def __init__(
        self,
        driver: RealTimeDriver,
        link: Link,
        classifier: Classifier,
        buffer_packets: int = 256,
        reflect: bool = True,
    ):
        if buffer_packets <= 0:
            raise ConfigurationError("buffer_packets must be positive")
        self.driver = driver
        self.link = link
        self.classifier = classifier
        self.buffer_packets = buffer_packets
        self.reflect = reflect
        self.received = 0
        self.delivered = 0
        self.departed = 0
        self.reflected = 0
        self.shed_unparseable = 0
        self.shed_unknown = 0
        self.shed_buffer = 0
        self.shed_overload = 0
        #: Socket reads that returned an error instead of a datagram (the
        #: ICMP report of a vanished sender); each is skipped.
        self.read_errors = 0
        #: Packets currently between scheduler arrival and departure, per
        #: class -- the bounded buffer the edge enforces.
        self.backlog: Dict[Any, int] = {}
        self.bytes_in: float = 0.0
        self.bytes_out: float = 0.0
        # Reflect metadata by packet uid: (transport, addr, flow, seq, sent).
        self._meta: Dict[int, Tuple[Any, Any, str, int, float]] = {}
        # Arrival coalescing: datagrams accepted while a delivery event is
        # pending join its burst, so a storm of ingest() calls between two
        # event-loop turns costs one loop event (and one batched scheduler
        # call) instead of one per packet.
        self._burst: List[Packet] = []
        link.add_listener(self._on_departure, key="Dataplane.departure")

    # -- socket side ---------------------------------------------------------

    def ingest(self, data: bytes, addr: Any, transport: Any = None) -> Optional[Packet]:
        """One datagram in; returns the injected packet or ``None`` if shed."""
        self.received += 1
        try:
            flow, seq, sent = decode_packet(data)
        except WireError:
            self.shed_unparseable += 1
            return None
        class_id = self.classifier(flow, addr)
        if class_id is None:
            self.shed_unknown += 1
            if _TELEM.enabled:
                _TELEM.on_drop(flow, self.driver.loop.now, "unclassified")
            return None
        held = self.backlog.get(class_id, 0)
        if held >= self.buffer_packets:
            self.shed_buffer += 1
            if _TELEM.enabled:
                _TELEM.on_drop(class_id, self.driver.loop.now, "buffer")
            return None
        packet = Packet(class_id, float(len(data)))
        self.backlog[class_id] = held + 1
        self.bytes_in += packet.size
        # Reflect only when the sender is addressable (an unbound unix
        # datagram peer has no return address).
        if self.reflect and transport is not None and addr:
            self._meta[packet.uid] = (transport, addr, flow, seq, sent)
        # Into the deterministic event order at the wall-mapped sim time:
        # the first packet of a burst schedules the delivery event, later
        # ingests before it fires just join the batch.
        self._burst.append(packet)
        if len(self._burst) == 1:
            self.driver.call_soon(self._deliver_burst)
        return packet

    # -- event-loop side -----------------------------------------------------

    def _deliver_burst(self) -> None:
        """Offer every packet coalesced since the event was scheduled.

        The whole burst enters the scheduler through one
        :meth:`~repro.sim.link.Link.offer_batch` call, stamped at the
        burst event's simulated time.  Overload shedding stays granular:
        a refused batch falls back to per-packet offers so only the
        packets the admission policy actually rejects are shed.
        """
        batch = self._burst
        if not batch:
            return
        self._burst = []
        now = self.driver.loop.now
        for packet in batch:
            packet.created = now
        try:
            self.link.offer_batch(batch)
        except OverloadError:
            for packet in batch:
                if packet.enqueued is not None:
                    self.delivered += 1  # accepted before the batch aborted
                    continue
                self._deliver(packet)
            return
        self.delivered += len(batch)

    def _deliver(self, packet: Packet) -> None:
        packet.created = self.driver.loop.now
        try:
            self.link.offer(packet)
        except OverloadError:
            self.shed_overload += 1
            self._forget(packet)
            if _TELEM.enabled:
                _TELEM.on_drop(packet.class_id, self.driver.loop.now, "overload")
            return
        self.delivered += 1

    def _on_departure(self, packet: Packet, now: float) -> None:
        held = self.backlog.get(packet.class_id, 0)
        if held > 0:
            self.backlog[packet.class_id] = held - 1
        self.departed += 1
        self.bytes_out += packet.size
        meta = self._meta.pop(packet.uid, None)
        if meta is None:
            return
        transport, addr, flow, seq, sent = meta
        notice = encode_departure(
            flow, seq, sent,
            packet.enqueued if packet.enqueued is not None else now,
            now, packet.size,
        )
        try:
            transport.sendto(notice, addr)
            self.reflected += 1
        except (OSError, ValueError):
            # A sender that went away must not take the service with it.
            pass

    def _forget(self, packet: Packet) -> None:
        held = self.backlog.get(packet.class_id, 0)
        if held > 0:
            self.backlog[packet.class_id] = held - 1
        self._meta.pop(packet.uid, None)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def shed_total(self) -> int:
        return (self.shed_unparseable + self.shed_unknown
                + self.shed_buffer + self.shed_overload)

    def drop_reflect_state(self) -> int:
        """Forget pending reflect metadata (quiesce before a snapshot).

        Queued packets stay queued and will be served after a resume;
        only the "who asked" edge state -- live transports, unroutable
        across a restart -- is discarded.  Returns how many were dropped.
        """
        dropped = len(self._meta)
        self._meta.clear()
        return dropped

    def summary(self) -> Dict[str, Any]:
        return {
            "received": self.received,
            "delivered": self.delivered,
            "departed": self.departed,
            "reflected": self.reflected,
            "shed": {
                "unparseable": self.shed_unparseable,
                "unknown": self.shed_unknown,
                "buffer": self.shed_buffer,
                "overload": self.shed_overload,
                "total": self.shed_total,
            },
            "read_errors": self.read_errors,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "backlog": {str(k): v for k, v in sorted(
                self.backlog.items(), key=lambda kv: str(kv[0])) if v},
        }


class DatagramEndpoint:
    """One bound, non-blocking datagram socket (UDP or unix-domain).

    On each readiness event the endpoint reads datagrams with ``recvfrom``
    until the socket would block, hands each to :meth:`Dataplane.ingest`,
    and then pumps the driver inline (:meth:`RealTimeDriver.pump_after`),
    so a whole burst reaches :meth:`~repro.sim.link.Link.offer_batch` in
    the turn it arrived in.  A read error (the ICMP "port unreachable" a
    vanished sender leaves behind) consumes only itself; the drain goes
    on.

    The endpoint is also the reflect sender: :meth:`sendto` writes a
    notice straight out and, when the socket buffer is full, queues it
    behind a writer callback instead of dropping it.  Ingest is handed
    :attr:`transport` (by default the endpoint itself), looked up per
    readiness event so a wrapper installed there sends every notice.
    """

    #: Largest datagram read whole: any UDP datagram fits.
    RECV_SIZE = 65_535
    #: Datagrams read per readiness event at most, so a sender faster
    #: than the service cannot starve timers and control forever.
    MAX_BURST = 1024

    def __init__(self, aio: Any, sock: Any, dataplane: Dataplane):
        sock.setblocking(False)
        self._aio = aio
        self.sock = sock
        self.dataplane = dataplane
        self.transport: Any = self
        self._fd = sock.fileno()
        self._unsent: Deque[Tuple[bytes, Any]] = deque()
        aio.add_reader(self._fd, self._on_readable)

    def get_protocol(self) -> "DatagramEndpoint":
        """The endpoint is its own protocol: ``get_protocol().transport``
        is the reflect sender, as on an asyncio datagram transport."""
        return self

    def close(self) -> None:
        if self._fd < 0:
            return
        self._aio.remove_reader(self._fd)
        if self._unsent:
            self._aio.remove_writer(self._fd)
            self._unsent.clear()
        self._fd = -1
        self.sock.close()

    # -- receive -------------------------------------------------------------

    def _on_readable(self) -> None:
        self.dataplane.driver.pump_after(self._drain)

    def _drain(self) -> None:
        recvfrom = self.sock.recvfrom
        ingest = self.dataplane.ingest
        sender = self.transport
        size = self.RECV_SIZE
        for _ in range(self.MAX_BURST):
            try:
                data, addr = recvfrom(size)
            except BlockingIOError:
                return
            except OSError:
                self.dataplane.read_errors += 1
                continue
            ingest(data, addr, sender)

    # -- reflect -------------------------------------------------------------

    def sendto(self, data: bytes, addr: Any) -> None:
        if not self._unsent:
            try:
                self._send(data, addr)
                return
            except BlockingIOError:
                self._aio.add_writer(self._fd, self._flush)
        self._unsent.append((data, addr))

    def _send(self, data: bytes, addr: Any) -> None:
        try:
            self.sock.sendto(data, addr)
        except ConnectionRefusedError:
            # The ICMP report of an earlier datagram to another receiver
            # fails whichever call comes next, and is consumed by it.
            self.sock.sendto(data, addr)

    def _flush(self) -> None:
        unsent = self._unsent
        while unsent:
            data, addr = unsent[0]
            try:
                self._send(data, addr)
            except BlockingIOError:
                return
            except OSError:
                pass  # that receiver went away; the others still get theirs
            unsent.popleft()
        self._aio.remove_writer(self._fd)
