"""An output link: the server that drives a scheduler.

The link models a transmitter of fixed rate (bytes/second): it asks its
scheduler for a packet whenever it goes idle, holds it for
``size / rate`` seconds, stamps the departure (the time the last bit
leaves, the paper's Section VI convention), then repeats.  Observers --
statistics collectors, greedy sources, TCP receivers -- subscribe to
departures.

Non-work-conserving schedulers (H-FSC with rt-only or upper-limited
classes) may decline to hand over a packet while backlogged; the link then
re-polls at the scheduler's ``next_ready_time``.

The rate may change *live* (:meth:`Link.set_rate`): an in-flight packet's
departure is re-derived from the bytes still on the wire, and a rate of
zero models a full outage -- the transmission freezes and resumes when a
later ``set_rate`` restores capacity.  This is what the chaos subsystem
(:mod:`repro.sim.faults`) drives for rate-flap and outage faults.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.core.errors import SimulationError, SnapshotError
from repro.obs.core import TELEMETRY as _TELEM
from repro.sim.engine import Event, EventLoop
from repro.sim.packet import Packet

if TYPE_CHECKING:  # avoid a circular import; Scheduler is only a type hint
    from repro.schedulers.base import Scheduler

DepartureListener = Callable[[Packet, float], None]

#: How many times in a row (at one timestamp) the link will re-poll a
#: scheduler that declines to hand over a packet while claiming to be
#: ready *now*.  One or two re-polls are legitimate -- float round-off or
#: a reconfiguration can land a fit/eligible time exactly on the clock --
#: but an unbounded loop would livelock the event loop on a buggy
#: scheduler, so past this bound the link raises.
_MAX_READY_SPINS = 64


class Link:
    """Couples an :class:`EventLoop`, a :class:`Scheduler` and a transmitter."""

    def __init__(self, loop: EventLoop, scheduler: "Scheduler", rate: Optional[float] = None):
        self.loop = loop
        self.scheduler = scheduler
        self.rate = float(rate) if rate is not None else scheduler.link_rate
        if self.rate <= 0:
            raise SimulationError("link rate must be positive")
        self.busy = False
        self.bytes_sent = 0.0
        self.busy_time = 0.0
        self.departures = 0
        self._listeners: List[DepartureListener] = []
        self._listener_keys: List[str] = []
        self._class_listeners: Dict[Any, List[DepartureListener]] = {}
        self._class_listener_keys: Dict[Any, List[str]] = {}
        self._retry_event: Optional[Event] = None
        # In-flight transmission state (needed to re-derive the departure
        # when the rate changes mid-packet): the packet on the wire, the
        # bytes left at the last accounting point, that point's time, and
        # the pending completion event (None while an outage freezes the
        # packet, or when the busy-serve fast path runs the completion
        # inline).
        self._tx_packet: Optional[Packet] = None
        self._tx_remaining = 0.0
        self._tx_last = 0.0
        self._tx_event: Optional[Event] = None
        self._spin_time = -1.0
        self._spin_count = 0
        # Burst-serve state: the departure budget of an active
        # drain_batch() (None = unbudgeted), and whether we are inside
        # _complete's drain loop (fences a listener-triggered kick from
        # recursing back into the drain).
        self._drain_left: Optional[int] = None
        self._in_complete = False

    # -- wiring ---------------------------------------------------------------

    @staticmethod
    def _listener_key(listener: DepartureListener) -> str:
        """Stable registration key derived from the callback's identity.

        A snapshot stores the key sequence, and a restore demands the
        freshly-built context registered listeners under the same keys in
        the same order -- the cheap proof that the resumed wiring matches
        the crashed run's (callbacks themselves cannot be serialized).
        """
        owner = getattr(listener, "__self__", None)
        name = getattr(listener, "__name__", type(listener).__name__)
        if owner is not None:
            return f"{type(owner).__name__}.{name}"
        return name

    def add_listener(self, listener: DepartureListener,
                     key: Optional[str] = None) -> None:
        """Call ``listener(packet, departure_time)`` for every departure."""
        self._listeners.append(listener)
        self._listener_keys.append(key or self._listener_key(listener))

    def add_class_listener(self, class_id: Any, listener: DepartureListener,
                           key: Optional[str] = None) -> None:
        """Departure callback restricted to one class (used by greedy/TCP sources)."""
        self._class_listeners.setdefault(class_id, []).append(listener)
        self._class_listener_keys.setdefault(class_id, []).append(
            key or self._listener_key(listener)
        )

    # -- snapshot/restore (used by repro.persist) -----------------------------

    def snapshot_state(self, add_packet: Callable[[Packet], int]) -> Dict[str, Any]:
        """Serialize transmitter state; ``add_packet`` interns packets.

        Event handles are stored as their loop sequence numbers; the
        restore side rebinds them to the re-queued events so cancelling
        (e.g. a later ``set_rate``) still works on the resumed run.
        """
        return {
            "rate": self.rate,
            "busy": self.busy,
            "bytes_sent": self.bytes_sent,
            "busy_time": self.busy_time,
            "departures": self.departures,
            "tx_packet": (
                None if self._tx_packet is None else add_packet(self._tx_packet)
            ),
            "tx_remaining": self._tx_remaining,
            "tx_last": self._tx_last,
            "tx_event": None if self._tx_event is None else self._tx_event[1],
            "retry_event": (
                None if self._retry_event is None else self._retry_event[1]
            ),
            "spin_time": self._spin_time,
            "spin_count": self._spin_count,
            "listeners": list(self._listener_keys),
            "class_listeners": {
                str(class_id): list(keys)
                for class_id, keys in self._class_listener_keys.items()
            },
        }

    def restore_state(
        self,
        doc: Dict[str, Any],
        get_packet: Callable[[int], Packet],
        get_event: Callable[[int], Event],
    ) -> None:
        """Overlay a :meth:`snapshot_state` document onto this (fresh) link.

        Refuses documents whose listener registration keys do not match
        the wiring of the freshly-built context: a listener missing on
        resume would silently drop departures from records/statistics.
        """
        live = {
            "listeners": list(self._listener_keys),
            "class_listeners": {
                str(class_id): list(keys)
                for class_id, keys in self._class_listener_keys.items()
            },
        }
        saved = {
            "listeners": list(doc["listeners"]),
            "class_listeners": {
                key: list(keys) for key, keys in doc["class_listeners"].items()
            },
        }
        if live != saved:
            raise SnapshotError(
                "link listener registration keys do not match the rebuilt "
                "context",
                reason="listener-mismatch",
                context={"snapshot": saved, "live": live},
            )
        self.rate = doc["rate"]
        self.busy = doc["busy"]
        self.bytes_sent = doc["bytes_sent"]
        self.busy_time = doc["busy_time"]
        # Older snapshots (pre burst-serve) did not record the counter.
        self.departures = doc.get("departures", 0)
        self._tx_packet = (
            None if doc["tx_packet"] is None else get_packet(doc["tx_packet"])
        )
        self._tx_remaining = doc["tx_remaining"]
        self._tx_last = doc["tx_last"]
        self._tx_event = (
            None if doc["tx_event"] is None else get_event(doc["tx_event"])
        )
        self._retry_event = (
            None if doc["retry_event"] is None else get_event(doc["retry_event"])
        )
        self._spin_time = doc["spin_time"]
        self._spin_count = doc["spin_count"]

    # -- data path --------------------------------------------------------------

    def offer(self, packet: Packet) -> None:
        """A packet arrives at the scheduler now."""
        self.scheduler.enqueue(packet, self.loop.now)
        if not self.busy:
            self._kick()

    def offer_batch(self, packets: Sequence[Packet],
                    times: Optional[Sequence[float]] = None) -> None:
        """Several packets arrive at the scheduler in one call.

        All are enqueued (via the scheduler's amortized ``enqueue_batch``)
        before the idle link picks one, so the scheduler chooses among the
        whole batch -- the semantics of simultaneous arrivals in
        :func:`repro.sim.drive.drive` (per-``offer`` the idle link would
        start transmitting the first packet before the rest of the batch
        exists).

        An empty batch is a strict no-op: the link is not kicked, so a
        backlogged non-work-conserving scheduler is not re-polled early
        (which would burn spin-guard budget and could start a
        transmission the caller never asked for).

        ``times`` gives each packet its own arrival stamp, for ingress
        shims that coalesce a burst collected over a short window.  A
        stamp in the future of the loop clock is refused
        (:class:`SimulationError` -- the event order would be violated);
        a stamp that runs *backwards* within the batch is clamped up to
        its predecessor's, because schedulers require a monotone clock
        and the packets genuinely reached the scheduler in batch order.
        Batches may span a ``set_rate``/outage fault: packets queued
        while the rate is zero simply wait, and the resume kick comes
        from the later ``set_rate``.
        """
        if times is not None and len(times) != len(packets):
            raise SimulationError(
                f"offer_batch got {len(packets)} packets but "
                f"{len(times)} timestamps"
            )
        if not packets:
            return
        scheduler = self.scheduler
        now = self.loop.now
        if times is None:
            scheduler.enqueue_batch(packets, now)
        else:
            group_t: Optional[float] = None
            start = 0
            for idx, t in enumerate(times):
                t = float(t)
                if t > now:
                    raise SimulationError(
                        f"batched arrival stamped at {t:g} is in the "
                        f"future (clock is at {now:g})"
                    )
                if group_t is None:
                    group_t = t
                    continue
                if t < group_t:
                    t = group_t  # monotone clamp within the batch
                if t != group_t:
                    scheduler.enqueue_batch(packets[start:idx], group_t)
                    start = idx
                    group_t = t
            scheduler.enqueue_batch(packets[start:], group_t)
        if not self.busy:
            self._kick()

    def drain_batch(self, max_packets: Optional[int] = None) -> int:
        """Burst-serve the backlog inline; returns the departure count.

        The symmetric partner of :meth:`offer_batch` for trace replay and
        bench harnesses: start transmitting if idle (or finish the
        transmission already in flight, when its completion is the next
        live event) and run consecutive completions inline
        (:meth:`EventLoop.try_advance`) with no per-packet event-queue
        traffic.  The loop clock advances to the last completion served.

        Stops when the scheduler declines or empties, a pending loop
        event fences the inline advance (a scheduled fault or arrival
        must fire first -- the remaining completion becomes an ordinary
        heap event and the schedule is byte-identical to the unbatched
        run), or ``max_packets`` departures have been stamped.  The paced
        serving path gets the same drain implicitly through the
        completion handler.
        """
        if max_packets is not None and max_packets <= 0:
            return 0
        loop = self.loop
        before = self.departures
        self._drain_left = max_packets
        try:
            if not self.busy:
                self._kick(burst=True)
            else:
                event = self._tx_event
                if (
                    event is not None
                    and loop.is_next(event)
                    and loop.try_advance(event[0])
                ):
                    packet = self._tx_packet
                    event.cancel()
                    self._tx_event = None
                    self._complete(packet)
        finally:
            self._drain_left = None
        return self.departures - before

    def set_rate(self, rate: float) -> None:
        """Change the transmission rate live; ``0`` starts an outage.

        An in-flight packet keeps the bytes already transmitted: its
        departure is re-derived from the remaining bytes at the new rate.
        During an outage (rate 0) the packet freezes on the wire and the
        link neither transmits nor polls the scheduler; a later positive
        rate resumes exactly where it stopped.  Utilization accounting
        stays consistent: busy time integrates only the intervals in
        which bits actually flowed.
        """
        rate = float(rate)
        if not math.isfinite(rate) or rate < 0:
            raise SimulationError("link rate must be finite and non-negative")
        old = self.rate
        if rate == old:
            return
        now = self.loop.now
        self.rate = rate
        if _TELEM.enabled:
            _TELEM.on_rate_change(now, rate, old)
        if self.busy:
            elapsed = now - self._tx_last
            if old > 0 and elapsed > 0:
                self._tx_remaining -= elapsed * old
                if self._tx_remaining < 0.0:
                    self._tx_remaining = 0.0
                self.busy_time += elapsed
            self._tx_last = now
            if self._tx_event is not None:
                self._tx_event.cancel()
                self._tx_event = None
            if rate > 0:
                self._tx_event = self.loop.schedule(
                    now + self._tx_remaining / rate, self._complete, self._tx_packet
                )
        elif rate > 0 and old == 0:
            # Outage ended with nothing in flight: resume serving the
            # backlog that may have built up meanwhile.
            self._kick()

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the transmitter was busy."""
        span = horizon if horizon is not None else self.loop.now
        if span <= 0:
            return 0.0
        return self.busy_time / span

    # -- internals ----------------------------------------------------------------

    def _kick(self, burst: bool = False) -> None:
        """Try to start a transmission (no-op while one is in flight).

        With ``burst=True`` the completion runs inline when the event
        loop allows it (nothing pending before the completion time),
        chaining straight into the busy-serve drain -- the whole burst
        costs no event-queue traffic.  Burst entry is only taken from
        event tails (``_retry``) and :meth:`drain_batch`, never from a
        departure listener's re-kick (``_in_complete`` fences that), so
        the drain cannot recurse into itself.
        """
        if self.busy or self.rate <= 0:
            return
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        now = self.loop.now
        packet = self.scheduler.dequeue(now)
        if packet is None:
            self._arm_retry(now)
            return
        self.busy = True
        self._tx_packet = packet
        self._tx_remaining = packet.size
        self._tx_last = now
        self._spin_count = 0
        completion = now + packet.size / self.rate
        if (
            burst
            and not self._in_complete
            and self._drain_left != 0
            and self.loop.try_advance(completion)
        ):
            self._complete(packet)
            return
        self._tx_event = self.loop.schedule(completion, self._complete, packet)

    def _arm_retry(self, now: float) -> None:
        """Re-poll a backlogged non-work-conserving scheduler when ready."""
        if len(self.scheduler) == 0:
            return
        ready = self.scheduler.next_ready_time(now)
        if ready is None:
            # Backlogged but nothing schedulable and no hint: wait
            # for the next arrival (offer() will kick again).
            return
        if ready <= now:
            # Float round-off (or a live reconfiguration) can land a fit
            # or eligible time exactly on -- or a hair before -- the
            # current clock right after a dequeue declined.  Re-poll
            # immediately through the event loop; the spin guard bounds a
            # scheduler that keeps declining while claiming readiness.
            if now == self._spin_time:
                self._spin_count += 1
                if self._spin_count > _MAX_READY_SPINS:
                    raise SimulationError(
                        "scheduler declined to send but claims to be ready "
                        f"({self._spin_count} consecutive re-polls at t={now:g})"
                    )
            else:
                self._spin_time = now
                self._spin_count = 1
            self._retry_event = self.loop.schedule(now, self._retry)
            return
        self._retry_event = self.loop.schedule(ready, self._retry)

    def _retry(self) -> None:
        # An event tail: nothing else runs at this point in the event, so
        # the kick may burst-serve inline (try_advance keeps the order
        # exact; a pending same-time event simply fences the inline path).
        self._retry_event = None
        if not self.busy:
            self._kick(burst=True)

    def _complete(self, packet: Packet) -> None:
        """Finish a transmission, then drain while the link stays busy.

        Busy-serve fast path: when the next pending loop event is no
        earlier than the next completion time, the completion runs inline
        (``loop.try_advance``) instead of round-tripping through the heap
        -- consecutive dequeues on a saturated link cost no event-queue
        traffic at all.  Listener reentrancy is preserved: ``busy`` drops
        before the callbacks run, and if a callback restarts the
        transmitter itself (a greedy source calling ``offer``), the drain
        stops.  The rate is re-read every iteration because a departure
        listener may change it (or start an outage) mid-drain.
        """
        loop = self.loop
        dequeue = self.scheduler.dequeue
        listeners = self._listeners
        class_listeners = self._class_listeners
        self._in_complete = True
        try:
            while True:
                now = loop.now
                size = packet.size
                packet.departed = now
                self.busy = False
                self.bytes_sent += size
                self.departures += 1
                if self._drain_left is not None:
                    self._drain_left -= 1
                # The final segment of this transmission ran at the current
                # rate (any mid-flight set_rate already accounted the earlier
                # segments and re-derived the completion time).
                self.busy_time += self._tx_remaining / self.rate
                self._tx_packet = None
                self._tx_remaining = 0.0
                self._tx_event = None
                if _TELEM.enabled:
                    _TELEM.on_depart(
                        packet.class_id, size, now,
                        now - packet.enqueued if packet.enqueued is not None else 0.0,
                        packet.deadline,
                    )
                for listener in listeners:
                    listener(packet, now)
                for listener in class_listeners.get(packet.class_id, ()):
                    listener(packet, now)
                if self.busy:
                    # A departure callback refilled the queue and restarted the
                    # transmitter (offer -> _kick); the next completion is
                    # already scheduled.
                    return
                if self._retry_event is not None:
                    self._retry_event.cancel()
                    self._retry_event = None
                rate = self.rate
                if rate <= 0:
                    # A departure listener started an outage.
                    return
                packet = dequeue(now)
                if packet is None:
                    self._arm_retry(now)
                    return
                self.busy = True
                self._tx_packet = packet
                self._tx_remaining = packet.size
                self._tx_last = now
                self._spin_count = 0
                completion = now + packet.size / rate
                # An exhausted drain_batch budget parks the remaining
                # completion on the heap (same fallback as a fenced
                # try_advance), so a budget boundary never changes the
                # schedule -- only who runs it.
                if self._drain_left != 0 and loop.try_advance(completion):
                    continue
                self._tx_event = loop.schedule(completion, self._complete, packet)
                return
        finally:
            self._in_complete = False
