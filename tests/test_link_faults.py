"""Link-level fault handling: live rate changes, outages, ready-now re-polls."""

from __future__ import annotations

import pytest

from repro.core.curves import ServiceCurve
from repro.core.errors import SimulationError
from repro.core.hfsc import HFSC
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.engine import EventLoop
from repro.sim.link import _MAX_READY_SPINS, Link
from repro.sim.packet import Packet


def _fifo_link(rate=1000.0):
    loop = EventLoop()
    sched = FIFOScheduler(rate)
    link = Link(loop, sched)
    departures = []
    link.add_listener(lambda p, t: departures.append((p.class_id, t)))
    return loop, sched, link, departures


# -- set_rate on an in-flight packet ----------------------------------------


def test_set_rate_rederives_inflight_departure():
    loop, sched, link, departures = _fifo_link(rate=1000.0)
    link.offer(Packet("a", 1000.0, created=0.0))
    # Halfway through the 1s transmission, halve the rate: 500 bytes remain
    # at 500 B/s, so the last bit leaves at 0.5 + 1.0 = 1.5.
    loop.schedule(0.5, link.set_rate, 500.0)
    loop.run(until=5.0)
    assert departures == [("a", pytest.approx(1.5))]
    # Busy time covers exactly the transmission interval at both rates.
    assert link.busy_time == pytest.approx(1.5)


def test_set_rate_speedup_finishes_early():
    loop, sched, link, departures = _fifo_link(rate=1000.0)
    link.offer(Packet("a", 1000.0, created=0.0))
    loop.schedule(0.5, link.set_rate, 2000.0)
    loop.run(until=5.0)
    # 500 bytes remain at 2000 B/s: departure at 0.5 + 0.25.
    assert departures == [("a", pytest.approx(0.75))]
    assert link.busy_time == pytest.approx(0.75)


def test_set_rate_same_value_is_noop():
    loop, sched, link, departures = _fifo_link(rate=1000.0)
    link.offer(Packet("a", 1000.0, created=0.0))
    loop.schedule(0.5, link.set_rate, 1000.0)
    loop.run(until=5.0)
    assert departures == [("a", pytest.approx(1.0))]


def test_set_rate_rejects_negative():
    loop, sched, link, _ = _fifo_link()
    with pytest.raises(SimulationError):
        link.set_rate(-1.0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_set_rate_rejects_non_finite(rate):
    loop, sched, link, _ = _fifo_link()
    before = link.rate
    with pytest.raises(SimulationError, match="finite"):
        link.set_rate(rate)
    assert link.rate == before


# -- outages -----------------------------------------------------------------


def test_outage_freezes_inflight_packet_and_resumes():
    loop, sched, link, departures = _fifo_link(rate=1000.0)
    link.offer(Packet("a", 1000.0, created=0.0))
    loop.schedule(0.25, link.set_rate, 0.0)     # 750 bytes stranded
    loop.schedule(1.25, link.set_rate, 1000.0)  # 1s outage
    loop.run(until=5.0)
    assert departures == [("a", pytest.approx(2.0))]
    # The outage second contributes nothing to busy time.
    assert link.busy_time == pytest.approx(1.0)
    assert link.utilization(5.0) == pytest.approx(0.2)


def test_outage_with_idle_link_resumes_backlog():
    loop, sched, link, departures = _fifo_link(rate=1000.0)
    loop.schedule(0.0, link.set_rate, 0.0)
    # Arrivals during the outage queue up; nothing is transmitted.
    loop.schedule(0.1, link.offer, Packet("a", 500.0, created=0.1))
    loop.schedule(0.2, link.offer, Packet("b", 500.0, created=0.2))
    loop.schedule(1.0, link.set_rate, 1000.0)
    loop.run(until=5.0)
    assert [cid for cid, _ in departures] == ["a", "b"]
    assert departures[0][1] == pytest.approx(1.5)
    assert departures[1][1] == pytest.approx(2.0)


def test_offers_during_outage_do_not_transmit():
    loop, sched, link, departures = _fifo_link(rate=1000.0)
    link.set_rate(0.0)
    link.offer(Packet("a", 100.0, created=0.0))
    loop.run(until=1.0)
    assert departures == []
    assert len(sched) == 1


def test_outage_mid_hfsc_run_conserves_packets():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(500.0))
    link = Link(loop, sched)
    served = []
    link.add_listener(lambda p, t: served.append(p))
    for i in range(10):
        loop.schedule(0.1 * i, link.offer, Packet("a", 100.0))
    loop.schedule(0.35, link.set_rate, 0.0)
    loop.schedule(0.85, link.set_rate, 1000.0)
    loop.run(until=10.0)
    assert sched.total_enqueued == 10
    assert sched.total_dequeued == len(served) == 10
    sched.check_invariants()


# -- ready-now re-poll regression (satellite: _arm_retry ready <= now) -------


class _ReadyNowOnce(Scheduler):
    """Declines the first ``declines`` polls while claiming readiness *now*.

    Models the float-round-off / live-reconfiguration race: the scheduler
    is backlogged, ``next_ready_time`` lands exactly on the clock, but the
    first dequeue still returns None.  The pre-fix link raised
    SimulationError immediately; the fix re-polls through the loop.
    """

    def __init__(self, declines: int):
        super().__init__(1000.0)
        self.declines = declines
        self.polls = 0
        self._queue = []

    def enqueue(self, packet, now):
        self._note_enqueue(packet, now)
        self._queue.append(packet)

    def dequeue(self, now):
        if not self._queue:
            return None
        self.polls += 1
        if self.polls <= self.declines:
            return None
        packet = self._queue.pop(0)
        self._note_dequeue(packet, now)
        return packet

    def next_ready_time(self, now):
        return now  # always "ready now"


def test_ready_now_repoll_succeeds_after_transient_decline():
    loop = EventLoop()
    sched = _ReadyNowOnce(declines=2)
    link = Link(loop, sched)
    departures = []
    link.add_listener(lambda p, t: departures.append(t))
    link.offer(Packet("a", 100.0, created=0.0))
    loop.run(until=1.0)
    assert len(departures) == 1
    # The re-polls happened at the same timestamp, not spread over time.
    assert departures[0] == pytest.approx(0.1)


def test_ready_now_livelock_is_bounded():
    loop = EventLoop()
    sched = _ReadyNowOnce(declines=10**9)  # never actually hands over
    link = Link(loop, sched)
    link.offer(Packet("a", 100.0, created=0.0))
    with pytest.raises(SimulationError, match="claims to be ready"):
        loop.run(until=1.0)
    assert sched.polls <= _MAX_READY_SPINS + 2


def test_spin_counter_resets_between_timestamps():
    # A scheduler that declines a few times at *each* service point must
    # not accumulate spins across distinct timestamps.
    loop = EventLoop()
    sched = _ReadyNowOnce(declines=3)
    link = Link(loop, sched)
    departures = []
    link.add_listener(lambda p, t: departures.append(t))
    link.offer(Packet("a", 100.0, created=0.0))
    loop.run(until=1.0)
    sched.declines = sched.polls + 3  # decline thrice at the next point too
    loop.schedule(2.0, link.offer, Packet("b", 100.0, created=2.0))
    loop.run(until=3.0)
    assert len(departures) == 2


# -- utilization consistency under rate churn --------------------------------


def test_utilization_consistent_under_rate_flaps():
    loop, sched, link, departures = _fifo_link(rate=1000.0)
    for i in range(20):
        loop.schedule(0.05 * i, link.offer, Packet("a", 50.0))
    # Aggressive flapping while the backlog drains.
    for i, rate in enumerate((500.0, 2000.0, 250.0, 1000.0)):
        loop.schedule(0.1 + 0.2 * i, link.set_rate, rate)
    loop.run(until=20.0)
    assert len(departures) == 20
    assert link.bytes_sent == pytest.approx(20 * 50.0)
    # Busy time can never exceed wall-clock time spent.
    assert 0.0 < link.busy_time <= loop.now
