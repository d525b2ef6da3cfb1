"""Pace an :class:`~repro.sim.engine.EventLoop` against the wall clock.

The simulator runs events as fast as Python allows; a *service* must run
them when the real world reaches their timestamps.  :class:`RealTimeDriver`
is the bridge: it maps simulated seconds onto monotonic-clock seconds with
a configurable ``time_scale`` and releases events only once the wall clock
has caught up to them.

``time_scale`` is **wall seconds per simulated second**:

* ``1.0`` -- real time (the serving default);
* ``0.5`` -- simulated time runs twice as fast as the wall clock (soak a
  day of traffic in half a day);
* ``0.0`` -- hybrid mode: no pacing at all.  ``run()`` then delegates to
  ``EventLoop.run`` verbatim, so a hybrid-mode run is *byte-identical* to
  the event-driven :class:`~repro.sim.link.Link` -- the golden-schedule
  digests of ``tests/golden_scenarios.py`` are pinned for both and
  ``tests/test_serve_driver.py`` asserts they match.

Pacing never changes the schedule either: the paced loop runs the event
queue in chunks ``loop.run(until=t)``, and chunked runs are
digest-equivalent to one big run (events fire at their own timestamps in
(time, seq) order either way; the link's inline busy-serve drain falls
back to ordinary heap events at chunk boundaries).  The wall clock only
decides *when* a chunk runs.

:meth:`RealTimeDriver.run` paces synchronously (tests, trace replay).
:meth:`RealTimeDriver.serve` paces under asyncio with one *pump*
callback and no task of its own: a pump runs every event the wall clock
has released, runs one more pass if events fell due meanwhile, and then
either re-queues itself with ``call_soon`` (still behind: sockets and
control get a turn first) or arms a single timer for the next event's
wall deadline (or ``until``).  ``serve`` itself only awaits a future,
resolved when the pump reaches ``until`` or by
:meth:`~RealTimeDriver.stop`, or failed with the first exception a
pumped event or socket drain raised.

Everything that injects work wakes the pump: :meth:`call_soon` (arrivals
and control) and :meth:`run_due` (a control op about to mutate the link
or hierarchy, which may move the next event earlier).  A socket endpoint
reads its whole backlog and then pumps inline through :meth:`pump_after`,
so a burst of datagrams reaches the scheduler in the same event-loop
turn it arrived in (:meth:`repro.serve.ingress.Dataplane._deliver_burst`
coalesces it into one delivery event and one batched enqueue).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from repro.core.errors import ConfigurationError
from repro.sim.engine import Event, EventLoop


class RealTimeDriver:
    """Run an event loop's schedule at wall-clock pace.

    Parameters
    ----------
    loop:
        The simulation event loop to pace.  The driver never touches the
        scheduler or link directly -- the same ``Scheduler`` API runs
        underneath, exactly as in the simulator.
    time_scale:
        Wall seconds per simulated second (``0`` = as fast as possible).
    clock, sleep:
        Injectable monotonic clock and blocking sleep, so tests can pace
        against a fake clock deterministically.  ``sleep`` is only used
        by the synchronous :meth:`run`; :meth:`serve` arms asyncio timers.
    """

    def __init__(
        self,
        loop: EventLoop,
        time_scale: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if time_scale < 0:
            raise ConfigurationError("time_scale must be non-negative")
        self.loop = loop
        self.time_scale = float(time_scale)
        self.clock = clock
        self.sleep = sleep
        self._wall0: Optional[float] = None
        self._sim0 = 0.0
        #: Whether :meth:`stop` was called since :meth:`serve` last began.
        self._stopping = False
        # Asyncio pacing state, live only inside serve(): the loop, the
        # horizon, the future serve() awaits, and the one pending pump
        # callback (a timer, or a call_soon while behind).  ``_pumping``
        # is True while a pump runs or is queued to run next turn: it will
        # see any event injected meanwhile, so wakes are no-ops then.
        self._aio: Optional[asyncio.AbstractEventLoop] = None
        self._until: Optional[float] = None
        self._done: Optional[asyncio.Future] = None
        self._handle: Optional[asyncio.Handle] = None
        self._pumping = False
        #: Wall-clock lag high-water mark: how far (in wall seconds) event
        #: processing has fallen behind its deadline.  A persistently
        #: growing value means the host cannot keep up with the offered
        #: load at this time scale.
        self.max_lag = 0.0

    # -- clock mapping ------------------------------------------------------

    def start(self) -> None:
        """Anchor simulated ``loop.now`` to the current wall clock."""
        if self._wall0 is None:
            self._wall0 = self.clock()
            self._sim0 = self.loop.now

    @property
    def started(self) -> bool:
        return self._wall0 is not None

    def sim_now(self) -> float:
        """The simulated time the wall clock has reached (>= ``loop.now``)."""
        if self.time_scale <= 0.0 or self._wall0 is None:
            return self.loop.now
        mapped = self._sim0 + (self.clock() - self._wall0) / self.time_scale
        return mapped if mapped > self.loop.now else self.loop.now

    def wall_deadline(self, sim_time: float) -> float:
        """The wall-clock instant at which ``sim_time`` is due."""
        if self._wall0 is None:
            raise ConfigurationError("driver not started")
        return self._wall0 + (sim_time - self._sim0) * self.time_scale

    # -- event injection (ingress / control plane) ---------------------------

    def call_soon(self, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current wall-mapped simulated time.

        This is how the outside world enters the deterministic event
        order: arrivals and control operations become ordinary loop
        events stamped with the simulated time their wall-clock moment
        maps to.  Wakes a sleeping :meth:`serve` pump.
        """
        event = self.loop.schedule(self.sim_now(), fn, *args)
        self._wake()
        return event

    def run_due(self) -> float:
        """Process everything the wall clock has already released.

        Control-plane mutations call this first so they apply at a
        consistent ``loop.now`` (never amid a backlog of past events).
        The caller is about to change the schedule (a new link rate moves
        the in-flight departure), so this also queues a pump for the next
        event-loop turn, which re-reads the next deadline after the
        change.  Returns the advanced ``loop.now``.
        """
        self.loop.run(until=self.sim_now())
        self._wake()
        return self.loop.now

    # -- synchronous pacing (tests, trace replay, repro run --realtime) ------

    def run(self, until: Optional[float] = None) -> bool:
        """Drain the schedule up to simulated ``until`` at wall pace.

        With ``time_scale == 0`` this *is* ``EventLoop.run(until=until)``
        -- same code path, same digests.  Otherwise each pending event is
        released when the wall clock reaches its deadline; processing
        that falls behind is run immediately (and :attr:`max_lag`
        records by how much).
        """
        loop = self.loop
        if self.time_scale <= 0.0:
            return loop.run(until=until)
        self.start()
        while True:
            t_next = loop.peek_time()
            if t_next is None or (until is not None and t_next > until):
                break
            self._sleep_until(t_next)
            loop.run(until=t_next)
        if until is not None and until > loop.now:
            self._sleep_until(until)
            loop.run(until=until)
        return True

    def _sleep_until(self, sim_time: float) -> None:
        lag = self.clock() - self.wall_deadline(sim_time)
        if lag > 0.0:
            if lag > self.max_lag:
                self.max_lag = lag
            return
        self.sleep(-lag)

    # -- asyncio pacing (the long-lived service) -----------------------------

    def stop(self) -> None:
        """Make a running :meth:`serve` return; pending events stay queued."""
        self._stopping = True
        done = self._done
        if done is not None and not done.done():
            done.set_result(None)

    async def serve(self, until: Optional[float] = None) -> None:
        """Pace the loop forever (or to simulated ``until``) under asyncio.

        Between pumps nothing runs but one timer, armed for the next
        event's wall deadline (or ``until``); with no event pending and
        no horizon there is no timer at all, and the next injection
        (:meth:`call_soon`, :meth:`run_due`) wakes the pump.
        An exception raised by a pumped event, or by a socket drain run
        through :meth:`pump_after`, ends serving and is raised here.

        In hybrid mode (``time_scale == 0``) a bounded ``until`` is
        required -- with periodic tasks armed, an unpaced unbounded drain
        would run forever -- and the whole horizon is drained in one
        as-fast-as-possible chunk: simulated time runs ahead of the wall
        clock, which is what trace replays and soak smokes want.
        """
        self.start()
        self._stopping = False
        if self.time_scale <= 0.0:
            if until is None:
                raise ConfigurationError(
                    "time_scale=0 serving needs a bounded 'until' "
                    "(an unpaced unbounded drain never returns)"
                )
            self.loop.run(until=until)
            return
        aio = asyncio.get_running_loop()
        self._aio = aio
        self._until = until
        self._done = done = aio.create_future()
        try:
            self._pump()
            await done
        finally:
            if self._handle is not None:
                self._handle.cancel()
            self._aio = self._done = self._handle = None
            self._pumping = False

    def pump_after(self, drain: Callable[[], None]) -> None:
        """Run ``drain`` (a socket read loop), then pump once, inline.

        Events ``drain`` injects do not queue separate wakes: the pump
        that follows runs them in this same event-loop turn.  An
        exception from either ends a running :meth:`serve` with it.
        """
        self._pumping = True
        try:
            drain()
        except Exception as exc:
            if not self._fail(exc):
                raise
        self._pump()

    def _wake(self) -> None:
        """Queue a pump for the next event-loop turn (replacing a timer)."""
        if self._pumping or self._aio is None:
            return
        if self._handle is not None:
            self._handle.cancel()
        self._pumping = True
        self._handle = self._aio.call_soon(self._pump)

    def _fail(self, exc: BaseException) -> bool:
        done = self._done
        if done is None or done.done():
            return False
        done.set_exception(exc)
        return True

    def _pump(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        done = self._done
        if done is None or done.done():
            self._pumping = False
            return
        self._pumping = True
        loop = self.loop
        until = self._until
        try:
            t_next = loop.peek_time()
            if t_next is not None:
                lag = self.clock() - self.wall_deadline(t_next)
                if lag > self.max_lag:
                    self.max_lag = lag
            for _ in range(2):
                target = self.sim_now()
                if until is not None and target > until:
                    target = until
                loop.run(until=target)
                if until is not None and loop.now >= until:
                    done.set_result(None)
                    return
                t_next = loop.peek_time()
                if t_next is None or t_next > self.sim_now():
                    break
            else:
                # Still behind after a second pass: give sockets and
                # control a turn before catching up further.
                self._handle = self._aio.call_soon(self._pump)
                return
        except Exception as exc:
            self._fail(exc)
            return
        if done.done():  # stop() from inside a pumped event
            return
        if until is not None and (t_next is None or t_next > until):
            t_next = until
        self._pumping = False
        if t_next is not None:
            delay = self.wall_deadline(t_next) - self.clock()
            self._handle = self._aio.call_later(
                delay if delay > 0.0 else 0.0, self._pump)
