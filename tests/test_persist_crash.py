"""The crash-equivalence oracle, run against the pinned golden schedules.

For every golden scenario and a sweep of crash points: run to the crash,
snapshot through the full envelope codec, rebuild a fresh context,
restore, continue -- the resulting departure schedule must be
byte-identical (same SHA-256 digest) to the uninterrupted run pinned in
``tests/golden/golden_schedules.json``.  Also covers the harness pieces:
resumable :class:`DriveRun` equals :func:`drive`, ``--checkpoint-every``
files, snapshot-on-signal, and the :class:`PeriodicTask` resume cadence.
"""

import json
import os
import signal

import pytest

from repro.core.errors import SnapshotError
from repro.persist.codec import (
    dumps_snapshot,
    load_snapshot,
    loads_snapshot,
    save_snapshot,
)
from repro.persist.harness import (
    DriveRun,
    SignalCheckpointRequest,
    crash_and_resume_drive,
    crash_and_resume_runtime,
    drive_rows,
    run_checkpointed,
    runtime_rows,
    schedule_digest,
)
from repro.persist.scenarios import DRIVE_SETUPS, RUNTIME_SETUPS
from repro.sim.engine import EventLoop
from repro.sim.faults import CrashPoint
from tests.golden_scenarios import DIGEST_COLUMNS, load_golden

GOLDEN = load_golden()

DRIVE_CRASH_INDICES = (0, 7, 113, 500, 2500)
RUNTIME_CRASHES = (
    CrashPoint(at_event=1),
    CrashPoint(at_event=57),
    CrashPoint(at_event=400),
    CrashPoint(at_time=2.3),
    CrashPoint(at_time=4.999),
)


class TestUninterruptedEqualsGolden:
    """DriveRun / run_checkpointed are faithful re-expressions of the
    original execution models: with checkpointing off they reproduce the
    pinned digests exactly."""

    @pytest.mark.parametrize("column", DIGEST_COLUMNS)
    @pytest.mark.parametrize("name", sorted(DRIVE_SETUPS))
    def test_drive_run(self, name, column):
        digest = schedule_digest(drive_rows(name))
        assert digest == GOLDEN[name][column]

    @pytest.mark.parametrize("column", DIGEST_COLUMNS)
    @pytest.mark.parametrize("name", sorted(RUNTIME_SETUPS))
    def test_runtime(self, name, column):
        digest = schedule_digest(runtime_rows(name))
        assert digest == GOLDEN[name][column]


class TestCrashEquivalence:
    """crash -> snapshot -> restore -> continue == never crashed.

    The ``_tree`` suffix names the request set these sweeps first ran on;
    H-FSC now has one, the flat heaps.
    """

    @pytest.mark.parametrize("crash_index", DRIVE_CRASH_INDICES)
    @pytest.mark.parametrize("name", sorted(DRIVE_SETUPS))
    def test_drive_tree(self, name, crash_index):
        rows = crash_and_resume_drive(name, crash_index)
        assert schedule_digest(rows) == GOLDEN[name]["heap"]

    @pytest.mark.parametrize("crash", RUNTIME_CRASHES,
                             ids=lambda c: f"{c.at_event}@{c.at_time}")
    @pytest.mark.parametrize("name", sorted(RUNTIME_SETUPS))
    def test_runtime_tree(self, name, crash):
        rows = crash_and_resume_runtime(name, crash)
        assert schedule_digest(rows) == GOLDEN[name]["heap"]

    def test_double_crash(self):
        """Crash the resumed run again: chained checkpoints still converge."""
        name = "e4_phases"
        setup = DRIVE_SETUPS[name]
        sched, arrivals, until = setup()
        run = DriveRun(sched, arrivals, until)
        run.run(max_served=500)
        text = dumps_snapshot(run.snapshot_body())

        _, arrivals2, _ = setup()
        resumed = DriveRun.restore(loads_snapshot(text), arrivals2)
        resumed.run(max_served=4000)
        text2 = dumps_snapshot(resumed.snapshot_body())

        _, arrivals3, _ = setup()
        final = DriveRun.restore(loads_snapshot(text2), arrivals3)
        final.run()
        assert schedule_digest(final.rows) == GOLDEN[name]["heap"]


class TestSnapshotRefusal:
    def test_wrong_arrivals_refused(self):
        sched, arrivals, until = DRIVE_SETUPS["e4_phases"]()
        run = DriveRun(sched, arrivals, until)
        run.run(max_served=50)
        body = loads_snapshot(dumps_snapshot(run.snapshot_body()))
        _, other_arrivals, _ = DRIVE_SETUPS["rt_only"]()
        with pytest.raises(SnapshotError) as err:
            DriveRun.restore(body, other_arrivals)
        assert err.value.reason == "scenario-mismatch"

    @staticmethod
    def _resume_with_eligible_set_label(label):
        """Crash e4_phases, stamp the envelope with an old eligible-set
        name (as written before H-FSC had one request set), resume."""
        sched, arrivals, until = DRIVE_SETUPS["e4_phases"]()
        run = DriveRun(sched, arrivals, until)
        run.run(max_served=500)
        body = loads_snapshot(dumps_snapshot(run.snapshot_body()))
        assert "eligible_backend" not in body["scheduler"]["config"]
        body["scheduler"]["config"]["eligible_backend"] = label
        _, fresh_arrivals, _ = DRIVE_SETUPS["e4_phases"]()
        resumed = DriveRun.restore(
            loads_snapshot(dumps_snapshot(body)), fresh_arrivals)
        resumed.run()
        return resumed

    @pytest.mark.parametrize("label", ["tree", "calendar", "heap"])
    def test_legacy_eligible_set_label_restores(self, label):
        resumed = self._resume_with_eligible_set_label(label)
        assert schedule_digest(resumed.rows) == GOLDEN["e4_phases"]["heap"]

    def test_unknown_eligible_set_label_refused(self):
        with pytest.raises(SnapshotError) as err:
            self._resume_with_eligible_set_label("bogus")
        assert err.value.reason == "bad-config"

    def test_runtime_restore_is_atomic(self):
        """A corrupted body leaves the fresh context fully usable."""
        ctx, until = RUNTIME_SETUPS["eventloop_mixed"]()
        run_checkpointed(ctx, until, crash=CrashPoint(at_event=100),
                         on_checkpoint=lambda _: None)
        body = json.loads(json.dumps(ctx.snapshot_body()))
        body["components"]["recorder"]["type"] = "Imposter"

        fresh, fresh_until = RUNTIME_SETUPS["eventloop_mixed"]()
        with pytest.raises(SnapshotError) as err:
            fresh.restore_body(body)
        assert err.value.reason == "context-mismatch"
        # The refused restore must not have half-applied anything.
        fresh.loop.run(until=fresh_until)
        rows = [
            (r.class_id, r.size, r.departed, r.via_realtime)
            for r in fresh.component("recorder").records
        ]
        assert schedule_digest(rows) == GOLDEN["eventloop_mixed"]["heap"]


class TestCheckpointFiles:
    def test_checkpoint_every_writes_resumable_files(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ctx, until = RUNTIME_SETUPS["eventloop_mixed"]()
        seen = []
        finished = run_checkpointed(
            ctx, until, checkpoint_path=path, every_events=300,
            on_checkpoint=seen.append)
        assert finished
        assert len(seen) >= 2  # several chunk boundaries crossed
        assert os.path.exists(path)
        # The last on-disk checkpoint is the finished run; restoring it
        # and running to the horizon is a no-op that matches the golden.
        fresh, fresh_until = RUNTIME_SETUPS["eventloop_mixed"]()
        fresh.restore_body(load_snapshot(path))
        fresh.loop.run(until=fresh_until)
        rows = [
            (r.class_id, r.size, r.departed, r.via_realtime)
            for r in fresh.component("recorder").records
        ]
        assert schedule_digest(rows) == GOLDEN["eventloop_mixed"]["heap"]

    def test_signal_requests_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ctx, until = RUNTIME_SETUPS["eventloop_mixed"]()
        request = SignalCheckpointRequest().install(signal.SIGUSR1)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            finished = run_checkpointed(
                ctx, until, checkpoint_path=path, every_events=200,
                signal_request=request)
        finally:
            request.uninstall()
        assert not finished  # stopped at the first boundary after the signal
        assert ctx.loop.now < until
        fresh, fresh_until = RUNTIME_SETUPS["eventloop_mixed"]()
        fresh.restore_body(load_snapshot(path))
        fresh.loop.run(until=fresh_until)
        rows = [
            (r.class_id, r.size, r.departed, r.via_realtime)
            for r in fresh.component("recorder").records
        ]
        assert schedule_digest(rows) == GOLDEN["eventloop_mixed"]["heap"]


class TestPeriodicTaskResume:
    """A resumed run re-arms periodic tasks at the saved cadence: no
    burst of catch-up ticks, no dropped ticks."""

    def test_adopt_tick_no_burst_no_drops(self):
        loop = EventLoop()
        ticks = []
        task = loop.every(0.5, lambda: ticks.append(loop.now))
        loop.run(until=2.3)
        assert ticks == [0.5, 1.0, 1.5, 2.0]

        # "Restore": a fresh loop arms the same task from scratch (which
        # would tick at 0.5, 1.0, ... again), then adopts the saved state.
        saved_next = task.next_time
        saved_fired = task.fired
        fresh_loop = EventLoop()
        fresh_ticks = []
        fresh_task = fresh_loop.every(
            0.5, lambda: fresh_ticks.append(fresh_loop.now))
        fresh_loop.restore_clock(loop.snapshot_clock())
        event = fresh_loop.schedule(saved_next, fresh_task._tick)
        fresh_task.adopt_tick(event, saved_fired, 0.5, None)

        fresh_loop.run(until=4.1)
        loop.run(until=4.1)
        assert fresh_ticks == [2.5, 3.0, 3.5, 4.0]  # no burst at t<2.3
        assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        assert fresh_task.fired == task.fired

    def test_runtime_snapshot_preserves_cadence(self):
        """Through the real snapshot path: a context with a periodic task
        resumes ticking exactly where the crashed run left off."""
        from repro.persist.runtime import RunContext
        from repro.sim.link import Link
        from repro.core.hfsc import HFSC
        from repro.core.curves import ServiceCurve
        from repro.sim.sources import CBRSource

        def build():
            loop = EventLoop()
            sched = HFSC(10_000.0, admission_control=False)
            sched.add_class("c", sc=ServiceCurve.linear(5_000.0))
            link = Link(loop, sched)
            ctx = RunContext(loop, link)
            ctx.register("src", CBRSource(
                loop, link, "c", rate=4_000.0, packet_size=100.0, stop=6.0))
            ticks = []
            ctx.task("audit", loop.every(0.7, lambda: ticks.append(loop.now)))
            return ctx, ticks

        ctx, ticks = build()
        run_checkpointed(ctx, 8.0, crash=CrashPoint(at_time=3.0),
                         on_checkpoint=lambda _: None)
        body = json.loads(json.dumps(ctx.snapshot_body()))
        baseline_ticks = list(ticks)
        ctx.loop.run(until=8.0)

        fresh, fresh_ticks = build()
        fresh.restore_body(body)
        assert fresh_ticks == []  # no catch-up burst during restore
        fresh.loop.run(until=8.0)
        assert baseline_ticks + fresh_ticks == ticks
