"""Supervision plumbing, unit-level: circuit breaker, kill schedules,
restart-resume selection (torn-checkpoint refusal), shutdown ordering,
deadline-bounded reaping, shard-RPC cleanup, and checkpoint rotation.

The live kill-and-recover paths are in ``test_serve_cluster_chaos.py``;
everything here runs without forking workers.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest

from repro.core.curves import ServiceCurve
from repro.core.errors import ConfigurationError
from repro.core.hierarchy import ClassSpec
from repro.obs.export import cluster_health_to_prometheus
from repro.persist.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_SCHEMA,
    shard_snapshot_name,
    update_manifest_shard,
)
from repro.serve.cluster import (
    BREAKER_THRESHOLD,
    CircuitBreaker,
    ClusterControl,
    KillSchedule,
    ShardManager,
)
from repro.serve.service import ServeService
from repro.serve.shard import shard_control_path


def split_specs(link_rate):
    return [
        ClassSpec("gold", sc=ServiceCurve.linear(0.6 * link_rate)),
        ClassSpec("bronze", sc=ServiceCurve.linear(0.4 * link_rate)),
    ]


def make_manager(tmp_path, shards=2, **kw):
    kw.setdefault("supervise", True)
    return ShardManager(
        split_specs(60_000.0),
        60_000.0,
        shards,
        control=str(tmp_path / "ctl"),
        unix=str(tmp_path / "in"),
        workdir=str(tmp_path / "work"),
        **kw,
    )


class TestCircuitBreaker:
    def test_opens_at_threshold_and_recovers_via_half_open(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        now = 100.0
        for _ in range(2):
            breaker.record_failure(now)
        assert breaker.state == "closed" and breaker.allow(now)
        breaker.record_failure(now)
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allow(now + 0.5)
        # Cooldown elapsed: exactly one trial call is admitted.
        assert breaker.allow(now + 1.0)
        assert breaker.state == "half-open"
        assert not breaker.allow(now + 1.1)
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow(now + 1.2)

    def test_half_open_failure_reopens_immediately(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)  # trial
        breaker.record_failure(1.0)
        assert breaker.state == "open" and breaker.trips == 2
        assert not breaker.allow(1.5)


class TestKillSchedule:
    def test_seeded_is_deterministic_and_bounded(self):
        a = KillSchedule.seeded(7, 4, count=3, start=2.0, span=5.0)
        b = KillSchedule.seeded(7, 4, count=3, start=2.0, span=5.0)
        assert a.kills == b.kills and len(a) == 3
        assert a.kills != KillSchedule.seeded(8, 4, count=3).kills
        for offset, shard in a.kills:
            assert 2.0 <= offset < 7.0 and 0 <= shard < 4
        assert a.kills == sorted(a.kills)

    def test_parse_spec_and_rejects_junk(self):
        parsed = KillSchedule.parse("count=2,start=1,span=3,seed=7", 4)
        assert parsed.kills == KillSchedule.seeded(7, 4, count=2, start=1.0,
                                                   span=3.0).kills
        assert len(KillSchedule.parse("", 2)) == 1  # all defaults
        with pytest.raises(ConfigurationError):
            KillSchedule.parse("bogus=1", 2)
        with pytest.raises(ConfigurationError):
            KillSchedule.parse("count=x", 2)


class TestRestartResumeSelection:
    """The torn-checkpoint rule: a crash between the snapshot rotation
    and the manifest re-pin leaves the manifest vouching for the *old*
    content; the unvouched-for newest envelope must be refused and the
    ``.prev`` rotation target restored instead."""

    def _envelope(self, path, checksum):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"checksum": checksum, "body": {}}, fh)

    def _manifest(self, directory, ring, entries):
        doc = {
            "format": MANIFEST_FORMAT,
            "schema": MANIFEST_SCHEMA,
            "ring": ring,
            "snapshots": [
                {"shard": i, "path": shard_snapshot_name(i), "checksum": c}
                for i, c in entries
            ],
        }
        with open(os.path.join(directory, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh)

    def test_torn_newest_is_refused_prev_restores(self, tmp_path):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        manager = make_manager(tmp_path, snapshot_dir=str(snaps))
        path = snaps / shard_snapshot_name(0)
        self._envelope(path, "NEW-unvouched")
        self._envelope(str(path) + ".prev", "OLD-vouched")
        self._manifest(str(snaps), manager.ring.params(),
                       [(0, "OLD-vouched")])
        assert manager.select_restart_resume(0) == str(path) + ".prev"

    def test_manifest_vouched_newest_wins(self, tmp_path):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        manager = make_manager(tmp_path, snapshot_dir=str(snaps))
        path = snaps / shard_snapshot_name(0)
        self._envelope(path, "NEW")
        self._envelope(str(path) + ".prev", "OLD")
        self._manifest(str(snaps), manager.ring.params(), [(0, "NEW")])
        assert manager.select_restart_resume(0) == str(path)
        # Escalation deliberately steps back one cadence.
        assert manager.select_restart_resume(0, attempt=1) == \
            str(path) + ".prev"
        assert manager.select_restart_resume(0, attempt=2) is None

    def test_no_manifest_accepts_any_complete_envelope(self, tmp_path):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        manager = make_manager(tmp_path, snapshot_dir=str(snaps))
        path = snaps / shard_snapshot_name(0)
        self._envelope(path, "whatever")
        assert manager.select_restart_resume(0) == str(path)
        # Corrupt (not-an-envelope) files are skipped, not fatal.
        path.write_text("garbage{{{")
        assert manager.select_restart_resume(0) is None

    def test_update_manifest_shard_repins_only_its_entry(self, tmp_path):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        manager = make_manager(tmp_path, snapshot_dir=str(snaps))
        ring = manager.ring.params()
        for index, claim in ((0, "A0"), (1, "B0")):
            self._envelope(snaps / shard_snapshot_name(index), claim)
            update_manifest_shard(str(snaps), index, ring_params=ring,
                                  backend="hfsc", link_rate=60_000.0)
        self._envelope(snaps / shard_snapshot_name(0), "A1")
        update_manifest_shard(str(snaps), 0, ring_params=ring,
                              backend="hfsc", link_rate=60_000.0)
        doc = json.load(open(snaps / "manifest.json"))
        pins = {e["shard"]: e["checksum"] for e in doc["snapshots"]}
        assert pins == {0: "A1", 1: "B0"}


class TestShutdownOrdering:
    def test_request_stop_flips_supervisor_first(self, tmp_path):
        manager = make_manager(tmp_path)

        async def scenario():
            assert not manager.supervisor.stopping
            manager.request_stop()
            assert manager.supervisor.stopping
            assert manager._stop.is_set()

        asyncio.run(scenario())

    def test_terminate_workers_flips_supervisor_first(self, tmp_path):
        manager = make_manager(tmp_path)
        manager.terminate_workers()  # no processes: must still flip
        assert manager.supervisor.stopping


class _SlowProcess:
    """A worker that never dies politely: join() burns its full timeout."""

    def __init__(self):
        self.exitcode = None
        self.killed = False

    def is_alive(self):
        return True

    def kill(self):
        self.killed = True

    def join(self, timeout=None):
        if timeout:
            time.sleep(timeout)


class TestJoinDeadline:
    def test_join_workers_honors_overall_deadline(self, tmp_path):
        manager = make_manager(tmp_path, supervise=False)
        manager.processes = [_SlowProcess() for _ in range(8)]
        start = time.monotonic()
        codes = asyncio.run(manager.join_workers(timeout=0.5))
        elapsed = time.monotonic() - start
        # The old per-process join(1.0) loop took timeout + N seconds
        # (8.5s here); the budgeted reap stays near timeout + 1.
        assert elapsed < 3.0, f"join_workers overshot: {elapsed:.1f}s"
        assert all(p.killed for p in manager.processes)
        assert codes == [-1] * 8


class TestShardCallArmor:
    def test_timeout_closes_the_stream_writer(self, tmp_path):
        """Regression: a stalled shard must not leak the front-end's
        stream writer -- after the timed-out call the stub sees EOF."""
        manager = make_manager(tmp_path, supervise=False)
        stub_path = shard_control_path(str(tmp_path / "ctl"), 0)
        seen = {}

        async def scenario():
            async def stall(reader, writer):
                seen["request"] = await reader.readline()
                # Never answer; just watch for the client closing.
                seen["eof"] = await asyncio.wait_for(reader.readline(),
                                                     timeout=5.0)
                writer.close()

            server = await asyncio.start_unix_server(stall, path=stub_path)
            try:
                response = await manager.shard_call(
                    0, {"op": "ping"}, timeout=0.3
                )
                assert not response["ok"]
                assert response["error"]["type"] == "ShardUnreachable"
                # EOF at the stub proves close()/wait_closed() ran.
                for _ in range(100):
                    if "eof" in seen:
                        break
                    await asyncio.sleep(0.02)
                assert seen.get("eof") == b""
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
        assert json.loads(seen["request"]) == {"op": "ping"}

    def test_breaker_opens_after_consecutive_failures(self, tmp_path):
        manager = make_manager(tmp_path)  # supervised: breaker active
        health = manager.health[0]

        async def scenario():
            # Nothing listens on shard 0's control path: every call
            # exhausts its connect retries and counts one failure.
            for _ in range(BREAKER_THRESHOLD):
                response = await manager.shard_call(0, {"op": "ping"})
                assert response["error"]["type"] == "ShardUnreachable"
            assert health.breaker.state == "open"
            shed_before = manager.cluster_counters["cluster.shed_during_outage"]
            fast = await manager.shard_call(0, {"op": "ping"})
            assert fast["error"]["type"] == "ShardUnavailable"
            assert fast["error"]["context"]["circuit"] == "open"
            shed_after = manager.cluster_counters["cluster.shed_during_outage"]
            assert shed_after == shed_before + 1
            # Probes bypass the open breaker (and do not count).
            probe = await manager.shard_call(0, {"op": "ping"}, probe=True)
            assert probe["error"]["type"] == "ShardUnreachable"
            assert health.breaker.state == "open"

        asyncio.run(scenario())


class TestDegradedMutations:
    def test_mutations_fast_fail_structured_unavailable(self, tmp_path):
        manager = make_manager(tmp_path)
        manager.health[1].state = "restarting"
        control = ClusterControl(manager)

        async def scenario():
            line = json.dumps({
                "op": "add_class", "name": "silver", "sc": 1000.0,
            }).encode() + b"\n"
            return json.loads(await control.dispatch_line(line))

        response = asyncio.run(scenario())
        assert not response["ok"]
        context = response["error"]["context"]
        assert context["phase"] == "reserve"
        assert context["reason"] == "unavailable"
        assert context["failures"][0]["shard"] == 1
        assert context["failures"][0]["error"]["type"] == "ShardUnavailable"

    def test_degraded_heartbeat_state_stays_mutable(self, tmp_path):
        manager = make_manager(tmp_path)
        manager.health[1].state = "degraded"
        # No fast-fail for a merely-slow shard: the worker may answer
        # the reserve fanout, and the two-phase protocol handles it if
        # not.  Hard-down states are the ones that fast-fail.
        ClusterControl(manager)._require_all_available("add_class")

    def test_unsupervised_cluster_never_fast_fails(self, tmp_path):
        manager = make_manager(tmp_path, supervise=False)
        manager.health[1].state = "failed"
        ClusterControl(manager)._require_all_available("add_class")


class TestControlParsing:
    def test_nan_literal_refused_before_fanout(self, tmp_path):
        control = ClusterControl(make_manager(tmp_path))

        async def scenario():
            line = b'{"op": "set_link_rate", "rate": NaN}\n'
            return json.loads(await control.dispatch_line(line))

        response = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"]["type"] == "ClusterError"
        assert "not JSON" in response["error"]["message"]


class TestHealthRendering:
    def test_health_doc_and_prometheus_lines(self, tmp_path):
        manager = make_manager(tmp_path)
        manager.health[1].state = "restarting"
        manager.health[1].restarts = 2
        manager.health[1].downtime_s = 1.5
        manager._count("cluster.restarts", 2)
        doc = manager.health_doc()
        assert doc["supervised"] is True
        assert doc["policy"]["restart_policy"] == "continue-degraded"
        assert doc["shards"][1]["state"] == "restarting"
        text = cluster_health_to_prometheus(doc)
        assert "repro_cluster_restarts_total 2" in text
        assert 'repro_cluster_shard_state{shard="1"} 3' in text
        assert 'repro_cluster_shard_restarts_total{shard="1"} 2' in text
        assert 'repro_cluster_shard_breaker{shard="0"} 0' in text


class TestCheckpointRotation:
    def test_checkpoint_rotates_and_fires_hook(self, tmp_path):
        service = ServeService(split_specs(30_000.0), 30_000.0,
                               watchdog_period=0)
        path = str(tmp_path / "svc.snap")
        service.snapshot_path = path
        pinned = []
        service.on_checkpoint = pinned.append
        service.checkpoint()
        assert os.path.exists(path) and not os.path.exists(path + ".prev")
        first = json.load(open(path))["checksum"]
        service.checkpoint()
        assert os.path.exists(path + ".prev")
        assert json.load(open(path + ".prev"))["checksum"] == first
        assert not os.path.exists(path + ".next")
        assert service.checkpoints_written == 2
        assert pinned == [path, path]
