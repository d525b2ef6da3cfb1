"""End-to-end serving: UDP loopback, control under load, snapshot/resume.

Kept deliberately short (a couple of wall seconds): the full-rate
acceptance run (20k pkt/s, 32 flows, 5% split tolerance) lives in the CI
``serve-smoke`` job; here the same path is exercised at a gentler rate
with wider tolerances so the tier-1 suite stays fast and unflaky.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import time

import pytest

from repro.core.curves import ServiceCurve
from repro.core.errors import SimulationError
from repro.core.hierarchy import ClassSpec
from repro.serve.control import ControlServer
from repro.serve.hierarchy import hierarchy_preset, leaf_names
from repro.serve.ingress import DatagramEndpoint
from repro.serve.loadgen import LoadGenerator, run_load
from repro.serve.service import ServeService
from repro.serve.wire import decode_departure, encode_packet


def split_specs(link_rate):
    return [
        ClassSpec("gold", sc=ServiceCurve.linear(0.6 * link_rate)),
        ClassSpec("bronze", sc=ServiceCurve.linear(0.4 * link_rate)),
    ]


class TestLoopback:
    def test_overloaded_link_shares_goodput(self):
        """CBR overload through real UDP sockets: both classes stay
        backlogged, so reflected goodput must follow the 60/40 link-share
        split; the watchdog audits invariants live throughout."""
        link_rate = 30_000.0  # bytes/s; offered load is ~4x this
        service = ServeService(
            split_specs(link_rate), link_rate,
            time_scale=1.0, buffer_packets=64, watchdog_period=0.25,
        )
        generator = LoadGenerator(
            ["gold", "bronze"], flows=8, rate=400.0, size=300,
            process="cbr", duration=1.5, seed=7,
        )
        control_log = {}

        async def scenario():
            host, port = await service.start_udp("127.0.0.1", 0)
            serve = asyncio.ensure_future(
                service.run(duration=8.0, install_signals=False)
            )
            load = asyncio.ensure_future(
                run_load(f"{host}:{port}", generator, drain=0.8)
            )
            # Mid-run control: shrink gold (admissible), then try to
            # overbook (must be rejected eagerly) -- all while loaded.
            await asyncio.sleep(0.5)
            from repro.serve.control import ControlServer

            server = ControlServer(service)
            shrink = json.loads(server.dispatch_line(json.dumps(
                {"op": "update_class", "name": "gold",
                 "sc": {"rate": 0.5 * link_rate}}).encode()))
            overbook = json.loads(server.dispatch_line(json.dumps(
                {"op": "add_class", "name": "greedy",
                 "sc": {"rate": 0.9 * link_rate}}).encode()))
            restore = json.loads(server.dispatch_line(json.dumps(
                {"op": "update_class", "name": "gold",
                 "sc": {"rate": 0.6 * link_rate}}).encode()))
            control_log.update(
                shrink=shrink, overbook=overbook, restore=restore
            )
            await load
            service.request_stop(snapshot=False)
            await serve

        asyncio.run(scenario())
        assert control_log["shrink"]["ok"], control_log
        assert not control_log["overbook"]["ok"], control_log
        assert "admission" in control_log["overbook"]["error"]["message"]
        assert control_log["restore"]["ok"], control_log

        report = generator.report()
        summary = service.summary()
        assert summary["watchdog"]["violations"] == []
        assert report["received"] > 100, report
        # Continuous overload on both classes: goodput follows the
        # link-share weights (0.5/0.6 gold mid-run; allow a wide band).
        gold = report["per_class"]["gold"]["share"]
        assert 0.40 <= gold <= 0.72, report["per_class"]
        # Open-loop 4x overload must shed at the edge, never crash.
        assert service.dataplane.shed_buffer > 0
        assert summary["dataplane"]["shed"]["unparseable"] == 0

    def test_hls_backend_shares_goodput_under_chaos(self):
        """The same overload scenario on the hls backend: goodput follows
        the 60/40 weights, the watchdog audits the ring/credit invariants
        throughout, and live weight updates through the control plane
        neither crash nor trip it."""
        link_rate = 30_000.0
        service = ServeService(
            split_specs(link_rate), link_rate, backend="hls",
            time_scale=1.0, buffer_packets=64, watchdog_period=0.25,
        )
        assert service.watchdog is not None  # hls exposes check_invariants
        generator = LoadGenerator(
            ["gold", "bronze"], flows=8, rate=400.0, size=300,
            process="cbr", duration=1.5, seed=11,
            expected={"gold": 0.6, "bronze": 0.4},
        )
        control_log = {}

        async def scenario():
            host, port = await service.start_udp("127.0.0.1", 0)
            serve = asyncio.ensure_future(
                service.run(duration=8.0, install_signals=False)
            )
            load = asyncio.ensure_future(
                run_load(f"{host}:{port}", generator, drain=0.8)
            )
            await asyncio.sleep(0.5)
            from repro.serve.control import ControlServer

            server = ControlServer(service)
            # Live weight chaos mid-load: shift and restore the split.
            shift = json.loads(server.dispatch_line(json.dumps(
                {"op": "update_class", "name": "gold",
                 "rate": 0.5 * link_rate}).encode()))
            restore = json.loads(server.dispatch_line(json.dumps(
                {"op": "update_class", "name": "gold",
                 "rate": 0.6 * link_rate}).encode()))
            control_log.update(shift=shift, restore=restore)
            await load
            service.request_stop(snapshot=False)
            await serve

        asyncio.run(scenario())
        assert control_log["shift"]["ok"], control_log
        assert control_log["restore"]["ok"], control_log

        report = generator.report()
        summary = service.summary()
        assert summary["watchdog"]["checks_run"] >= 1
        assert summary["watchdog"]["violations"] == []
        assert report["received"] > 100, report
        # Round-robin rounds are quantum-grained (12 kB default against
        # a ~45 kB steady window), so allow a round of slack around 0.6.
        gold = report["per_class"]["gold"]["share"]
        assert 0.40 <= gold <= 0.76, report["per_class"]
        assert report["fairness"]["jain"] > 0.9, report["fairness"]

    def test_largest_udp_datagram_arrives_whole(self):
        """The ingress receive buffer holds any UDP datagram untruncated
        (the charged size is the received length)."""
        service = ServeService(
            split_specs(10_000.0), 10_000.0, time_scale=1.0,
            watchdog_period=0.0,
        )
        largest = 65_507  # IPv4: 65,535 minus the IP and UDP headers

        async def scenario():
            host, port = await service.start_udp("127.0.0.1", 0)
            aio = asyncio.get_running_loop()
            transport, _ = await aio.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=(host, port)
            )
            transport.sendto(encode_packet("gold#0", 0, 0.0, largest))
            await asyncio.sleep(0.2)
            transport.close()
            service.request_stop(snapshot=False)
            await service.run(duration=5.0, install_signals=False)

        asyncio.run(scenario())
        plane = service.dataplane
        assert plane.delivered == 1
        assert plane.bytes_in == largest

    def test_unknown_flows_are_shed_not_fatal(self):
        service = ServeService(
            split_specs(10_000.0), 10_000.0, time_scale=1.0,
            watchdog_period=0.0,
        )

        async def scenario():
            host, port = await service.start_udp("127.0.0.1", 0)
            aio = asyncio.get_running_loop()
            transport, _ = await aio.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=(host, port)
            )
            transport.sendto(b"garbage-not-wire-format")
            transport.sendto(encode_packet("no.such.class#0", 0, 0.0, 64))
            transport.sendto(encode_packet("gold#0", 0, 0.0, 64))
            await asyncio.sleep(0.2)
            transport.close()
            service.request_stop(snapshot=False)
            await service.run(duration=5.0, install_signals=False)

        asyncio.run(scenario())
        plane = service.dataplane
        assert plane.shed_unparseable == 1
        assert plane.shed_unknown == 1
        assert plane.delivered == 1


#: Linux's value; older Pythons do not export the name.
IP_RECVERR = getattr(socket, "IP_RECVERR", None) or 11


class _Notices(asyncio.DatagramProtocol):
    """A client socket that queues every departure notice it receives."""

    def __init__(self):
        self.queue: asyncio.Queue = asyncio.Queue()

    def datagram_received(self, data, addr):
        self.queue.put_nowait(decode_departure(data))


async def _client(host, port):
    aio = asyncio.get_running_loop()
    transport, notices = await aio.create_datagram_endpoint(
        _Notices, remote_addr=(host, port))
    return transport, notices.queue


async def _wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.002)


class TestPumpAndEndpoint:
    def test_link_rate_change_wakes_the_pacer(self):
        """A control op that moves the next event earlier re-arms the
        pacer.  With the watchdog off the only pending event is the
        in-flight departure, 10 s out at 100 B/s; once the rate is 1e9
        B/s its notice must come promptly, not at the old deadline."""
        specs = hierarchy_preset("campus", 100.0)
        service = ServeService(specs, 100.0, time_scale=1.0,
                               watchdog_period=0.0)
        flow = f"{leaf_names(specs)[0]}#0"
        seen = {}

        async def scenario():
            host, port = await service.start_udp("127.0.0.1", 0)
            serve = asyncio.ensure_future(service.run(install_signals=False))
            transport, notices = await _client(host, port)
            transport.sendto(encode_packet(flow, 0, 0.0, 1000))
            await _wait_for(lambda: service.dataplane.delivered == 1)
            await asyncio.sleep(0.2)  # the pacer sleeps on the 10 s deadline
            seen["reply"] = json.loads(ControlServer(service).dispatch_line(
                json.dumps({"op": "set_link_rate", "rate": 1e9}).encode()))
            t0 = time.monotonic()
            await asyncio.wait_for(notices.get(), timeout=5.0)
            seen["late_s"] = time.monotonic() - t0
            transport.close()
            service.request_stop(snapshot=False)
            await serve

        asyncio.run(scenario())
        assert seen["reply"]["ok"], seen
        assert seen["late_s"] < 0.1, seen

    def test_reader_error_surfaces_from_run(self):
        """An exception inside the socket reader ends ``run`` with that
        exception (and closes the sockets) instead of hanging it."""
        service = ServeService(split_specs(1e4), 1e4, time_scale=1.0,
                               watchdog_period=0.0)

        def broken_ingest(data, addr, transport=None):
            raise SimulationError("ingest failed")

        async def scenario():
            host, port = await service.start_udp("127.0.0.1", 0)
            service.dataplane.ingest = broken_ingest
            serve = asyncio.ensure_future(service.run(install_signals=False))
            transport, _ = await _client(host, port)
            transport.sendto(encode_packet("gold#0", 0, 0.0, 64))
            try:
                with pytest.raises(SimulationError, match="ingest failed"):
                    await asyncio.wait_for(serve, timeout=2.0)
            finally:
                transport.close()

        asyncio.run(scenario())
        assert service._transports == []

    def test_drain_yields_after_max_burst(self):
        """A drain stops after ``MAX_BURST`` datagrams and the next
        readiness event reads the rest, so none is lost or reordered."""
        service = ServeService(split_specs(1e6), 1e6, time_scale=1.0,
                               watchdog_period=0.0)
        drains = []
        got = []

        async def scenario():
            host, port = await service.start_udp("127.0.0.1", 0)
            endpoint = service._transports[0]
            endpoint.MAX_BURST = 4
            drain = endpoint._drain
            endpoint._drain = lambda: (drains.append(1), drain())
            serve = asyncio.ensure_future(service.run(install_signals=False))
            transport, notices = await _client(host, port)
            for seq in range(10):  # all queued before the service reads
                transport.sendto(encode_packet("gold#0", seq, 0.0, 64))
            for _ in range(10):
                got.append(await asyncio.wait_for(notices.get(), timeout=2.0))
            transport.close()
            service.request_stop(snapshot=False)
            await serve

        asyncio.run(scenario())
        assert [notice["seq"] for notice in got] == list(range(10))
        assert len(drains) >= 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="IP_RECVERR is Linux-only")
    def test_vanished_sender_does_not_stop_the_drain(self):
        """Client A sends and closes its socket before its notice goes
        out; the port-unreachable error that comes back is read (and
        skipped) by the drain, and client B, sending both after it and in
        the same burst as a second vanished sender, gets every notice."""
        service = ServeService(split_specs(1e6), 1e6, time_scale=1.0,
                               watchdog_period=0.0)
        got = []

        def vanishing_send(dest, flow):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.sendto(encode_packet(flow, 0, 0.0, 64), dest)
            sock.close()

        async def scenario():
            host, port = await service.start_udp("127.0.0.1", 0)
            endpoint = service._transports[0]
            # Linux reports ICMP errors on an unconnected UDP socket only
            # with IP_RECVERR; ask for them so they reach recvfrom.
            endpoint.sock.setsockopt(socket.IPPROTO_IP, IP_RECVERR, 1)
            serve = asyncio.ensure_future(service.run(install_signals=False))
            plane = service.dataplane
            vanishing_send((host, port), "gold#a")
            await _wait_for(lambda: plane.departed == 1)
            await asyncio.sleep(0.05)
            transport, notices = await _client(host, port)
            for seq in range(10):
                transport.sendto(encode_packet("bronze#b", seq, 0.0, 64))
            vanishing_send((host, port), "gold#c")
            for seq in range(10, 20):
                transport.sendto(encode_packet("bronze#b", seq, 0.0, 64))
            for _ in range(20):
                got.append(await asyncio.wait_for(notices.get(), timeout=2.0))
            transport.close()
            service.request_stop(snapshot=False)
            await serve

        asyncio.run(scenario())
        assert [notice["seq"] for notice in got] == list(range(20))
        assert service.dataplane.departed == 22
        assert service.summary()["dataplane"]["read_errors"] >= 1

    def test_full_socket_queues_notices_in_order(self):
        """``sendto`` on EAGAIN queues the notice behind a writer callback
        instead of dropping it, and later notices wait their turn."""

        class FullSocket(socket.socket):
            refusals = 2

            def sendto(self, data, addr):
                if self.refusals:
                    self.refusals -= 1
                    raise BlockingIOError
                return super().sendto(data, addr)

        sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sink.bind(("127.0.0.1", 0))
        sink.settimeout(2.0)
        sock = FullSocket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))

        async def scenario():
            endpoint = DatagramEndpoint(
                asyncio.get_running_loop(), sock, dataplane=None)
            endpoint.sendto(b"first", sink.getsockname())
            endpoint.sendto(b"second", sink.getsockname())
            assert len(endpoint._unsent) == 2
            await _wait_for(lambda: not endpoint._unsent)
            endpoint.sendto(b"third", sink.getsockname())
            endpoint.close()

        try:
            asyncio.run(scenario())
            assert [sink.recv(64) for _ in range(3)] == [
                b"first", b"second", b"third"]
            assert sock.refusals == 0
        finally:
            sink.close()


class TestSnapshotResume:
    def test_restart_without_amnesia(self, tmp_path):
        """Queued packets, live-added classes and the clock survive a
        snapshot/restore into a fresh service."""
        path = str(tmp_path / "serve.snap")
        first = ServeService(
            split_specs(1000.0), 1000.0, time_scale=0.0, watchdog_period=0.5,
        )
        first.scheduler.add_class("silver", ls_sc=ServiceCurve.linear(100.0))
        rows = []
        first.link.add_listener(
            lambda p, now: rows.append((p.class_id, p.departed)),
            key="test.rows",
        )
        for i in range(4):
            first.dataplane.ingest(encode_packet("gold#0", i, 0.0, 200), None)
        first.driver.run_due()  # deliver: one in flight, three queued
        first.write_snapshot(path)
        backlog_at_snap = dict(first.dataplane.backlog)
        assert backlog_at_snap.get("gold", 0) >= 3

        second = ServeService(
            split_specs(1000.0), 1000.0, time_scale=0.0, watchdog_period=0.5,
        )
        rows2 = []
        second.link.add_listener(
            lambda p, now: rows2.append((p.class_id, p.departed)),
            key="test.rows",
        )
        second.restore_snapshot(path)
        assert second.resumed_from == path
        # The live-added class came back with the snapshot.
        assert "silver" in {
            cls.name for cls in second.scheduler.leaf_classes()
        }
        # The edge buffer accounting was rebuilt from the restored queues.
        assert second.dataplane.backlog == backlog_at_snap
        # And the service finishes the backlog it inherited.
        second.driver.run(until=second.loop.now + 5.0)
        assert [cid for cid, _ in rows2] == ["gold"] * 4
        assert second.scheduler.backlog_packets == 0

    def test_request_stop_writes_configured_snapshot(self, tmp_path):
        path = str(tmp_path / "sigterm.snap")
        service = ServeService(
            split_specs(1000.0), 1000.0, time_scale=0.0, watchdog_period=0.0,
        )
        service.snapshot_path = path
        service.dataplane.ingest(encode_packet("gold#0", 0, 0.0, 200), None)
        service.driver.run_due()
        service.request_stop()  # the SIGTERM handler's code path
        assert (tmp_path / "sigterm.snap").exists()
        assert service.driver._stopping

    def test_request_stop_retries_snapshot_after_failure(self, tmp_path, capsys):
        """A failed signal-time snapshot must not burn the write-once
        guard: the next SIGTERM retries (and the error prints once)."""
        service = ServeService(
            split_specs(1000.0), 1000.0, time_scale=0.0, watchdog_period=0.0,
        )
        service.snapshot_path = str(tmp_path / "no-such-dir" / "x.snap")
        service.request_stop()
        service.request_stop()  # second failure must stay silent
        err = capsys.readouterr().err
        assert err.count("snapshot") == 1
        assert service._signal_snapshots == 0
        # The operator fixes the path; the next signal succeeds.
        service.snapshot_path = str(tmp_path / "retry.snap")
        service.request_stop()
        assert (tmp_path / "retry.snap").exists()
        assert service._signal_snapshots == 1


class TestBindErrors:
    def test_unix_datagram_address_in_use_is_structured(self, tmp_path):
        from repro.serve.service import BindError

        path = str(tmp_path / "in.sock")
        first = ServeService(split_specs(1000.0), 1000.0, time_scale=0.0)
        second = ServeService(split_specs(1000.0), 1000.0, time_scale=0.0)

        async def scenario():
            await first.start_unix_datagram(path)
            try:
                with pytest.raises(BindError) as info:
                    await second.start_unix_datagram(path)
            finally:
                first.close()
            return info.value

        exc = asyncio.run(scenario())
        assert exc.address == f"unix-dgram://{path}"
        assert "already in use" in str(exc)

    def test_udp_port_in_use_is_structured(self):
        from repro.serve.service import BindError

        first = ServeService(split_specs(1000.0), 1000.0, time_scale=0.0)
        second = ServeService(split_specs(1000.0), 1000.0, time_scale=0.0)

        async def scenario():
            host, port = await first.start_udp("127.0.0.1", 0)
            try:
                with pytest.raises(BindError) as info:
                    await second.start_udp(host, port)
            finally:
                first.close()
            return info.value

        exc = asyncio.run(scenario())
        assert "cannot bind udp://" in str(exc)
        assert "already in use" in str(exc)
