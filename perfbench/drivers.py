"""One function per workload: drive it, measure it, check its outputs.

Each returns an :class:`~harness.Outcome`.  Timings are wall clock
(``time.perf_counter``); the service's CPU comes from the OS.
"""

from __future__ import annotations

import os
import socket
import statistics
import time
from typing import Any, Dict, List

import checks
import workloads
from client import ControlLoop, OpenLoop, build_datagrams
from harness import (
    WORKDIR,
    Outcome,
    Service,
    layer_metrics,
    proc_cpu_s,
    quantile,
    udp_counters,
)

#: Wall seconds at the start of a window that no metric counts.
WARMUP = 0.5
#: A generator stall this long (seconds) releases a burst that can fill
#: the service's socket buffer by itself.
GEN_STALL = 0.04
#: Latency quantiles are taken per sub-window; the median is reported.
WINDOWS = 10
#: Seconds after the last send during which notices are still collected.
DRAIN = 1.0
#: udp-backlog-ctl's queues hold up to ~2 s of traffic; let them empty.
BACKLOG_DRAIN = 3.0
#: ...and its edge buffers take ~1.5 s to fill; windows start after.
BACKLOG_FILL = 2.0
#: Control ops per second on the closed-loop control connection.
PING_RATE = 500.0
CTL_RATE = 100.0
#: One snapshot per this many control ops (reported separately).
SNAPSHOT_EVERY = 50
TEMP = "bench.tmp"


def _udp_socket() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    # Client-side buffers only: notices must not be lost in the client.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
    sock.setblocking(False)
    sock.bind(("127.0.0.1", 0))
    return sock


def _ctl_path(tag: str) -> str:
    return os.path.join(WORKDIR, f"{tag}.ctl")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _buckets(times: List[float], lo: float, hi: float) -> List[List[int]]:
    """Indices of ``times`` in each of ``WINDOWS`` equal parts of [lo, hi)."""
    width = (hi - lo) / WINDOWS
    out: List[List[int]] = [[] for _ in range(WINDOWS)]
    for j, t in enumerate(times):
        if lo <= t < hi:
            out[min(int((t - lo) / width), WINDOWS - 1)].append(j)
    return out


def windowed(values: List[float], times: List[float], lo: float, hi: float,
             q: float) -> float:
    """Median over equal sub-windows of ``[lo, hi]`` of each one's q-quantile.

    A host stall of a few hundred milliseconds then moves one sub-window's
    tail, not the reported figure.
    """
    return statistics.median(quantile([values[j] for j in idx], q)
                             for idx in _buckets(times, lo, hi))


def windowed_rate(times: List[float], lo: float, hi: float) -> float:
    """Median over equal sub-windows of ``[lo, hi]`` of events per second."""
    counts = [len(idx) for idx in _buckets(times, lo, hi)]
    return statistics.median(counts) / ((hi - lo) / WINDOWS)


def _control_stats(done: List[tuple], out: Outcome):
    """Round trips (ms) of non-snapshot ops, with the times they were sent."""
    rtts, times = [], []
    for request, sent_at, rtt, reply in done:
        out.attempted += 1
        if not reply.get("ok"):
            out.fail({f"control-failed.{request['op']}": 1})
        if request["op"] != "snapshot":
            rtts.append(_ms(rtt))
            times.append(sent_at)
    return rtts, times


def loss_failures(errors: Dict[str, int], late: List[float], out: Outcome
                  ) -> None:
    """Count missing departures as failures, unless the generator stalled.

    After a stall of ``GEN_STALL`` or more the open-loop client releases
    everything that fell due meanwhile in one burst; kernel drops in such
    a run are the generator's doing, not the service's, and are reported
    as ``info.kernel_drop_after_generator_stall`` instead.
    """
    late_max = max(late, default=0.0)
    out.info["gen_late_max_ms"] = _ms(late_max)
    drops = errors.get("missing-departure.kernel-drop", 0)
    if drops and late_max >= GEN_STALL:
        out.info["kernel_drop_after_generator_stall"] = drops
        errors = {k: v for k, v in errors.items()
                  if k != "missing-departure.kernel-drop"}
    out.fail(errors)


def _count(times: List[float], lo: float, hi: float) -> int:
    return sum(1 for t in times if lo <= t < hi)


def _gen_layers(loop: OpenLoop, cpu_s: float, out: Outcome) -> None:
    out.layers["gen.late_p99_ms"] = _ms(quantile(loop.late, 0.99))
    out.layers["gen.cpu_us_per_pkt"] = cpu_s / max(len(loop.late), 1) * 1e6


# -- udp-small ------------------------------------------------------------------------


def udp_small(seed: int, seconds: float, trace: bool, tag: str) -> Outcome:
    """Steady phase (latency, CPU), then overload phase (capacity)."""
    out = Outcome()
    steady_end = 0.5 * seconds
    gap = 0.3
    over_start = steady_end + gap
    over_end = over_start + 0.5 * seconds
    schedule = workloads.small_schedule(seed, (0.0, steady_end),
                                        (over_start, over_end))
    datagrams = build_datagrams(schedule)
    nsteady = sum(1 for d in schedule.due if d < steady_end)
    snmp0 = udp_counters()
    svc = Service("udp-small", _ctl_path(tag), trace=trace)
    try:
        sock = _udp_socket()
        dest = ("127.0.0.1", svc.port)
        ping = ControlLoop(svc.ctl, lambda i: {"op": "ping"}, 1.0 / PING_RATE,
                           WARMUP, steady_end)
        steady = OpenLoop(sock, dest, schedule.due[:nsteady],
                          datagrams[:nsteady], control=ping)
        over = OpenLoop(sock, dest, schedule.due[nsteady:],
                        datagrams[nsteady:])
        gen0 = time.process_time()
        t0 = time.perf_counter()
        cpu0 = proc_cpu_s(svc.pid)
        steady.run(t0, steady_end + gap)
        cpu1 = proc_cpu_s(svc.pid)
        mid = svc.call({"op": "stats"})["result"]["dataplane"]
        over.run(t0, over_end + DRAIN)
        cpu2 = proc_cpu_s(svc.pid)
        gen_cpu = time.process_time() - gen0
        ping.close()
        end = svc.call({"op": "stats"})["result"]["dataplane"]
        final = svc.finish()
    finally:
        svc.kill()
    sock.close()
    snmp1 = udp_counters()

    matched = checks.match_notices(schedule, steady.receipts + over.receipts)
    out.fail(matched.errors)
    sojourn = matched.sojourns(schedule)
    due = [schedule.due[i] for i in matched.index]
    lecture = {f for f, name in enumerate(schedule.flows)
               if name.rpartition("#")[0] in workloads.LECTURE_LEAVES}
    rt = [(s, d) for s, d, i in zip(sojourn, due, matched.index)
          if schedule.flow[i] in lecture]
    steady_notices = sum(1 for d in due if d < steady_end)
    out.attempted += len(schedule)
    loss_failures(checks.check_accounting(
        nsteady, mid["received"], mid["departed"], mid["shed"]["total"],
        sum(mid["backlog"].values()), steady_notices), steady.late, out)
    rtts, sent_at = _control_stats(ping.done, out)
    lo, hi = WARMUP, steady_end
    sat_lo, sat_hi = over_start + WARMUP, over_end
    departed_over = end["departed"] - mid["departed"]
    m = out.metrics
    m["p50_ms"] = _ms(windowed(sojourn, due, lo, hi, 0.50))
    m["p90_ms"] = _ms(windowed(sojourn, due, lo, hi, 0.90))
    m["rt_p90_ms"] = _ms(windowed(*map(list, zip(*rt)), lo, hi, 0.90))
    m["sat_pps"] = windowed_rate(matched.receipt, sat_lo, sat_hi)
    # In overload every departure is a notice: the two rates coincide.
    m["pipeline_pps"] = m["sat_pps"]
    m["cpu_us_per_pkt"] = (cpu1 - cpu0) / max(steady_notices, 1) * 1e6
    m["ctl_p50_ms"] = windowed(rtts, sent_at, lo, hi, 0.50)
    m["ctl_p90_ms"] = windowed(rtts, sent_at, lo, hi, 0.90)
    m["rss_mb"] = final["maxrss_kb"] / 1024.0
    out.info.update({
        "samples": {"latency": _count(due, lo, hi),
                    "rt": _count([d for _, d in rt], lo, hi),
                    "ctl": _count(sent_at, lo, hi)},
        "overload": {"offered": len(schedule) - nsteady,
                     "received": end["received"] - mid["received"],
                     "departed": departed_over,
                     "drop_frac": 1 - (end["received"] - mid["received"])
                     / max(len(schedule) - nsteady, 1)},
        "watchdog_violations": len(final["summary"]["watchdog"]["violations"]),
        "snmp_udp_delta": {k: snmp1[k] - snmp0.get(k, 0) for k in snmp1},
    })
    if out.info["watchdog_violations"]:
        out.fail({"watchdog-violation": out.info["watchdog_violations"]})
    if trace:
        layer_metrics(final, end["departed"], cpu2 - cpu0, out)
        _gen_layers(steady, gen_cpu, out)
        out.layers["control.wait_ms"] = _wait_ms(rtts, final, ("ping",))
        out.layers["socket.rcvbuf_errors"] = float(
            out.info["snmp_udp_delta"].get("RcvbufErrors", 0))
    return out


def _wait_ms(rtts: List[float], final: Dict[str, Any], ops) -> float:
    """Mean control round trip minus mean dispatch time."""
    totals = final["trace"]["totals"]
    calls = sum(totals.get(f"control.dispatch.{op}", {}).get("count", 0)
                for op in ops)
    ns = sum(totals.get(f"control.dispatch.{op}", {}).get("total_ns", 0)
             for op in ops)
    if not rtts or not calls:
        return 0.0
    return statistics.fmean(rtts) - ns / calls / 1e6


# -- udp-backlog-ctl --------------------------------------------------------------------


def _backlog_op(i: int, tag: str) -> Dict[str, Any]:
    if i % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
        return {"op": "snapshot",
                "path": os.path.join(WORKDIR, f"{tag}.snap")}
    mix = (
        {"op": "add_class", "name": TEMP, "ls_sc": {"rate": 1000.0}},
        {"op": "stats"},
        {"op": "update_class", "name": TEMP, "ls_sc": {"rate": 2000.0}},
        {"op": "classes"},
        {"op": "remove_class", "name": TEMP},
    )
    return mix[(i - i // SNAPSHOT_EVERY) % len(mix)]


def udp_backlog_ctl(seed: int, seconds: float, trace: bool, tag: str) -> Outcome:
    """Deep queues on the simulated link, telemetry on, live control."""
    out = Outcome()
    window = (BACKLOG_FILL, seconds)
    schedule = workloads.backlog_schedule(seed, seconds)
    datagrams = build_datagrams(schedule)
    snmp0 = udp_counters()
    svc = Service("udp-backlog-ctl", _ctl_path(tag), trace=trace)
    snap_path = os.path.join(WORKDIR, f"{tag}.snap")
    try:
        sock = _udp_socket()
        ctl = ControlLoop(svc.ctl, lambda i: _backlog_op(i, tag),
                          1.0 / CTL_RATE, WARMUP, seconds)
        loop = OpenLoop(sock, ("127.0.0.1", svc.port), schedule.due,
                        datagrams, control=ctl)
        gen0 = time.process_time()
        t0 = time.perf_counter()
        cpu0 = proc_cpu_s(svc.pid)
        loop.run(t0, seconds + BACKLOG_DRAIN)
        cpu1 = proc_cpu_s(svc.pid)
        gen_cpu = time.process_time() - gen0
        ctl.close()
        snap_kb = (os.path.getsize(snap_path) / 1024.0
                   if os.path.exists(snap_path) else 0.0)
        end = svc.call({"op": "stats"})["result"]["dataplane"]
        watchdog = svc.call({"op": "watchdog"})["result"]
        final = svc.finish()
    finally:
        svc.kill()
        if os.path.exists(snap_path):
            os.unlink(snap_path)
    sock.close()
    snmp1 = udp_counters()

    matched = checks.match_notices(schedule, loop.receipts)
    out.fail(matched.errors)
    sojourn = matched.sojourns(schedule)
    leaf_of = [name.rpartition("#")[0] for name in schedule.flows]
    due = [schedule.due[i] for i in matched.index]
    rt = [(s, d) for s, d, i in zip(sojourn, due, matched.index)
          if leaf_of[schedule.flow[i]] in workloads.LECTURE_LEAVES]
    got: Dict[str, float] = {}
    for i, r in zip(matched.index, matched.receipt):
        if window[0] <= r <= window[1]:
            leaf = leaf_of[schedule.flow[i]]
            got[leaf] = got.get(leaf, 0.0) + schedule.size[i]
    offered: Dict[str, float] = {}
    for d, f, size in zip(schedule.due, schedule.flow, schedule.size):
        if window[0] <= d <= window[1]:
            offered[leaf_of[f]] = offered.get(leaf_of[f], 0.0) + size
    span = window[1] - window[0]
    expected = checks.max_min_shares(
        workloads.backlog_specs(),
        {leaf: b / span for leaf, b in offered.items()},
        workloads.BACKLOG_LINK_RATE)
    total = sum(got.values())
    measured = {leaf: b / total for leaf, b in got.items()}
    out.fail(checks.check_shares(measured, expected))
    out.attempted += len(schedule)
    loss_failures(checks.check_accounting(
        len(schedule), end["received"], end["departed"],
        end["shed"]["buffer"], sum(end["backlog"].values()),
        len(matched.index)), loop.late, out)
    rtts, sent_at = _control_stats(ctl.done, out)
    lo, hi = window
    violations = len(watchdog["violations"])
    if violations:
        out.fail({"watchdog-violation": violations})
    m = out.metrics
    m["p50_ms"] = _ms(windowed(sojourn, due, lo, hi, 0.50))
    m["p90_ms"] = _ms(windowed(sojourn, due, lo, hi, 0.90))
    m["rt_p90_ms"] = _ms(windowed(*map(list, zip(*rt)), lo, hi, 0.90))
    m["sat_pps"] = windowed_rate(matched.receipt, lo, hi)
    m["pipeline_pps"] = end["departed"] / (seconds + BACKLOG_DRAIN)
    m["cpu_us_per_pkt"] = (cpu1 - cpu0) / max(len(matched.index), 1) * 1e6
    m["ctl_p50_ms"] = windowed(rtts, sent_at, lo, hi, 0.50)
    m["ctl_p90_ms"] = windowed(rtts, sent_at, lo, hi, 0.90)
    m["rss_mb"] = final["maxrss_kb"] / 1024.0
    out.info.update({
        "samples": {"latency": _count(due, lo, hi),
                    "rt": _count([d for _, d in rt], lo, hi),
                    "ctl": _count(sent_at, lo, hi)},
        "shares": {"measured": measured, "expected": expected},
        "ingress.shed_frac": end["shed"]["buffer"] / max(end["received"], 1),
        "snapshots": sum(1 for d in ctl.done if d[0]["op"] == "snapshot"),
        "snmp_udp_delta": {k: snmp1[k] - snmp0.get(k, 0) for k in snmp1},
    })
    if trace:
        layer_metrics(final, end["departed"], cpu1 - cpu0, out)
        _gen_layers(loop, gen_cpu, out)
        out.layers["control.wait_ms"] = _wait_ms(
            rtts, final, ("add_class", "update_class", "remove_class",
                          "stats", "classes"))
        out.layers["persist.snapshot_kb"] = snap_kb
        out.layers["socket.rcvbuf_errors"] = float(
            out.info["snmp_udp_delta"].get("RcvbufErrors", 0))
    return out


RUNNERS = {
    "udp-small": udp_small,
    "udp-backlog-ctl": udp_backlog_ctl,
}
