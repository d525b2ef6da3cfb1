"""Shared pieces of the benchmark: the service process, quantiles, counters.

The service runs as ``server.py`` in its own process; :class:`Service`
spawns it, times spawn -> first answered request, and collects its final
report.  :func:`layer_metrics` turns the service's span totals into the
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".perfbench_run"
#: Service spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
SERVER = os.path.join(HERE, "server.py")
PYTHON = sys.executable or "python3"


class RunError(Exception):
    """The run could not be carried out (not an output check failure)."""


# -- small helpers ---------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by ``statistics.quantiles``' method."""
    if len(values) < 2:
        raise RunError(f"too few samples ({len(values)}) for a quantile")
    cuts = statistics.quantiles(values, n=1000)
    return cuts[int(round(q * 1000)) - 1]


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from the OS."""
    with open(f"/proc/{pid}/stat", "r") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def udp_counters() -> Dict[str, int]:
    """The ``Udp:`` row of ``/proc/net/snmp`` ({} where there is none)."""
    try:
        with open("/proc/net/snmp", "r") as fh:
            rows = [line.split() for line in fh if line.startswith("Udp:")]
    except OSError:
        return {}
    if len(rows) < 2:
        return {}
    return {k: int(v) for k, v in zip(rows[0][1:], rows[1][1:])}


def src_digest() -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join("src", "repro"))):
        dirs[:] = sorted(d for d in dirs if not d.startswith(("_build", "__")))
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision() -> Optional[str]:
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


# -- the service process ------------------------------------------------------------


def _cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


#: With two or more CPUs the service gets one to itself and the client
#: (this process) another, so the two never queue behind each other.
SERVICE_CPU = _cpus()[-1] if len(_cpus()) >= 2 else None
CLIENT_CPU = _cpus()[0] if len(_cpus()) >= 2 else None


def _pin(cpu: Optional[int]):
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def pin_client() -> None:
    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})


class Service:
    """One spawned ``server.py``; ``ready_s`` is spawn -> first answer."""

    def __init__(self, workload: str, ctl: str, trace: bool = False):
        cmd = [PYTHON, SERVER, "--workload", workload, "--ctl", ctl,
               "--trace", "1" if trace else "0"]
        if trace:
            cmd += ["--spans-out", os.path.join(WORKDIR, f"spans-{workload}.json")]
        if os.path.exists(ctl):
            os.unlink(ctl)
        self.ctl = ctl
        t0 = time.perf_counter()
        # A fixed hash seed: runs do not differ in dict and set layout.
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=env, preexec_fn=_pin(SERVICE_CPU))
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RunError("service exited before it was ready")
            self.ready = json.loads(line)
            self.pid = self.proc.pid
            self.port = self.ready["port"]
            self.ctl_sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.ctl_sock.connect(ctl)
            self.ctl_file = self.ctl_sock.makefile("rwb")
            reply = self.call({"op": "ping"})
            if not reply["ok"]:
                raise RunError(f"service refused ping: {reply}")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - t0

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.ctl_file.write(json.dumps(request).encode() + b"\n")
        self.ctl_file.flush()
        line = self.ctl_file.readline()
        if not line:
            raise RunError("control connection closed by the service")
        return json.loads(line)

    def finish(self, timeout: float = 60.0) -> Dict[str, Any]:
        """Ask the service to stop; return its final report line."""
        self.call({"op": "shutdown", "snapshot": False})
        self.ctl_file.close()
        self.ctl_sock.close()
        out, _ = self.proc.communicate(timeout=timeout)
        if self.proc.returncode != 0:
            raise RunError(f"service exited with {self.proc.returncode}")
        lines = [line for line in out.splitlines() if line.strip()]
        if not lines:
            raise RunError("service printed no final report")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if os.path.exists(self.ctl):
            os.unlink(self.ctl)


def measure_setup(workload: str, ctl: str, spawns: int) -> List[float]:
    """Spawn the service ``spawns`` times; each is stopped once it answers."""
    times = []
    for _ in range(spawns):
        svc = Service(workload, ctl)
        try:
            times.append(svc.ready_s)
            svc.finish()
        finally:
            svc.kill()
    return times


# -- result assembly ----------------------------------------------------------------


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.errors: Dict[str, int] = {}
        self.attempted = 0
        self.info: Dict[str, Any] = {}

    def fail(self, errors: Dict[str, int]) -> None:
        for name, count in errors.items():
            if count:
                self.errors[name] = self.errors.get(name, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def layer_metrics(final: Dict[str, Any], packets: int, cpu_s: float,
                  out: Outcome) -> None:
    """Per-layer metrics from the service's span totals."""
    totals = final["trace"]["totals"]

    def get(name: str, field: str) -> float:
        return float(totals.get(name, {}).get(field, 0))

    def per_call_us(name: str, field: str = "total_ns") -> float:
        calls = get(name, "count")
        return get(name, field) / calls / 1e3 if calls else 0.0

    def per_unit_us(name: str) -> float:
        units = get(name, "units")
        return get(name, "total_ns") / units / 1e3 if units else 0.0

    pkts = max(packets, 1)
    summary = final["summary"]
    plane = summary["dataplane"]
    check_ns = get("watchdog.check", "total_ns")
    layers = out.layers
    layers["wire.decode_us"] = per_call_us("wire.decode")
    layers["wire.classify_us"] = per_call_us("wire.classify")
    layers["wire.encode_us"] = per_call_us("wire.encode")
    layers["ingress.ingest_self_us"] = per_call_us("ingress.ingest", "self_ns")
    offers = get("link.offer_batch", "count")
    layers["ingress.burst_pkts"] = (get("link.offer_batch", "units") / offers
                                    if offers else 0.0)
    layers["ingress.reflect_send_us"] = per_call_us("ingress.reflect_send")
    layers["ingress.shed_frac"] = (plane["shed"]["buffer"] / plane["received"]
                                   if plane["received"] else 0.0)
    layers["driver.chunks_per_pkt"] = get("engine.run", "count") / pkts
    layers["driver.lag_max_ms"] = float(summary["max_lag"]) * 1e3
    layers["engine.events_per_pkt"] = summary["events_processed"] / pkts
    layers["engine.run_self_us"] = get("engine.run", "self_ns") / pkts / 1e3
    layers["sched.enqueue_us"] = per_unit_us("sched.enqueue_batch")
    layers["sched.dequeue_us"] = per_call_us("sched.dequeue")
    layers["sched.dequeue_calls_per_pkt"] = get("sched.dequeue", "count") / pkts
    layers["watchdog.check_ms"] = per_call_us("watchdog.check") / 1e3
    layers["watchdog.cpu_share"] = check_ns / 1e9 / cpu_s if cpu_s else 0.0
    for op in CONTROL_LAYER_OPS:
        layers[f"control.dispatch_ms.{op}"] = (
            per_call_us(f"control.dispatch.{op}") / 1e3)
    layers["obs.hook_us_per_pkt"] = get("obs.hook", "total_ns") / pkts / 1e3
    layers["persist.snapshot_ms"] = per_call_us("persist.snapshot") / 1e3
    layers["socket.residual_us_per_pkt"] = (
        (cpu_s - final["trace"]["root_ns"] / 1e9) / pkts * 1e6)


#: Every end-to-end figure a run measures, by name and unit.
MEASURED = (
    ("setup_s", "s"), ("p50_ms", "ms"), ("p90_ms", "ms"), ("rt_p90_ms", "ms"),
    ("sat_pps", "pkt/s"), ("pipeline_pps", "pkt/s"), ("cpu_us_per_pkt", "us"),
    ("ctl_p50_ms", "ms"), ("ctl_p90_ms", "ms"), ("rss_mb", "MB"),
)

#: The gated end-to-end metrics: the measured figures that repeated from
#: run to run on a shared host (see README.md).  The wall-clock latency
#: figures are reported too, ungated, as the ``lat.*`` layer metrics.
END_TO_END = tuple((name, unit) for name, unit in MEASURED
                   if name in ("setup_s", "sat_pps", "pipeline_pps",
                               "cpu_us_per_pkt", "rss_mb"))
LATENCY = tuple(name for name, _ in MEASURED
                if name.endswith("_ms"))

CONTROL_LAYER_OPS = ("ping", "add_class", "update_class", "remove_class",
                     "stats", "classes", "snapshot")

PER_LAYER = (
    "wire.decode_us", "wire.classify_us", "wire.encode_us",
    "ingress.ingest_self_us", "ingress.burst_pkts", "ingress.reflect_send_us",
    "ingress.shed_frac", "driver.chunks_per_pkt", "driver.lag_max_ms",
    "engine.events_per_pkt", "engine.run_self_us", "sched.enqueue_us",
    "sched.dequeue_us", "sched.dequeue_calls_per_pkt", "watchdog.check_ms",
    "watchdog.cpu_share",
    *(f"control.dispatch_ms.{op}" for op in CONTROL_LAYER_OPS),
    "control.wait_ms", "obs.hook_us_per_pkt", "persist.snapshot_ms",
    "persist.snapshot_kb", "socket.rcvbuf_errors", "socket.residual_us_per_pkt",
    "gen.late_p99_ms", "gen.cpu_us_per_pkt", "trace.overhead_cpu_us_per_pkt",
    *(f"lat.{name}" for name in LATENCY),
)

PER_LAYER_UNITS = {
    "ingress.burst_pkts": "pkt", "ingress.shed_frac": "fraction",
    "driver.chunks_per_pkt": "count", "engine.events_per_pkt": "count",
    "sched.dequeue_calls_per_pkt": "count", "watchdog.cpu_share": "fraction",
    "persist.snapshot_kb": "KB", "socket.rcvbuf_errors": "count",
}


def layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if "_ms" in name:
        return "ms"
    return "us"
