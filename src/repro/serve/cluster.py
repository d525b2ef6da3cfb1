"""The sharded cluster: N worker processes behind one control plane.

:class:`ShardManager` forks N :func:`~repro.serve.shard.worker_main`
processes -- each a complete single-link ``repro serve`` (scheduler +
Link + Watchdog + RunContext) on its own sockets -- and runs the
**front-end**: one unix-stream control socket speaking the same
newline-JSON protocol as a single service, fanning every operation out
to the shards.

Design invariants, in decreasing order of load-bearing:

* **Same hierarchy everywhere, 1/N of everything.**  Every shard runs
  the identical class tree with every curve and the link rate scaled by
  ``1/N``.  Flows pin to shards by consistent hash, so each class's
  traffic splits across shards and per-shard H-FSC gives it the same
  *fractional* goodput share; the aggregate therefore reproduces the
  single-link link-sharing split (Fig. 1) at N times the throughput.
  Admission is equivalence-preserving: sum of per-shard rt slopes <=
  per-shard rate iff the aggregate inequality (eq. (1)) holds.

* **Two-phase admission.**  Mutations (``add_class``, ``update_class``,
  ``remove_class``, ``set_link_rate``) fan out as *reserve* (``dry_run``
  -- full validation including the eager eq.(1) check, zero mutation)
  to every shard; only if all accept does the front-end *commit*, and a
  commit failure rolls back the already-committed shards (remove the
  added class / restore previous curves / re-add the removed class /
  restore the old rate).  The front-end serializes mutations with an
  :class:`asyncio.Lock`, so reserve-to-commit races cannot happen
  through it -- and a shard killed mid-sequence fails its reserve or
  commit, never half-applies.

* **Merged observability.**  ``stats`` returns the PR-3 exporter
  snapshots of all shards merged by :func:`repro.obs.export.merge_snapshots`;
  ``watchdog`` concatenates shard-tagged invariant reports; the exit
  summary aggregates every worker's summary document.

* **Cluster snapshots.**  The ``snapshot`` op (and SIGTERM, via each
  worker's own PR-4 path) writes one envelope per shard plus the
  :mod:`repro.persist.manifest` binding them; ``resume`` verifies the
  manifest (placement identity, backend, rate, per-envelope checksums)
  before any worker forks.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import signal
import sys
import tempfile
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.core.curves import ServiceCurve
from repro.core.errors import ConfigurationError, ReproError, SnapshotError
from repro.core.hierarchy import ClassSpec
from repro.obs import core as obs_core
from repro.obs import export as obs_export
from repro.persist.manifest import (
    _envelope_checksum,
    load_manifest,
    manifest_entry,
    read_manifest_doc,
    shard_snapshot_name,
    write_manifest,
)
from repro.util.rng import make_rng
from repro.serve.shard import (
    DEFAULT_REPLICAS,
    DEFAULT_SALT,
    ShardRing,
    shard_control_path,
    shard_summary_path,
    shard_udp_address,
    shard_unix_path,
    worker_config,
    worker_process_entry,
)

#: Seconds the manager waits for every shard's control socket to answer
#: its first ping before declaring the cluster failed to start.
READY_TIMEOUT = 15.0

#: Per-request timeout on a front-end -> shard control call.
CALL_TIMEOUT = 10.0

# A telemetry-on stats snapshot for one shard easily exceeds asyncio's
# default 64 KiB StreamReader limit; one merged response line can carry
# every shard's histograms, so size the control streams generously.
STREAM_LIMIT = 16 * 1024 * 1024

#: Extra connect attempts in :meth:`ShardManager.shard_call` before a
#: shard is reported unreachable (exponential backoff + jitter between
#: attempts).  Retries stop at the connect phase: once a request line has
#: been written, retrying could double-apply a mutation.
CONNECT_RETRIES = 2
RETRY_BACKOFF_BASE = 0.05

#: Consecutive non-probe failures that open a shard's circuit breaker,
#: and how long the breaker stays open before admitting one trial call.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 1.0

#: Numeric codes for the per-shard state gauges
#: (``cluster.shard_state.<i>``); the authoritative map lives with the
#: exporter so offline health rendering agrees with the live gauges.
SHARD_STATE_CODES = obs_export.CLUSTER_SHARD_STATES

#: Shard states a mutation can still reach.  ``degraded`` (a missed
#: heartbeat) stays mutable -- the worker may merely be slow, and the
#: two-phase reserve handles a truly-dead one; the hard-down states
#: fast-fail instead of hanging a fanout on a corpse.
UNAVAILABLE_STATES = ("restarting", "failed", "stopped")

RESTART_POLICIES = ("continue-degraded", "halt-cluster")


class CircuitBreaker:
    """Per-shard call gate: fail fast while a shard is down.

    Classic three-state breaker: ``closed`` (calls flow; consecutive
    failures count up), ``open`` (calls rejected instantly until the
    cooldown passes), ``half-open`` (one trial call probes recovery; its
    outcome snaps the breaker closed or back open).  Probe traffic
    (readiness pings, supervisor heartbeats) bypasses the breaker
    entirely so liveness detection never blinds itself.
    """

    __slots__ = ("threshold", "cooldown", "failures", "opened_at",
                 "half_open", "trips")

    def __init__(self, threshold: int = BREAKER_THRESHOLD,
                 cooldown: float = BREAKER_COOLDOWN):
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.half_open = False
        self.trips = 0

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        return "half-open" if self.half_open else "open"

    def allow(self, now: float) -> bool:
        if self.opened_at is None:
            return True
        if self.half_open:
            return False  # one trial call is already in flight
        if now - self.opened_at >= self.cooldown:
            self.half_open = True
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None
        self.half_open = False

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.half_open or (self.opened_at is None
                              and self.failures >= self.threshold):
            self.opened_at = now
            self.half_open = False
            self.trips += 1

    def reset(self) -> None:
        self.record_success()


class ShardHealth:
    """One shard's liveness record, as the supervisor sees it."""

    __slots__ = ("index", "state", "pid", "restarts", "restart_times",
                 "resume_attempts", "down_since", "downtime_s", "breaker",
                 "last_error", "history", "last_heartbeat", "exitcode")

    def __init__(self, index: int):
        self.index = index
        self.state = "starting"
        self.pid: Optional[int] = None
        self.restarts = 0
        self.restart_times: List[float] = []
        #: Resume-selection escalation: 0 = newest checkpoint, 1 = the
        #: ``.prev`` rotation target, >=2 = fresh start.  Bumped when a
        #: restarted worker dies before becoming ready (e.g. its
        #: envelope restores into a crash), cleared on a healthy start.
        self.resume_attempts = 0
        self.down_since: Optional[float] = None
        self.downtime_s = 0.0
        self.breaker = CircuitBreaker()
        self.last_error: Optional[Dict[str, Any]] = None
        self.history: deque = deque(maxlen=64)
        self.last_heartbeat: Optional[float] = None
        self.exitcode: Optional[int] = None

    def to_doc(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "state": self.state,
            "pid": self.pid,
            "restarts": self.restarts,
            "resume_attempts": self.resume_attempts,
            "downtime_s": round(self.downtime_s, 6),
            "down": self.down_since is not None,
            "breaker": {
                "state": self.breaker.state,
                "failures": self.breaker.failures,
                "trips": self.breaker.trips,
            },
            "last_error": self.last_error,
            "exitcode": self.exitcode,
            "history": list(self.history),
        }


class KillSchedule:
    """A seeded SIGKILL schedule against live workers (cluster chaos).

    The serve-side sibling of :class:`repro.sim.faults.FaultSchedule`:
    deterministic from ``(seed,)`` via :func:`make_rng`, so a chaos run
    is reproducible -- same seed, same victims at the same wall offsets.
    """

    def __init__(self, kills: Sequence[Tuple[float, int]]):
        self.kills: List[Tuple[float, int]] = sorted(
            (float(t), int(shard)) for t, shard in kills
        )

    def __len__(self) -> int:
        return len(self.kills)

    @classmethod
    def seeded(cls, seed: int, shards: int, count: int = 1,
               start: float = 2.0, span: float = 5.0) -> "KillSchedule":
        """``count`` kills at uniform offsets in ``[start, start+span)``,
        victims drawn uniformly over the shards."""
        rng = make_rng(seed, "cluster-kill")
        return cls([
            (start + rng.random() * max(span, 0.0), rng.randrange(shards))
            for _ in range(count)
        ])

    @classmethod
    def parse(cls, spec: str, shards: int) -> "KillSchedule":
        """Build from a ``k=v`` CSV spec: ``count=2,start=5,span=10,seed=7``
        (the ``--chaos-kill`` CLI format; every key optional)."""
        params = {"count": 1, "start": 2.0, "span": 5.0, "seed": 1}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in params:
                raise ConfigurationError(
                    f"bad --chaos-kill field {part!r}; expected "
                    f"count=N,start=S,span=S,seed=N"
                )
            try:
                params[key] = (int(value) if key in ("count", "seed")
                               else float(value))
            except ValueError:
                raise ConfigurationError(
                    f"bad --chaos-kill value {part!r}"
                ) from None
        return cls.seeded(params["seed"], shards, count=params["count"],
                          start=params["start"], span=params["span"])


class ClusterError(ReproError):
    """A cluster-level failure, optionally with per-shard context."""

    def __init__(self, message: str, context: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.context = context or {}


def _refuse_constant(name: str) -> Any:
    """``json.loads`` hook: ``NaN``/``Infinity`` are not JSON numbers."""
    raise ClusterError(f"request is not JSON: {name} is not a JSON number")


# -- curve scaling ------------------------------------------------------------
#
# The operator speaks aggregate numbers to the front-end; each shard
# owns 1/N of the link, so slopes (and burst heights) scale by 1/N while
# time terms (d, dmax) stay -- a shard is not slower, just narrower.


def scale_curve_doc(doc: Any, factor: float) -> Any:
    if doc is None:
        return None
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return doc * factor
    if isinstance(doc, (list, tuple)) and len(doc) == 3:
        return [doc[0] * factor, doc[1], doc[2] * factor]
    if isinstance(doc, dict):
        keys = set(doc)
        if keys == {"rate"}:
            return {"rate": doc["rate"] * factor}
        if keys == {"umax", "dmax", "rate"}:
            return {"umax": doc["umax"] * factor, "dmax": doc["dmax"],
                    "rate": doc["rate"] * factor}
        if keys == {"m1", "d", "m2"}:
            return {"m1": doc["m1"] * factor, "d": doc["d"],
                    "m2": doc["m2"] * factor}
    raise ConfigurationError(f"unparseable curve spec: {doc!r}")


def scale_spec(spec: ClassSpec, factor: float) -> ClassSpec:
    """A copy of ``spec`` with every rate dimension scaled by ``factor``."""

    def scaled(curve: Optional[ServiceCurve]) -> Optional[ServiceCurve]:
        if curve is None:
            return None
        return ServiceCurve(curve.m1 * factor, curve.d, curve.m2 * factor)

    return ClassSpec(
        name=spec.name,
        parent=spec.parent,
        rate=None if spec.rate is None else spec.rate * factor,
        sc=scaled(spec.sc),
        rt_sc=scaled(spec.rt_sc),
        ls_sc=scaled(spec.ls_sc),
        ul_sc=scaled(spec.ul_sc),
    )


def scale_mutation(request: Dict[str, Any], factor: float) -> Dict[str, Any]:
    """Scale the curve/rate payload of a mutation request by ``factor``."""
    scaled = dict(request)
    for role in ("sc", "rt_sc", "ls_sc", "ul_sc"):
        if role in scaled and scaled[role] is not None:
            scaled[role] = scale_curve_doc(scaled[role], factor)
    if isinstance(scaled.get("rate"), (int, float)):
        scaled["rate"] = scaled["rate"] * factor
    return scaled


class Supervisor:
    """Keep N shard workers alive: detect death, restart from checkpoint.

    Liveness comes from two signals.  ``Process.exitcode`` polling
    catches death promptly and cheaply (a SIGKILLed worker is seen
    within one poll period); periodic heartbeat ``ping`` calls over each
    shard's control socket catch the subtler failure of a live process
    that has stopped serving (wedged event loop, unresponsive socket).
    Each shard walks a small state machine::

        starting -> ready <-> degraded
                      |            \\
                      v             v
                 restarting -> ready | failed      (crash loop)
                      |
                   stopped                         (voluntary exit 0/1)

    A restart resumes from the newest checkpoint the manifest vouches
    for (see :meth:`ShardManager.select_restart_resume`), with
    exponential backoff + jitter between attempts and a sliding-window
    crash-loop guard: more than ``max_restarts`` restarts within
    ``restart_window`` seconds flips the shard to ``failed`` and applies
    the operator's policy -- ``continue-degraded`` keeps the survivors
    serving their flows, ``halt-cluster`` stops the whole run.

    The shutdown race is handled by ordering: ``request_stop`` and
    ``terminate_workers`` set :attr:`stopping` *before* any worker gets
    a signal, and every restart decision re-checks it, so a worker
    exiting during graceful shutdown is never resurrected.
    """

    def __init__(
        self,
        manager: "ShardManager",
        *,
        heartbeat_every: float = 1.0,
        heartbeat_timeout: float = 1.0,
        poll_period: float = 0.05,
        max_restarts: int = 5,
        restart_window: float = 30.0,
        restart_policy: str = "continue-degraded",
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
    ):
        if restart_policy not in RESTART_POLICIES:
            raise ConfigurationError(
                f"unknown restart policy {restart_policy!r}; expected one "
                f"of {RESTART_POLICIES}"
            )
        self.manager = manager
        self.heartbeat_every = heartbeat_every
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_period = poll_period
        self.max_restarts = max_restarts
        self.restart_window = restart_window
        self.restart_policy = restart_policy
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.stopping = False
        self._t0: Optional[float] = None
        self._restarting: set = set()
        self._tasks: List[asyncio.Task] = []

    # -- state bookkeeping ---------------------------------------------------

    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    def _set_state(self, health: ShardHealth, state: str) -> None:
        if health.state == state:
            return
        now = self._now()
        offset = now - self._t0 if self._t0 is not None else 0.0
        health.history.append({
            "t": round(offset, 3), "from": health.state, "to": state,
        })
        previous, health.state = health.state, state
        mgr = self.manager
        mgr._gauge(f"cluster.shard_state.{health.index}",
                   SHARD_STATE_CODES.get(state, -1))
        if state == "ready":
            if health.down_since is not None:
                outage = now - health.down_since
                health.downtime_s += outage
                mgr._count("cluster.shard_downtime_s", outage)
                health.down_since = None
        elif previous in ("ready", "starting") and health.down_since is None:
            health.down_since = now

    @property
    def active_restarts(self) -> int:
        return len(self._restarting)

    def policy_doc(self) -> Dict[str, Any]:
        return {
            "restart_policy": self.restart_policy,
            "max_restarts": self.max_restarts,
            "restart_window": self.restart_window,
            "heartbeat_every": self.heartbeat_every,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
        }

    # -- the watch loop ------------------------------------------------------

    async def run(self) -> None:
        """Poll sentinels + heartbeat until told to stop."""
        mgr = self.manager
        self._t0 = self._now()
        for health in mgr.health:
            health.pid = mgr.processes[health.index].pid
            self._set_state(health, "ready")
        last_beat = self._now()
        try:
            while not self.stopping:
                now = self._now()
                for index in range(mgr.shards):
                    health = mgr.health[index]
                    if (index in self._restarting
                            or health.state in ("failed", "stopped")):
                        continue
                    process = mgr.processes[index]
                    if process.exitcode is None:
                        continue
                    health.exitcode = process.exitcode
                    if self.stopping:
                        break
                    if process.exitcode in (0, 1):
                        # Voluntary exit: duration elapsed (or watchdog
                        # flagged violations on a finished run).  Not a
                        # crash -- do not resurrect.
                        self._set_state(health, "stopped")
                        continue
                    self._restarting.add(index)
                    task = asyncio.ensure_future(self._restart(index))
                    self._tasks.append(task)
                if now - last_beat >= self.heartbeat_every:
                    last_beat = now
                    await self._heartbeats()
                await asyncio.sleep(self.poll_period)
        finally:
            for task in self._tasks:
                task.cancel()
            for task in self._tasks:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass

    async def _heartbeats(self) -> None:
        mgr = self.manager
        targets = [
            index for index in range(mgr.shards)
            if index not in self._restarting
            and mgr.health[index].state in ("ready", "degraded")
        ]
        if not targets:
            return
        responses = await asyncio.gather(*(
            mgr.shard_call(index, {"op": "ping"},
                           timeout=self.heartbeat_timeout, probe=True)
            for index in targets
        ))
        now = self._now()
        for index, response in zip(targets, responses):
            health = mgr.health[index]
            if (index in self._restarting
                    or health.state not in ("ready", "degraded")):
                continue  # the poll loop raced us; it wins
            if response.get("ok"):
                health.last_heartbeat = now
                self._set_state(health, "ready")
            else:
                health.last_error = response.get("error")
                self._set_state(health, "degraded")

    # -- restart -------------------------------------------------------------

    async def _restart(self, index: int) -> None:
        mgr = self.manager
        health = mgr.health[index]
        try:
            while not self.stopping:
                now = self._now()
                self._set_state(health, "restarting")
                mgr.processes[index].join(timeout=0)  # reap the corpse
                health.restart_times = [
                    t for t in health.restart_times
                    if now - t <= self.restart_window
                ]
                if len(health.restart_times) >= self.max_restarts:
                    health.last_error = {
                        "type": "CrashLoop",
                        "message": (
                            f"shard {index}: {len(health.restart_times)} "
                            f"restarts within {self.restart_window:g}s; "
                            f"policy {self.restart_policy}"
                        ),
                    }
                    self._set_state(health, "failed")
                    mgr._count("cluster.crash_loops")
                    if self.restart_policy == "halt-cluster":
                        mgr.request_stop()
                    return
                attempt = len(health.restart_times)
                health.restart_times.append(now)
                health.restarts += 1
                mgr._count("cluster.restarts")
                delay = min(self.backoff_cap,
                            self.backoff_base * (2 ** attempt))
                # Full jitter in [0.5x, 1.5x): a correlated multi-shard
                # outage must not refork everything in lockstep.
                await asyncio.sleep(delay * (0.5 + random.random()))
                if self.stopping:
                    return
                resume = mgr.select_restart_resume(
                    index, health.resume_attempts
                )
                try:
                    mgr.start_worker(index, resume=resume)
                except Exception as exc:
                    health.resume_attempts += 1
                    health.last_error = {
                        "type": type(exc).__name__, "message": str(exc),
                    }
                    continue
                health.pid = mgr.processes[index].pid
                if await self._wait_shard_ready(index):
                    health.resume_attempts = 0
                    health.exitcode = None
                    health.breaker.reset()
                    self._set_state(health, "ready")
                    return
                health.resume_attempts += 1
        finally:
            self._restarting.discard(index)

    async def _wait_shard_ready(
        self, index: int, timeout: float = READY_TIMEOUT
    ) -> bool:
        mgr = self.manager
        deadline = self._now() + timeout
        while self._now() < deadline and not self.stopping:
            process = mgr.processes[index]
            if process.exitcode is not None:
                mgr.health[index].last_error = {
                    "type": "WorkerExit",
                    "message": (
                        f"shard {index} exited with code "
                        f"{process.exitcode} before becoming ready"
                    ),
                }
                return False
            response = await mgr.shard_call(
                index, {"op": "ping"}, timeout=1.0, probe=True
            )
            if response.get("ok"):
                return True
            await asyncio.sleep(0.05)
        return False


# -- the manager --------------------------------------------------------------


class ShardManager:
    """Fork, watch, and front N shard workers."""

    def __init__(
        self,
        specs: Sequence[ClassSpec],
        link_rate: float,
        shards: int,
        *,
        control: str,
        backend: str = "hfsc",
        overload_policy: str = "raise",
        time_scale: float = 1.0,
        buffer_packets: int = 256,
        watchdog_period: float = 0.25,
        telemetry: bool = False,
        udp: Optional[Tuple[str, int]] = None,
        unix: Optional[str] = None,
        snapshot_dir: Optional[str] = None,
        resume: Optional[str] = None,
        duration: Optional[float] = None,
        workdir: Optional[str] = None,
        replicas: int = DEFAULT_REPLICAS,
        salt: str = DEFAULT_SALT,
        supervise: bool = True,
        checkpoint_every: Optional[float] = None,
        heartbeat_every: float = 1.0,
        restart_policy: str = "continue-degraded",
        max_restarts: int = 5,
        restart_window: float = 30.0,
        chaos: Optional[KillSchedule] = None,
    ):
        if shards < 1:
            raise ConfigurationError("a cluster needs at least one shard")
        if udp is None and unix is None:
            raise ConfigurationError(
                "a cluster needs a dataplane: give udp=(host, base_port) "
                "and/or unix=BASE_PATH"
            )
        self.specs = list(specs)
        self.link_rate = float(link_rate)
        self.shards = int(shards)
        self.ring = ShardRing(shards, replicas, salt)
        self.control = control
        self.backend = backend
        self.overload_policy = overload_policy
        self.time_scale = time_scale
        self.buffer_packets = buffer_packets
        self.watchdog_period = watchdog_period
        self.telemetry = telemetry
        self.udp = None if udp is None else (udp[0], int(udp[1]))
        self.unix = unix
        self.snapshot_dir = snapshot_dir
        self.resume = resume
        self.duration = duration
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-cluster-")
        self.checkpoint_every = checkpoint_every
        self.processes: List[multiprocessing.process.BaseProcess] = []
        self.mutation_lock = asyncio.Lock()
        self._stop = asyncio.Event()
        self._shutdown_sent = False
        self.health = [ShardHealth(index) for index in range(self.shards)]
        self.cluster_counters: Dict[str, float] = {
            "cluster.restarts": 0,
            "cluster.shard_downtime_s": 0.0,
            "cluster.shed_during_outage": 0,
            "cluster.chaos_kills": 0,
            "cluster.crash_loops": 0,
        }
        self.chaos = chaos
        self.supervisor: Optional[Supervisor] = None
        if supervise:
            self.supervisor = Supervisor(
                self,
                heartbeat_every=heartbeat_every,
                restart_policy=restart_policy,
                max_restarts=max_restarts,
                restart_window=restart_window,
            )

    # -- telemetry mirroring --------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.cluster_counters[name] = (
            self.cluster_counters.get(name, 0) + amount
        )
        if obs_core.TELEMETRY.enabled:
            obs_core.TELEMETRY.counter(name).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        if obs_core.TELEMETRY.enabled:
            obs_core.TELEMETRY.gauge(name).set(value)

    def health_doc(self) -> Dict[str, Any]:
        """The cluster's supervision view (the ``health`` op's payload)."""
        return {
            "supervised": self.supervisor is not None,
            "policy": (None if self.supervisor is None
                       else self.supervisor.policy_doc()),
            "counters": dict(self.cluster_counters),
            "shards": [health.to_doc() for health in self.health],
        }

    # -- worker configuration -------------------------------------------------

    def _resume_paths(self) -> List[Optional[str]]:
        if not self.resume:
            return [None] * self.shards
        manifest = load_manifest(self.resume)
        if manifest["ring"] != self.ring.params():
            raise SnapshotError(
                "cluster snapshot was taken under a different placement "
                "(shards/replicas/salt); resuming would scatter restored "
                "flows across wrong workers",
                reason="manifest-mismatch",
                context={"stored": manifest["ring"],
                         "configured": self.ring.params()},
            )
        if manifest.get("backend") != self.backend:
            raise SnapshotError(
                f"cluster snapshot was taken with backend "
                f"{manifest.get('backend')!r}, not {self.backend!r}",
                reason="manifest-mismatch",
            )
        return [entry["abspath"] for entry in manifest["snapshots"]]

    def _worker_config(
        self, index: int, resume: Optional[str]
    ) -> Dict[str, Any]:
        """One shard's config at the *current* aggregate settings.

        Restarted workers go through here too, so a live
        ``set_link_rate`` survives a restart even without a checkpoint
        (and with one, the envelope wins over the config anyway).
        """
        factor = 1.0 / self.shards
        snapshot = None
        if self.snapshot_dir:
            snapshot = os.path.join(
                self.snapshot_dir, shard_snapshot_name(index)
            )
        return worker_config(
            index=index,
            shards=self.shards,
            ring=self.ring,
            specs=[scale_spec(spec, factor) for spec in self.specs],
            link_rate=self.link_rate * factor,
            backend=self.backend,
            overload_policy=self.overload_policy,
            time_scale=self.time_scale,
            buffer_packets=self.buffer_packets,
            watchdog_period=self.watchdog_period,
            telemetry=self.telemetry,
            udp=self.udp,
            unix=self.unix,
            control=self.control,
            snapshot=snapshot,
            resume=resume,
            duration=self.duration,
            summary=shard_summary_path(self.workdir, index),
            checkpoint_every=self.checkpoint_every,
            manifest=bool(self.snapshot_dir),
        )

    def worker_configs(self) -> List[Dict[str, Any]]:
        resume_paths = self._resume_paths()
        return [
            self._worker_config(index, resume_paths[index])
            for index in range(self.shards)
        ]

    def select_restart_resume(
        self, index: int, attempt: int = 0
    ) -> Optional[str]:
        """The checkpoint a restarted shard may resume from (or None).

        Candidates in escalation order: the shard's envelope, then the
        ``.prev`` rotation target, then a fresh start.  ``attempt``
        skips the first ``attempt`` candidates (a worker that died
        *again* right after restoring a checkpoint should not keep
        retrying the same bytes).

        When the manifest pins a checksum for this shard, a candidate
        must match it -- this is what refuses a **torn** checkpoint: a
        crash between the snapshot rotation and the manifest re-pin
        leaves the manifest vouching for the *old* content, which the
        rotation preserved at ``.prev``, so the newer-but-unvouched-for
        envelope is skipped and the previous good one restores instead.
        Without a manifest (first checkpoint never finished its re-pin)
        any complete envelope is acceptable -- envelope writes are
        atomic, so completeness is self-evident from the checksum claim.
        """
        if not self.snapshot_dir:
            return None
        path = os.path.join(self.snapshot_dir, shard_snapshot_name(index))
        candidates = [path, path + ".prev"][attempt:]
        pinned = None
        entry = manifest_entry(read_manifest_doc(self.snapshot_dir), index)
        if entry is not None:
            pinned = entry.get("checksum")
        for candidate in candidates:
            if not os.path.exists(candidate):
                continue
            try:
                claim = _envelope_checksum(candidate)
            except SnapshotError:
                continue  # unreadable / not an envelope
            if (pinned is not None and claim != pinned
                    and not candidate.endswith(".prev")):
                continue  # torn: the manifest does not vouch for this
            # ``.prev`` needs only completeness: during escalation it is
            # deliberately one cadence older than the pinned checksum.
            return candidate
        return None

    # -- lifecycle ------------------------------------------------------------

    def _shard_paths(self, index: int) -> List[str]:
        paths = [shard_control_path(self.control, index)]
        if self.unix is not None:
            paths.append(shard_unix_path(self.unix, index))
        return paths

    def _clean_shard_paths(self, index: int) -> None:
        """Unlink one shard's socket files (a SIGKILLed worker leaves
        them behind, and the replacement's bind would hit EADDRINUSE)."""
        for path in self._shard_paths(index):
            try:
                os.unlink(path)
            except OSError:
                pass

    def _clean_stale_paths(self) -> None:
        paths = [self.control]
        for index in range(self.shards):
            paths.extend(self._shard_paths(index))
            paths.append(shard_summary_path(self.workdir, index))
        for path in paths:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _mp_context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def _fork_worker(self, doc: Dict[str, Any]):
        process = self._mp_context().Process(
            target=worker_process_entry, args=(doc,),
            name=f"repro-shard-{doc['index']}", daemon=True,
        )
        process.start()
        return process

    def start_worker(self, index: int, resume: Optional[str] = None) -> None:
        """Fork (or re-fork) one shard, replacing any dead predecessor."""
        self._clean_shard_paths(index)
        process = self._fork_worker(self._worker_config(index, resume))
        if index < len(self.processes):
            self.processes[index] = process
        else:
            self.processes.append(process)

    def start_workers(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        if self.snapshot_dir:
            os.makedirs(self.snapshot_dir, exist_ok=True)
        configs = self.worker_configs()  # validates resume before any fork
        self._clean_stale_paths()
        for doc in configs:
            self.processes.append(self._fork_worker(doc))

    async def wait_ready(self, timeout: float = READY_TIMEOUT) -> None:
        """Block until every shard answers a control ping (or fail fast)."""
        deadline = asyncio.get_running_loop().time() + timeout
        pending = set(range(self.shards))
        while not self.processes:
            # start_workers may still be pending on another task
            if asyncio.get_running_loop().time() > deadline:
                raise ClusterError("no workers started")
            await asyncio.sleep(0.01)
        while pending:
            for index in sorted(pending):
                process = self.processes[index]
                if process.exitcode is not None:
                    raise ClusterError(
                        f"shard {index} exited with code {process.exitcode} "
                        f"before becoming ready (its stderr has the cause)",
                        context={"shard": index,
                                 "exitcode": process.exitcode},
                    )
                response = await self.shard_call(
                    index, {"op": "ping"}, probe=True
                )
                if response.get("ok"):
                    pending.discard(index)
            if not pending:
                return
            if asyncio.get_running_loop().time() > deadline:
                raise ClusterError(
                    f"shards {sorted(pending)} not ready after {timeout:g}s"
                )
            await asyncio.sleep(0.05)

    def terminate_workers(self) -> None:
        """SIGTERM every live worker (each snapshots per its own config).

        The supervisor is flipped to ``stopping`` *first*: a worker
        exiting because we just signalled it must never be mistaken for
        a crash and restarted mid-shutdown.
        """
        if self.supervisor is not None:
            self.supervisor.stopping = True
        for process in self.processes:
            if process.is_alive():
                process.terminate()

    async def join_workers(self, timeout: float = 10.0) -> List[int]:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while any(p.is_alive() for p in self.processes):
            if loop.time() > deadline:
                for process in self.processes:
                    if process.is_alive():
                        process.kill()
                break
            await asyncio.sleep(0.05)
        for process in self.processes:
            # The overall deadline bounds the whole reap, not each join:
            # with N slow workers the old per-process 1s joins could
            # overshoot the budget N-fold.
            budget = deadline + 1.0 - loop.time()
            process.join(timeout=max(0.05, min(1.0, budget)))
        return [
            -1 if p.exitcode is None else p.exitcode for p in self.processes
        ]

    def request_stop(self) -> None:
        # Stopping-first ordering, same as terminate_workers: no restart
        # decision may fire after the operator asked for shutdown.
        if self.supervisor is not None:
            self.supervisor.stopping = True
        self._stop.set()

    def _all_workers_done(self) -> bool:
        """Is there nothing left to serve or resurrect?"""
        if self.supervisor is not None:
            if self.supervisor.active_restarts:
                return False
            # The supervisor owns liveness: a dead-but-restartable shard
            # has exitcode set yet is *not* done.  Terminal states only.
            return all(
                health.state in ("failed", "stopped") for health in self.health
            )
        return all(p.exitcode is not None for p in self.processes)

    async def _run_chaos(self) -> None:
        """Execute the seeded kill schedule against live workers."""
        aio = asyncio.get_running_loop()
        t0 = aio.time()
        for offset, shard in self.chaos.kills:
            delay = t0 + offset - aio.time()
            if delay > 0:
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=delay)
                    return  # stopping: no more kills
                except asyncio.TimeoutError:
                    pass
            process = self.processes[shard]
            if process.is_alive() and process.pid:
                print(
                    f"repro serve: chaos SIGKILL shard {shard} "
                    f"(pid {process.pid}) at t+{offset:g}s",
                    file=sys.stderr, flush=True,
                )
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except OSError:
                    continue
                self._count("cluster.chaos_kills")

    async def run(self) -> Dict[str, Any]:
        """The whole cluster lifecycle; returns the merged exit summary."""
        self.start_workers()
        server = None
        supervisor_task: Optional[asyncio.Task] = None
        chaos_task: Optional[asyncio.Task] = None
        try:
            await self.wait_ready()
            front = ClusterControl(self)
            try:
                server = await asyncio.start_unix_server(
                    front.handle, path=self.control, limit=STREAM_LIMIT
                )
            except OSError as exc:
                raise ClusterError(
                    f"cannot bind front-end control socket "
                    f"{self.control!r}: {exc}"
                ) from exc
            aio = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    aio.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            if self.supervisor is not None:
                supervisor_task = aio.create_task(self.supervisor.run())
            if self.chaos is not None and len(self.chaos):
                chaos_task = aio.create_task(self._run_chaos())
            while not self._stop.is_set():
                if self._all_workers_done():
                    break
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    pass
        finally:
            if self.supervisor is not None:
                self.supervisor.stopping = True
            for task in (chaos_task, supervisor_task):
                if task is not None:
                    task.cancel()
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass
            if not self._shutdown_sent:
                self.terminate_workers()
            exit_codes = await self.join_workers()
            if server is not None:
                server.close()
                await server.wait_closed()
            try:
                os.unlink(self.control)
            except OSError:
                pass
        return self.finalize(exit_codes)

    def finalize(self, exit_codes: List[int]) -> Dict[str, Any]:
        """Merge worker summaries; bind shard snapshots into a manifest."""
        summaries: List[Optional[Dict[str, Any]]] = []
        for index in range(self.shards):
            path = shard_summary_path(self.workdir, index)
            try:
                with open(path, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
            except (OSError, ValueError):
                summaries.append(None)
        manifest_path = None
        if self.snapshot_dir:
            written = [
                os.path.exists(
                    os.path.join(self.snapshot_dir, shard_snapshot_name(i))
                )
                for i in range(self.shards)
            ]
            if all(written):
                manifest_path = write_manifest(
                    self.snapshot_dir,
                    ring_params=self.ring.params(),
                    backend=self.backend,
                    link_rate=self.link_rate,
                )
            elif any(written):
                missing = [i for i, ok in enumerate(written) if not ok]
                print(
                    f"repro serve: partial cluster snapshot -- shards "
                    f"{missing} wrote no envelope; no manifest written",
                    file=sys.stderr,
                )
        present = [s for s in summaries if s]
        aggregate: Dict[str, Any] = {
            "events_processed": sum(
                s.get("events_processed", 0) for s in present
            ),
            "max_lag": max(
                (s.get("max_lag", 0.0) for s in present), default=0.0
            ),
            "misrouted": sum(
                (s.get("shard") or {}).get("misrouted", 0) for s in present
            ),
            "watchdog_violations": sum(
                len((s.get("watchdog") or {}).get("violations", []))
                for s in present
            ),
        }
        planes = [s["dataplane"] for s in present if s.get("dataplane")]
        if planes:
            aggregate["dataplane"] = obs_export._merge_numeric(planes)
        return {
            "cluster": True,
            "shards": self.shards,
            "ring": self.ring.params(),
            "backend": self.backend,
            "link_rate": self.link_rate,
            "exit_codes": exit_codes,
            "manifest": manifest_path,
            "aggregate": aggregate,
            "per_shard": summaries,
            "health": self.health_doc(),
        }

    # -- shard RPC ------------------------------------------------------------

    def _record_call_failure(self, index: int, probe: bool) -> None:
        if not probe:
            self.health[index].breaker.record_failure(
                asyncio.get_running_loop().time()
            )

    async def shard_call(
        self, index: int, request: Dict[str, Any],
        timeout: float = CALL_TIMEOUT,
        probe: bool = False,
    ) -> Dict[str, Any]:
        """One request line to one shard; unreachable -> structured error.

        Degraded-mode armor around the raw RPC:

        * **circuit breaker** -- after ``BREAKER_THRESHOLD`` consecutive
          failures the call fails instantly (no connect attempt, counted
          as ``cluster.shed_during_outage``) until a cooldown admits a
          trial call;
        * **connect retry** -- transient refusals get
          ``CONNECT_RETRIES`` extra attempts with exponential backoff +
          jitter.  Only the *connect* phase retries: after the request
          line is written, a retry could double-apply a mutation;
        * **cleanup** -- the stream writer is closed and awaited in a
          ``finally`` even when the read times out, so a wedged shard
          cannot leak sockets in the front-end;
        * ``probe=True`` (readiness pings, heartbeats) bypasses the
          breaker in both directions -- neither gated by it nor counted
          toward it -- and never retries, so liveness checks see the
          shard as it is *now*.
        """
        health = self.health[index]
        aio = asyncio.get_running_loop()
        if not probe and not health.breaker.allow(aio.time()):
            self._count("cluster.shed_during_outage")
            return {"ok": False, "error": {
                "type": "ShardUnavailable",
                "message": (
                    f"shard {index}: circuit open after "
                    f"{health.breaker.failures} consecutive failures"
                ),
                "context": {"shard": index, "circuit": "open",
                            "state": health.state},
            }}
        path = shard_control_path(self.control, index)
        reader = writer = None
        attempts = 1 if probe else CONNECT_RETRIES + 1
        delay = RETRY_BACKOFF_BASE
        for attempt in range(attempts):
            try:
                reader, writer = await asyncio.open_unix_connection(
                    path, limit=STREAM_LIMIT
                )
                break
            except (OSError, ConnectionError) as exc:
                if attempt == attempts - 1:
                    self._record_call_failure(index, probe)
                    return {"ok": False, "error": {
                        "type": "ShardUnreachable",
                        "message": f"shard {index}: {exc}",
                        "context": {"shard": index},
                    }}
                await asyncio.sleep(delay * (0.5 + random.random()))
                delay *= 2
        try:
            try:
                writer.write(json.dumps(request).encode("utf-8") + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout)
            except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
                self._record_call_failure(index, probe)
                return {"ok": False, "error": {
                    "type": "ShardUnreachable",
                    "message": f"shard {index}: {exc or 'timed out'}",
                    "context": {"shard": index},
                }}
        finally:
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except (OSError, ConnectionError, asyncio.TimeoutError):
                pass
        if not line:
            self._record_call_failure(index, probe)
            return {"ok": False, "error": {
                "type": "ShardUnreachable",
                "message": f"shard {index}: connection closed mid-request",
                "context": {"shard": index},
            }}
        if not probe:
            health.breaker.record_success()
        return json.loads(line)

    async def fanout(self, request: Dict[str, Any]) -> List[Dict[str, Any]]:
        return list(await asyncio.gather(*(
            self.shard_call(index, request) for index in range(self.shards)
        )))

    async def fanout_snapshot(self, directory: str) -> List[Dict[str, Any]]:
        """Every shard writes its envelope into ``directory``."""
        return list(await asyncio.gather(*(
            self.shard_call(index, {
                "op": "snapshot",
                "path": os.path.join(directory, shard_snapshot_name(index)),
            })
            for index in range(self.shards)
        )))


# -- the front-end control plane ----------------------------------------------


def _failures(responses: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [
        {"shard": index, "error": resp.get("error")}
        for index, resp in enumerate(responses) if not resp.get("ok")
    ]


def _max_clock(responses: List[Dict[str, Any]]) -> float:
    clocks = [
        (resp.get("result") or {}).get("sim_clock", 0.0)
        for resp in responses if resp.get("ok")
    ]
    return max(clocks, default=0.0)


class ClusterControl:
    """The front-end: single-service control protocol, fan-out semantics."""

    def __init__(self, manager: ShardManager):
        self.manager = manager
        self.requests = 0
        self.errors = 0

    # -- transport (same line protocol as ControlServer, async dispatch) -----

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError, asyncio.LimitOverrunError):
                    break
                except asyncio.CancelledError:
                    break  # front-end tearing down mid-connection
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self.dispatch_line(line)
                writer.write(response.encode("utf-8") + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            writer.close()

    async def dispatch_line(self, line: bytes) -> str:
        self.requests += 1
        try:
            try:
                request = json.loads(line, parse_constant=_refuse_constant)
            except json.JSONDecodeError as exc:
                raise ClusterError(f"request is not JSON: {exc}") from None
            if not isinstance(request, dict) or "op" not in request:
                raise ClusterError('request must be an object with an "op" key')
            op = str(request["op"]).replace("-", "_")
            handler = getattr(self, "op_" + op, None)
            if handler is None:
                raise ClusterError(f"unknown op {request['op']!r}")
            result = await handler(request)
            return json.dumps({"ok": True, "result": result})
        except ReproError as exc:
            self.errors += 1
            error: Dict[str, Any] = {
                "type": type(exc).__name__, "message": str(exc),
            }
            context = getattr(exc, "context", None)
            if isinstance(context, dict) and context:
                error["context"] = context
            return json.dumps({"ok": False, "error": error})

    def _require(self, request: Dict[str, Any], key: str) -> Any:
        if key not in request:
            raise ClusterError(f"op {request['op']!r} needs {key!r}")
        return request[key]

    def _require_all_available(self, op: str) -> None:
        """Fast-fail a mutation while any shard is hard-down.

        Every mutation fans out to *all* shards (same hierarchy
        everywhere), so one dead shard makes the whole reserve
        unservable -- better a structured ``unavailable`` rejection
        mirroring the reserve-refusal shape than a fanout hanging on
        timeouts against a corpse.  Only active supervision can vouch
        for states, so the unsupervised cluster skips this and relies on
        the reserve phase itself.
        """
        mgr = self.manager
        if mgr.supervisor is None:
            return
        failures = [
            {"shard": health.index, "error": {
                "type": "ShardUnavailable",
                "message": f"shard {health.index} is {health.state}",
                "context": {"shard": health.index, "state": health.state},
            }}
            for health in mgr.health if health.state in UNAVAILABLE_STATES
        ]
        if failures:
            raise ClusterError(
                f"{len(failures)}/{mgr.shards} shards unavailable; "
                f"{op} rejected (cluster degraded, retry after recovery)",
                context={"phase": "reserve", "reason": "unavailable",
                         "failures": failures},
            )

    # -- read-only fan-out ----------------------------------------------------

    async def op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        responses = await self.manager.fanout({"op": "ping"})
        return {
            "pong": all(r.get("ok") for r in responses),
            "shards": self.manager.shards,
            "unreachable": [f["shard"] for f in _failures(responses)],
            "sim_clock": _max_clock(responses),
        }

    async def op_version(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"version": __version__, "cluster": True}

    async def op_health(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The supervisor's view: per-shard states, restart/downtime
        counters, breaker states, and recent state transitions."""
        return {"cluster": True, **self.manager.health_doc()}

    async def op_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        mgr = self.manager
        responses = await mgr.fanout({"op": "info"})
        return {
            "cluster": True,
            "shards": mgr.shards,
            "ring": mgr.ring.params(),
            "backend": mgr.backend,
            "link_rate": mgr.link_rate,
            "per_shard": [r.get("result") for r in responses],
            "unreachable": [f["shard"] for f in _failures(responses)],
        }

    async def op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        responses = await self.manager.fanout({"op": "stats"})
        docs = []
        for index, resp in enumerate(responses):
            if resp.get("ok"):
                docs.append({**resp["result"], "shard": {"index": index}})
        merged = obs_export.merge_snapshots(docs)
        merged["unreachable"] = [f["shard"] for f in _failures(responses)]
        merged["cluster"] = self.manager.health_doc()
        return merged

    async def op_classes(self, request: Dict[str, Any]) -> Dict[str, Any]:
        responses = await self.manager.fanout({"op": "classes"})
        merged: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        for index, resp in enumerate(responses):
            if not resp.get("ok"):
                continue
            for row in resp["result"]:
                name = row["name"]
                if name not in merged:
                    merged[name] = {
                        **row,
                        "queued": 0,
                        "queued_per_shard": [0] * self.manager.shards,
                    }
                    order.append(name)
                merged[name]["queued"] += row.get("queued", 0)
                merged[name]["queued_per_shard"][index] = row.get("queued", 0)
        return {
            "classes": [merged[name] for name in order],
            "unreachable": [f["shard"] for f in _failures(responses)],
        }

    async def op_watchdog(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fan = {"op": "watchdog"}
        if request.get("check"):
            fan["check"] = True
        responses = await self.manager.fanout(fan)
        violations: List[Dict[str, Any]] = []
        checks = 0
        for index, resp in enumerate(responses):
            if not resp.get("ok"):
                continue
            result = resp["result"]
            checks += result.get("checks_run", 0)
            violations.extend(
                {**v, "shard": index} for v in result.get("violations", [])
            )
        return {
            "checks_run": checks,
            "violations": violations,
            "unreachable": [f["shard"] for f in _failures(responses)],
        }

    # -- two-phase mutations --------------------------------------------------

    async def _reserve(self, request: Dict[str, Any]) -> List[Dict[str, Any]]:
        responses = await self.manager.fanout({**request, "dry_run": True})
        failures = _failures(responses)
        if failures:
            raise ClusterError(
                f"admission reserve rejected by "
                f"{len(failures)}/{self.manager.shards} shards",
                context={"phase": "reserve", "failures": failures},
            )
        return responses

    async def _commit(
        self,
        request: Dict[str, Any],
        rollback_for: Any,
    ) -> List[Dict[str, Any]]:
        """Commit shard by shard; on failure, roll back what committed.

        ``rollback_for(shard_index, commit_response)`` returns the
        request that undoes that shard's commit (or ``None`` for
        nothing to undo).
        """
        mgr = self.manager
        committed: List[Tuple[int, Dict[str, Any]]] = []
        for index in range(mgr.shards):
            resp = await mgr.shard_call(index, request)
            if resp.get("ok"):
                committed.append((index, resp))
                continue
            rollback_status: List[Dict[str, Any]] = []
            for done_index, done_resp in committed:
                undo = rollback_for(done_index, done_resp)
                if undo is None:
                    continue
                undo_resp = await mgr.shard_call(done_index, undo)
                rollback_status.append({
                    "shard": done_index, "ok": bool(undo_resp.get("ok")),
                    "error": undo_resp.get("error"),
                })
            raise ClusterError(
                f"commit failed on shard {index}; rolled back "
                f"{len(rollback_status)} shard(s)",
                context={
                    "phase": "commit",
                    "failed_shard": index,
                    "error": resp.get("error"),
                    "rollback": rollback_status,
                },
            )
        return [resp for _, resp in committed]

    async def op_add_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        mgr = self.manager
        self._require_all_available("add_class")
        name = self._require(request, "name")
        scaled = scale_mutation(request, 1.0 / mgr.shards)
        async with mgr.mutation_lock:
            await self._reserve(scaled)
            if request.get("dry_run"):
                return {"reserved": name, "shards": mgr.shards}
            responses = await self._commit(
                scaled,
                lambda index, resp: {
                    "op": "remove_class", "name": name, "force": True,
                },
            )
        return {
            "added": name,
            "shards": mgr.shards,
            "sim_clock": _max_clock(responses),
        }

    async def op_update_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        mgr = self.manager
        self._require_all_available("update_class")
        name = self._require(request, "name")
        scaled = scale_mutation(request, 1.0 / mgr.shards)

        def restore(index: int, resp: Dict[str, Any]) -> Optional[Dict[str, Any]]:
            previous = (resp.get("result") or {}).get("previous")
            if previous is None:
                return None
            # Explicit nulls remove roles the class did not have before;
            # the stored docs are already per-shard scaled.
            return {"op": "update_class", "name": name, **previous}

        async with mgr.mutation_lock:
            await self._reserve(scaled)
            if request.get("dry_run"):
                return {"reserved": name, "shards": mgr.shards}
            responses = await self._commit(scaled, restore)
        return {
            "updated": name,
            "shards": mgr.shards,
            "sim_clock": _max_clock(responses),
        }

    async def op_remove_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        mgr = self.manager
        self._require_all_available("remove_class")
        name = self._require(request, "name")
        fan = {"op": "remove_class", "name": name,
               "force": bool(request.get("force", False))}
        async with mgr.mutation_lock:
            reserve = await self._reserve(fan)
            if request.get("dry_run"):
                return {"reserved": name, "shards": mgr.shards}
            restores = [
                (resp.get("result") or {}) for resp in reserve
            ]

            def re_add(index: int, resp: Dict[str, Any]) -> Optional[Dict[str, Any]]:
                info = restores[index]
                undo: Dict[str, Any] = {"op": "add_class", "name": name}
                if info.get("parent") is not None:
                    undo["parent"] = info["parent"]
                undo.update(info.get("previous") or {})
                return undo

            responses = await self._commit(fan, re_add)
        return {
            "removed": name,
            "shards": mgr.shards,
            "drained_packets": sum(
                (r.get("result") or {}).get("drained_packets", 0)
                for r in responses
            ),
            "sim_clock": _max_clock(responses),
        }

    async def op_set_link_rate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        mgr = self.manager
        self._require_all_available("set_link_rate")
        rate = float(self._require(request, "rate"))
        if rate <= 0:
            raise ClusterError(f"link rate must be positive, got {rate!r}")
        per_shard = rate / mgr.shards
        old_per_shard = mgr.link_rate / mgr.shards
        async with mgr.mutation_lock:
            responses = await self._commit(
                {"op": "set_link_rate", "rate": per_shard},
                lambda index, resp: {
                    "op": "set_link_rate", "rate": old_per_shard,
                },
            )
            mgr.link_rate = rate
        return {
            "link_rate": rate,
            "per_shard": per_shard,
            "shards": mgr.shards,
            "sim_clock": _max_clock(responses),
        }

    # -- lifecycle ------------------------------------------------------------

    async def op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        mgr = self.manager
        self._require_all_available("snapshot")
        directory = request.get("dir") or mgr.snapshot_dir
        if not directory:
            raise ClusterError(
                "op 'snapshot' needs 'dir' (or start the cluster with a "
                "snapshot directory)"
            )
        os.makedirs(directory, exist_ok=True)
        async with mgr.mutation_lock:
            responses = await mgr.fanout_snapshot(directory)
            failures = _failures(responses)
            if failures:
                raise ClusterError(
                    f"{len(failures)}/{mgr.shards} shards failed to "
                    f"snapshot; no manifest written",
                    context={"failures": failures},
                )
            manifest_path = write_manifest(
                directory,
                ring_params=mgr.ring.params(),
                backend=mgr.backend,
                link_rate=mgr.link_rate,
            )
        return {
            "dir": directory,
            "manifest": manifest_path,
            "shards": mgr.shards,
        }

    async def op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        mgr = self.manager
        snapshot = bool(request.get("snapshot", True))
        # Stopping-first: a worker exiting (however messily) because of
        # this very fanout must not be mistaken for a crash.
        if mgr.supervisor is not None:
            mgr.supervisor.stopping = True
        responses = await mgr.fanout({"op": "shutdown", "snapshot": snapshot})
        mgr._shutdown_sent = True
        mgr.request_stop()
        return {
            "stopping": True,
            "shards": mgr.shards,
            "unreachable": [f["shard"] for f in _failures(responses)],
        }


# -- load-generator placement -------------------------------------------------


def shard_targets(
    shards: int,
    udp: Optional[Tuple[str, int]] = None,
    unix: Optional[str] = None,
) -> List[str]:
    """The per-shard ingress targets, in shard order (for ``repro load``)."""
    if udp is not None:
        host, base_port = udp
        return [
            "%s:%d" % shard_udp_address(host, int(base_port), index)
            for index in range(shards)
        ]
    if unix is not None:
        return [shard_unix_path(unix, index) for index in range(shards)]
    raise ConfigurationError("shard_targets needs udp=(host, port) or unix=PATH")
