"""JSON control plane for ``repro serve``.

Newline-delimited JSON over a unix stream socket.  Each request is one
line ``{"op": "...", ...params}``; each response is one line::

    {"ok": true,  "result": ...}
    {"ok": false, "error": {"type": "...", "message": "...", ...}}

Operations (documented in full in ``docs/SERVING.md``):

====================  =======================================================
``ping``              liveness + the simulated clock
``version``           the repro package version
``info``              static service configuration + lifetime counters
``stats``             a live telemetry snapshot (PR-3 obs exporters) plus
                      the dataplane and pacing-lag counters
``classes``           the current class tree with queue depths
``add_class``         grow the hierarchy; real-time curves pass eager
                      admission control first (``repro.core.admission``)
``update_class``      change a live class's curves (absent field = keep,
                      ``null`` = remove that role); on rate-based
                      backends with live reconfiguration (hls), change
                      its weight via ``rate``
``remove_class``      shrink the hierarchy; ``force`` drains a backlogged
                      subtree and reports the packets returned
``set_link_rate``     change the served link's rate live
``watchdog``          invariant-check reports (``check: true`` runs one now)
``snapshot``          write a PR-4 crash-safe snapshot to ``path``
``shutdown``          stop serving (optionally snapshotting first)
====================  =======================================================

Every mutating operation first drains events the wall clock has already
released (:meth:`RealTimeDriver.run_due`), so reconfiguration applies at
a consistent ``loop.now`` -- never in the middle of a backlog of past
arrivals -- exactly like the chaos subsystem's live reconfiguration.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.core.admission import admissible_rate_headroom
from repro.core.curves import ServiceCurve, is_admissible
from repro.core.errors import ReproError
from repro.core.hfsc import HFSC, UNCHANGED
from repro.obs import export as obs_export
from repro.obs.core import TELEMETRY as _TELEM
from repro.serve.hierarchy import curve_from_doc

#: Largest accepted request line; a control peer is trusted but a runaway
#: client must not balloon the service's memory.
MAX_LINE = 1 << 20


def _curve_doc(curve: Optional[ServiceCurve]) -> Optional[Dict[str, float]]:
    if curve is None:
        return None
    return {"m1": curve.m1, "d": curve.d, "m2": curve.m2}


class ControlError(ReproError):
    """A malformed or unserviceable control request."""


def _refuse_constant(name: str) -> Any:
    """``json.loads`` hook: ``NaN``/``Infinity`` are not JSON numbers."""
    raise ControlError(f"request is not JSON: {name} is not a JSON number")


class ControlServer:
    """Dispatch control-plane requests against a :class:`ServeService`."""

    def __init__(self, service: Any):
        self.service = service
        self.requests = 0
        self.errors = 0

    # -- transport ----------------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: serve request lines until the peer closes."""
        # Reads of 64 KiB instead of asyncio's 256 KiB stay below glibc's
        # mmap threshold (see ServeService.start_udp); lines up to the
        # reader limit still arrive, over several reads.
        writer.transport.max_size = 65_536
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError, asyncio.LimitOverrunError):
                    break
                except asyncio.CancelledError:
                    # The service is tearing down mid-connection; finish
                    # the handler task cleanly instead of leaving a
                    # cancelled task for the loop teardown to log.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = self.dispatch_line(line)
                writer.write(response.encode("utf-8") + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            writer.close()

    def dispatch_line(self, line: bytes) -> str:
        self.requests += 1
        try:
            if len(line) > MAX_LINE:
                raise ControlError(f"request line over {MAX_LINE} bytes")
            try:
                request = json.loads(line, parse_constant=_refuse_constant)
            except json.JSONDecodeError as exc:
                raise ControlError(f"request is not JSON: {exc}") from None
            if not isinstance(request, dict) or "op" not in request:
                raise ControlError('request must be an object with an "op" key')
            result = self.dispatch(request)
            return json.dumps({"ok": True, "result": result})
        except ReproError as exc:
            self.errors += 1
            error: Dict[str, Any] = {
                "type": type(exc).__name__,
                "message": str(exc),
            }
            context = getattr(exc, "context", None)
            if isinstance(context, dict):
                error["context"] = context
            return json.dumps({"ok": False, "error": error})

    # -- dispatch -----------------------------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Any:
        op = request["op"]
        handler = getattr(self, "op_" + str(op).replace("-", "_"), None)
        if handler is None:
            raise ControlError(f"unknown op {op!r}")
        return handler(request)

    def _require(self, request: Dict[str, Any], key: str) -> Any:
        if key not in request:
            raise ControlError(f"op {request['op']!r} needs {key!r}")
        return request[key]

    # -- read-only ops -------------------------------------------------------

    def op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "sim_clock": self.service.loop.now}

    def op_version(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"version": __version__}

    def op_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.service.summary()

    def op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        snap = obs_export.snapshot(
            telemetry=_TELEM if _TELEM.enabled else None,
            scheduler=svc.scheduler,
            link=svc.link,
        )
        snap["dataplane"] = svc.dataplane.summary()
        snap["pacing"] = {
            "time_scale": svc.driver.time_scale,
            "max_lag": svc.driver.max_lag,
            "sim_clock": svc.loop.now,
        }
        return snap

    def op_classes(self, request: Dict[str, Any]) -> List[Dict[str, Any]]:
        sched = self.service.scheduler
        rows: List[Dict[str, Any]] = []
        if isinstance(sched, HFSC):
            for cls in sched.classes():
                if cls.is_root:
                    continue
                rows.append({
                    "name": cls.name,
                    "parent": cls.parent.name,
                    "leaf": cls.is_leaf,
                    "queued": len(cls.queue),
                    "rt_sc": _curve_doc(cls.rt_requested),
                    "rt_effective": _curve_doc(cls.rt_spec),
                    "ls_sc": _curve_doc(cls.ls_spec),
                    "ul_sc": _curve_doc(cls.ul_spec),
                })
        else:
            for name, cls in getattr(sched, "_classes", {}).items():
                parent = getattr(cls, "parent", None)
                queue = getattr(cls, "queue", None)
                rows.append({
                    "name": name,
                    "parent": getattr(parent, "name", None),
                    "rate": getattr(cls, "rate", getattr(cls, "weight", None)),
                    "queued": 0 if queue is None else len(queue),
                })
        return rows

    def op_watchdog(self, request: Dict[str, Any]) -> Dict[str, Any]:
        watchdog = self.service.watchdog
        if watchdog is None:
            raise ControlError("no watchdog configured for this backend")
        if request.get("check"):
            self.service.driver.run_due()
            watchdog.check_now()
        return {
            "checks_run": watchdog.checks_run,
            "violations": [r.to_dict() for r in watchdog.reports],
        }

    # -- admission-controlled reconfiguration --------------------------------

    def _parse_curves(
        self, request: Dict[str, Any], allow_unchanged: bool
    ) -> Dict[str, Any]:
        """``{"sc": doc}`` -> ServiceCurve, honouring UNCHANGED/None.

        For ``add_class`` (``allow_unchanged=False``) an absent role means
        "no curve".  For ``update_class`` an absent role means "keep as
        is" and an explicit ``null`` removes the role.
        """
        curves: Dict[str, Any] = {}
        for role in ("sc", "rt_sc", "ls_sc", "ul_sc"):
            if role not in request:
                curves[role] = UNCHANGED if allow_unchanged else None
            elif request[role] is None:
                curves[role] = None
            else:
                curves[role] = curve_from_doc(request[role])
        return curves

    def _check_rt_admission(
        self, target: Any, new_rt: Optional[ServiceCurve]
    ) -> None:
        """Eagerly reject an rt curve set that overbooks the link.

        The scheduler itself would catch this lazily on the next enqueue
        (under the configured overload policy); the control plane answers
        *now* so an operator's bad request fails cleanly instead of
        degrading live traffic later.
        """
        sched = self.service.scheduler
        if not isinstance(sched, HFSC) or not sched._admission_control:
            return
        existing = [
            cls.rt_requested for cls in sched.leaf_classes()
            if cls.rt_requested is not None and cls.name != target
        ]
        prospective = existing + ([new_rt] if new_rt is not None else [])
        if prospective and not is_admissible(prospective, sched.link_rate):
            headroom = admissible_rate_headroom(existing, sched.link_rate)
            raise ControlError(
                f"real-time curve for {target!r} rejected by admission "
                f"control: sum of leaf rt curves would exceed the link rate "
                f"{sched.link_rate:g} (headroom for a linear curve: "
                f"{headroom:g})"
            )

    def _previous_curves(self, name: Any) -> Optional[Dict[str, Any]]:
        """A class's current curve docs -- what a rollback must restore."""
        sched = self.service.scheduler
        if not isinstance(sched, HFSC):
            return None
        cls = sched._classes.get(name)
        if cls is None:
            return None
        return {
            "rt_sc": _curve_doc(cls.rt_requested),
            "ls_sc": _curve_doc(cls.ls_spec),
            "ul_sc": _curve_doc(cls.ul_spec),
        }

    def op_add_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        name = self._require(request, "name")
        parent = request.get("parent")
        dry_run = bool(request.get("dry_run", False))
        sched = svc.scheduler
        now = svc.driver.run_due()
        if isinstance(sched, HFSC):
            curves = self._parse_curves(request, allow_unchanged=False)
            new_rt = curves["rt_sc"] if curves["sc"] is None else curves["sc"]
            self._check_rt_admission(name, new_rt)
            kwargs: Dict[str, Any] = dict(curves)
        else:
            rate = self._require(request, "rate")
            kwargs = {"rate": float(rate)}
        if parent is not None:
            kwargs["parent"] = parent
        if dry_run:
            # The reserve phase of the cluster's two-phase admission:
            # everything add_class would refuse is refused *now* (name
            # collision, unknown parent, eq.(1) overbooking above),
            # nothing is mutated.  Consistent because only the front-end
            # issues mutations and it serializes reserve->commit.
            classes = getattr(sched, "_classes", {})
            if name in classes:
                raise ControlError(f"class {name!r} already exists")
            if parent is not None and parent not in classes:
                raise ControlError(f"parent class {parent!r} does not exist")
            return {"reserved": name, "sim_clock": now}
        sched.add_class(name, **kwargs)
        return {"added": name, "sim_clock": now}

    def op_update_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        sched = svc.scheduler
        name = self._require(request, "name")
        dry_run = bool(request.get("dry_run", False))
        if not isinstance(sched, HFSC):
            # Rate-based backends (hls) reconfigure by weight, not curve.
            if not hasattr(sched, "update_class"):
                raise ControlError(
                    f"backend {svc.backend!r} does not support update_class"
                )
            rate = float(self._require(request, "rate"))
            classes = getattr(sched, "_classes", {})
            cls = classes.get(name)
            if cls is None:
                raise ControlError(f"class {name!r} does not exist")
            if getattr(cls, "is_root", False):
                raise ControlError("cannot update the root class")
            if rate <= 0:
                raise ControlError(f"rate must be positive, got {rate:g}")
            previous = {"rate": getattr(cls, "weight", None)}
            now = svc.driver.run_due()
            if dry_run:
                return {"reserved": name, "sim_clock": now,
                        "previous": previous}
            sched.update_class(name, now, rate=rate)
            return {"updated": name, "sim_clock": now, "previous": previous}
        curves = self._parse_curves(request, allow_unchanged=True)
        if name not in sched._classes:
            raise ControlError(f"class {name!r} does not exist")
        if curves["sc"] is not UNCHANGED:
            new_rt = curves["sc"]
        elif curves["rt_sc"] is not UNCHANGED:
            new_rt = curves["rt_sc"]
        else:
            cls = sched._classes.get(name)
            new_rt = cls.rt_requested if cls is not None else None
        self._check_rt_admission(name, new_rt)
        previous = self._previous_curves(name)
        now = svc.driver.run_due()
        if dry_run:
            # Reserve phase: admission + existence checked, nothing
            # mutated.  ``previous`` lets the front-end restore this
            # shard exactly if a later shard's commit fails.
            return {"reserved": name, "sim_clock": now, "previous": previous}
        sched.update_class(name, now, **curves)
        return {"updated": name, "sim_clock": now, "previous": previous}

    def op_remove_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        name = self._require(request, "name")
        force = bool(request.get("force", False))
        now = svc.driver.run_due()
        if request.get("dry_run"):
            # Reserve phase: existence (and, without ``force``, emptiness)
            # is what the real removal would check; backlog can grow
            # between reserve and commit, so force-less cluster removes
            # stay best-effort -- documented in docs/SERVING.md.
            classes = getattr(svc.scheduler, "_classes", {})
            if name not in classes:
                raise ControlError(f"class {name!r} does not exist")
            parent_obj = getattr(classes[name], "parent", None)
            parent = (
                None
                if parent_obj is None or getattr(parent_obj, "is_root", False)
                else parent_obj.name
            )
            # ``previous`` + ``parent`` let the front-end re-add the
            # class (queued packets excepted) if another shard's commit
            # fails -- the tree stays consistent cluster-wide.
            return {
                "reserved": name,
                "sim_clock": now,
                "parent": parent,
                "previous": self._previous_curves(name),
            }
        drained = svc.scheduler.remove_class(name, force=force)
        # Packets drained out of the scheduler never depart: release
        # their slice of the edge buffer and their reflect state.
        for packet in drained:
            svc.dataplane._forget(packet)
        svc.dataplane.backlog.pop(name, None)
        return {
            "removed": name,
            "drained_packets": len(drained),
            "drained_bytes": sum(p.size for p in drained),
            "sim_clock": now,
        }

    def op_set_link_rate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        rate = float(self._require(request, "rate"))
        now = svc.driver.run_due()
        svc.link.set_rate(rate)
        if rate > 0 and hasattr(svc.scheduler, "set_link_rate"):
            svc.scheduler.set_link_rate(rate)
        return {"link_rate": rate, "sim_clock": now}

    # -- lifecycle ops -------------------------------------------------------

    def op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        path = self._require(request, "path")
        self.service.write_snapshot(path)
        return {"path": path, "sim_clock": self.service.loop.now}

    def op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.service.request_stop(snapshot=bool(request.get("snapshot", True)))
        return {"stopping": True}
