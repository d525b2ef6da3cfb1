"""The Hierarchical Fair Service Curve scheduler (Section IV of the paper).

H-FSC schedules a class hierarchy over one output link using two criteria:

* **Real-time criterion** -- guarantees the service curves of leaf classes.
  Each active leaf carries an *eligible time* ``e`` and a *deadline* ``d``
  computed from its eligible and deadline curves (Section IV-B, Fig. 5).
  Whenever some leaf is eligible (``e <= now``), the eligible leaf with the
  smallest deadline is served and its real-time service counter ``c``
  advances.

* **Link-sharing criterion** -- approximates the ideal fair service curve
  link-sharing model.  Every class carries a *virtual time* ``v`` derived
  from its virtual curve (Section IV-C, Fig. 6); when no leaf is eligible,
  the scheduler walks from the root picking the active child with the
  smallest virtual time until it reaches a leaf.  Link-sharing service does
  **not** advance ``c``, which is exactly why a class that borrowed excess
  bandwidth is never punished: its future deadlines are unaffected
  (Section IV-B, "the essence of the nonpunishment aspect").

The implementation follows the paper's pseudo-code (Figs. 4-6) and the O(1)
two-piece curve machinery of Section V.  Complexity is O(log n) per packet
arrival and departure: the real-time request set is Section V's calendar
variant, a future heap keyed by eligible time feeding a ready heap keyed by
deadline, kept in the flat arrays of :mod:`repro.core.flatstate`; each
interior class keeps indexed heaps over its active children's virtual
times.  Section V's other structure, the augmented tree, survives as the
standalone substrate :mod:`repro.util.eligible_tree` (compared in
``benchmarks/bench_ablation.py``).

Extensions beyond the paper, both off by default and marked in the API:

* separate real-time (``rt_sc``) and link-sharing (``ls_sc``) curves per
  class, as in the authors' ALTQ implementation and Linux ``sch_hfsc``
  (passing ``sc`` sets both, which is the paper's model);
* an optional upper-limit curve (``ul_sc``) capping a class's total
  service, as in Linux ``sch_hfsc`` (makes the scheduler
  non-work-conserving for that class).
"""

from __future__ import annotations

import math
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set

from repro.core.admission import uniform_admissible_scale
from repro.core.curves import ServiceCurve, is_admissible
from repro.core.errors import (
    ConfigurationError,
    OverloadError,
    ReconfigurationError,
    SnapshotError,
)
from repro.core import flatstate as _flat
from repro.core.flatstate import (
    NAN,
    CurveView,
    FlatState,
    HeapView,
    heap_iter_sorted,
)
from repro.core.runtime_curves import RuntimeCurve, eligible_spec
from repro.obs.core import TELEMETRY as _TELEM
from repro.schedulers.base import Scheduler
from repro.sim.packet import Packet
from repro.util.heap import IndexedHeap

ROOT = "__root__"

#: vt_policy strings -> flatstate codes (kernels take the int).
_POLICY_CODES = {
    "mean": _flat.VT_MEAN,
    "min": _flat.VT_MIN,
    "max": _flat.VT_MAX,
}

#: Sort key for virtual-time tie groups in the link-sharing descent.
_creation_index = attrgetter("index")

#: Sentinel for "leave this curve unchanged" in :meth:`HFSC.update_class`
#: (``None`` there means "remove the curve").
UNCHANGED = object()

#: Valid values for ``HFSC(overload_policy=...)``.
OVERLOAD_POLICIES = ("raise", "reject", "scale-rt", "linkshare-only")


# -- snapshot codec helpers (shared with repro.persist) ----------------------

def _sc_doc(spec: Optional[ServiceCurve]):
    """ServiceCurve -> JSON-able triple (or None)."""
    return None if spec is None else [spec.m1, spec.d, spec.m2]


def _sc_from(doc) -> Optional[ServiceCurve]:
    if doc is None:
        return None
    try:
        m1, d, m2 = doc
        return ServiceCurve(m1, d, m2)
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise SnapshotError(
            f"malformed service-curve document {doc!r}: {exc}",
            reason="bad-curve",
        ) from exc


def _rc_doc(curve: Optional[RuntimeCurve]):
    return None if curve is None else list(curve.to_doc())


def _rc_from(doc) -> Optional[RuntimeCurve]:
    if doc is None:
        return None
    try:
        return RuntimeCurve.from_doc(doc)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"malformed runtime-curve document {doc!r}: {exc}",
            reason="bad-curve",
        ) from exc


def _require_keys(doc: Any, keys: Iterable[Any], what: str) -> None:
    """Strict field check: unknown *and* missing keys are refused."""
    if not isinstance(doc, dict):
        raise SnapshotError(
            f"{what}: expected a mapping, got {type(doc).__name__}",
            reason="bad-document",
        )
    expected = frozenset(keys)
    present = frozenset(doc)
    if present != expected:
        unknown = sorted(str(k) for k in present - expected)
        missing = sorted(str(k) for k in expected - present)
        raise SnapshotError(
            f"{what}: unknown fields {unknown}, missing fields {missing}",
            reason="unknown-field" if unknown else "missing-field",
            context={"unknown": unknown, "missing": missing},
        )


def _scalar_prop(arr_name: str, doc: str):
    """Read/write property over a per-slot float or int array cell."""

    def fget(self):
        return getattr(self.state, arr_name)[self.slot]

    def fset(self, value):
        getattr(self.state, arr_name)[self.slot] = value

    return property(fget, fset, doc=doc)


def _flag_prop(arr_name: str, doc: str):
    """Read/write bool property over a per-slot byte array cell."""

    def fget(self):
        return bool(getattr(self.state, arr_name)[self.slot])

    def fset(self, value):
        getattr(self.state, arr_name)[self.slot] = 1 if value else 0

    return property(fget, fset, doc=doc)


def _curve_prop(kind: str, doc: str):
    """RuntimeCurve-valued property backed by the flat curve arrays.

    Reading yields a :class:`~repro.core.flatstate.CurveView` (or None
    when the curve is absent); assigning a RuntimeCurve/CurveView copies
    its parameters into the arrays, assigning None clears the presence
    flag.  The knee memo is reset on assignment -- it is a pure cache and
    never serialized, so recomputing it is value-neutral.
    """

    on_name = kind + "_on"

    def fget(self):
        if getattr(self.state, on_name)[self.slot]:
            return CurveView(self.state, kind, self.slot)
        return None

    def fset(self, curve):
        state = self.state
        slot = self.slot
        if curve is None:
            getattr(state, on_name)[slot] = 0
            return
        getattr(state, kind + "_x0")[slot] = curve.x0
        getattr(state, kind + "_y0")[slot] = curve.y0
        getattr(state, kind + "_m1")[slot] = curve.m1
        getattr(state, kind + "_dx")[slot] = curve.dx
        getattr(state, kind + "_m2")[slot] = curve.m2
        getattr(state, kind + "_ky")[slot] = NAN
        getattr(state, on_name)[slot] = 1

    return property(fget, fset, doc=doc)


class HFSCClass:
    """One node of the link-sharing hierarchy.

    Users obtain instances from :meth:`HFSC.add_class`; the attributes are
    read-only state exposed for measurement (experiments read ``vt``,
    ``cumul_rt``, ``total_work`` and the byte counters).

    Since the flat-state refactor this object is a *façade*: every hot
    numeric quantity lives in the scheduler's shared
    :class:`~repro.core.flatstate.FlatState` arrays at ``self.slot``, and
    the historical attributes are properties over those cells.  Curves
    read as :class:`~repro.core.flatstate.CurveView` and the per-parent
    activity heaps as :class:`~repro.core.flatstate.HeapView`, both
    API-compatible with the objects they replaced.  Only identity-bound
    state (name, tree links, the packet queue, configured specs) stays on
    the object.
    """

    __slots__ = (
        "name",
        "parent",
        "children",
        "queue",
        "rt_requested",
        "vt_policy",
        "state",
        "slot",
        "_rt_spec",
        "_ls_spec",
        "_ul_spec",
    )

    def __init__(
        self,
        name: Any,
        parent: Optional["HFSCClass"],
        rt_spec: Optional[ServiceCurve],
        ls_spec: Optional[ServiceCurve],
        ul_spec: Optional[ServiceCurve],
        state: Optional[FlatState] = None,
    ):
        self.name = name
        self.parent = parent
        self.children: List["HFSCClass"] = []
        self.queue: Deque[Packet] = deque()
        self.vt_policy = "mean"
        if state is None:
            # Standalone construction (tests); schedulers pass their
            # shared state so kernels can walk parent links by slot.
            state = FlatState(1)
        self.state = state
        self.slot = state.alloc(self)
        if parent is not None:
            state.parent[self.slot] = parent.slot
        self._rt_spec: Optional[ServiceCurve] = None
        self._ls_spec: Optional[ServiceCurve] = None
        self._ul_spec: Optional[ServiceCurve] = None
        self.rt_spec = rt_spec
        # The curve the user asked for; ``rt_spec`` is the *effective*
        # curve, which the "scale-rt" overload policy may derate.
        self.rt_requested = rt_spec
        self.ls_spec = ls_spec
        self.ul_spec = ul_spec

    # -- spec properties: object of record + flat mirrors -------------------
    #
    # The ServiceCurve objects remain authoritative for snapshots and
    # comparisons; each assignment mirrors the (m1, d, m2) triple -- plus,
    # for the real-time role, the derived eligible spec -- into the flat
    # arrays so the activation kernels never touch the objects.

    @property
    def rt_spec(self) -> Optional[ServiceCurve]:
        return self._rt_spec

    @rt_spec.setter
    def rt_spec(self, spec: Optional[ServiceCurve]) -> None:
        self._rt_spec = spec
        state = self.state
        slot = self.slot
        if spec is None:
            state.rt_on[slot] = 0
        else:
            state.rt_on[slot] = 1
            state.rt_m1[slot] = spec.m1
            state.rt_d[slot] = spec.d
            state.rt_m2[slot] = spec.m2
            es = eligible_spec(spec)
            state.es_m1[slot] = es.m1
            state.es_d[slot] = es.d
            state.es_m2[slot] = es.m2

    @property
    def ls_spec(self) -> Optional[ServiceCurve]:
        return self._ls_spec

    @ls_spec.setter
    def ls_spec(self, spec: Optional[ServiceCurve]) -> None:
        self._ls_spec = spec
        state = self.state
        slot = self.slot
        if spec is None:
            state.ls_on[slot] = 0
        else:
            state.ls_on[slot] = 1
            state.ls_m1[slot] = spec.m1
            state.ls_d[slot] = spec.d
            state.ls_m2[slot] = spec.m2

    @property
    def ul_spec(self) -> Optional[ServiceCurve]:
        return self._ul_spec

    @ul_spec.setter
    def ul_spec(self, spec: Optional[ServiceCurve]) -> None:
        self._ul_spec = spec
        state = self.state
        slot = self.slot
        if spec is None:
            state.ulsp_on[slot] = 0
        else:
            state.ulsp_on[slot] = 1
            state.ulsp_m1[slot] = spec.m1
            state.ulsp_d[slot] = spec.d
            state.ulsp_m2[slot] = spec.m2

    # -- flat-backed attributes --------------------------------------------

    index = _scalar_prop("index", "Creation order (vt tie-break key).")
    ul_children = _scalar_prop(
        "ul_children", "Direct children carrying an upper-limit curve.")
    nactive = _scalar_prop("nactive", "Number of link-sharing-active children.")
    rt_admitted = _flag_prop(
        "rt_adm",
        "False when the 'reject' overload policy stripped the rt guarantee.")
    ls_active = _flag_prop("ls_active", "Member of the parent's active set?")
    cumul_rt = _scalar_prop(
        "cumul_rt", "c_i: service received under the rt criterion.")
    total_work = _scalar_prop("total_work", "w_i: total service, both criteria.")
    vt = _scalar_prop("vt", "Virtual time (Fig. 6).")
    eligible = _scalar_prop("eligible", "Eligible time (Fig. 5).")
    deadline = _scalar_prop("deadline", "Deadline (Fig. 5).")
    fit_time = _scalar_prop("fit_time", "Upper-limit fit time (extension).")
    vt_watermark = _scalar_prop(
        "vt_watermark", "System vt floor left by the last active period.")
    bytes_rt = _scalar_prop("bytes_rt", "Bytes served via the rt criterion.")
    bytes_ls = _scalar_prop("bytes_ls", "Bytes served via link-sharing.")

    deadline_curve = _curve_prop("dc", "Deadline curve D_i (Fig. 5).")
    eligible_curve = _curve_prop("ec", "Eligible curve E_i (Fig. 5).")
    virtual_curve = _curve_prop("vc", "Virtual curve V_i (Fig. 6).")
    ul_curve = _curve_prop("ul", "Upper-limit curve (extension).")

    @property
    def active_min(self) -> HeapView:
        """Min-heap view over active children's virtual times."""
        return HeapView(self.state, self.slot, True)

    @property
    def active_max(self) -> HeapView:
        """Max-heap view (negated keys) over active children's vts."""
        return HeapView(self.state, self.slot, False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def depth(self) -> int:
        node, depth = self, 0
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def system_vt(self) -> float:
        """System virtual time of this (interior) class, Section IV-C.

        The paper's choice is ``(v_min + v_max) / 2`` over active children
        (policy "mean"); "min" and "max" are the ablation alternatives.
        When no child is active, the watermark left by the last active
        period keeps virtual time monotonic across idle gaps.
        """
        return _flat.system_vt(
            self.state, self.slot, _POLICY_CODES[self.vt_policy]
        )

    def _detach(self) -> None:
        """Move this class onto a private one-slot state (on removal).

        Frees the shared slot for reuse while keeping every scalar
        readable at its final value, so stale external handles (e.g. a
        measurement loop holding a drained class) behave exactly as they
        did when removed classes kept their own attributes.
        """
        private = FlatState(1)
        slot = private.adopt_slot(self.state, self.slot)
        private.obj[slot] = self
        self.state.free(self.slot)
        self.state = private
        self.slot = slot

    def __repr__(self) -> str:
        return f"HFSCClass({self.name!r})"


class HFSC(Scheduler):
    """Hierarchical Fair Service Curve packet scheduler.

    Leaf real-time requests live in the future/ready heaps inside the
    shared :class:`~repro.core.flatstate.FlatState` (Section V's calendar
    variant without the object churn); the scheduler calls the
    ``flatstate.elig_*`` kernels with slot ids.

    Parameters
    ----------
    link_rate:
        Output link capacity in bytes per second (the server's linear
        service curve).
    admission_control:
        When True (default) the scheduler verifies, lazily before the first
        packet after any topology change, that the sum of the leaves'
        real-time curves does not exceed the link rate (Section II).
    vt_policy:
        System virtual time for a class whose child activates:
        ``"mean"`` (default) is the paper's ``(v_min + v_max) / 2``;
        ``"min"`` and ``"max"`` are the alternatives Section IV-C notes
        make the sibling discrepancy grow with the fan-out (ablation).
    realtime:
        When False the real-time criterion is disabled entirely -- the
        scheduler degenerates to pure hierarchical virtual-time
        link-sharing.  This is an *ablation switch*: it demonstrates why
        the paper needs the real-time criterion (leaf curves get violated
        without it, cf. Section III-C).
    overload_policy:
        What to do when live reconfiguration (class churn,
        :meth:`set_link_rate`) makes the leaf real-time set inadmissible:

        * ``"raise"`` (default) -- raise :class:`OverloadError` from the
          next ``enqueue`` (the seed behaviour, now with structured
          context on the exception);
        * ``"reject"`` -- strip the real-time guarantee of the newest
          classes until the remainder fits; stripped classes degrade to
          link-sharing-only service and are re-admitted automatically
          when capacity returns;
        * ``"scale-rt"`` -- derate every leaf's real-time curve by the
          largest uniform factor that fits (proportional degradation);
        * ``"linkshare-only"`` -- suspend the real-time criterion
          globally until the set is admissible again.

        Every degradation is recorded in :attr:`overload_events`.
    """

    def __init__(
        self,
        link_rate: float,
        admission_control: bool = True,
        vt_policy: str = "mean",
        realtime: bool = True,
        overload_policy: str = "raise",
    ):
        super().__init__(link_rate)
        if vt_policy not in ("mean", "min", "max"):
            raise ConfigurationError(f"unknown vt_policy: {vt_policy!r}")
        if overload_policy not in OVERLOAD_POLICIES:
            raise ConfigurationError(
                f"unknown overload_policy: {overload_policy!r} "
                f"(expected one of {OVERLOAD_POLICIES})"
            )
        self._admission_control = admission_control
        self._admission_checked = True
        self.vt_policy = vt_policy
        self._policy_code = _POLICY_CODES[vt_policy]
        self.realtime_enabled = realtime
        self.overload_policy = overload_policy
        #: True while the "linkshare-only" policy has the real-time
        #: criterion suspended because the leaf set is inadmissible.
        self.rt_suspended = False
        #: Structured record of every degradation the overload policy
        #: applied (dicts with "policy", "time"-free details; append-only).
        self.overload_events: List[Dict[str, Any]] = []
        #: Shared flat array-of-struct state for every class in this
        #: hierarchy (see repro.core.flatstate).
        self._flat = FlatState()
        self.root = HFSCClass(ROOT, None, None, ServiceCurve.linear(link_rate),
                              None, state=self._flat)
        self.root.vt_policy = vt_policy
        self._classes: Dict[Any, HFSCClass] = {ROOT: self.root}
        self._ul_classes: Set[HFSCClass] = set()
        self._next_index = 1
        # Backlogged upper-limited leaves keyed by fit time, so
        # next_ready_time() needs the earliest future fit rather than a
        # scan of every upper-limited class.
        self._ul_wait: IndexedHeap[HFSCClass] = IndexedHeap()

    # -- hierarchy construction ---------------------------------------------

    def add_class(
        self,
        name: Any,
        parent: Any = ROOT,
        sc: Optional[ServiceCurve] = None,
        rt_sc: Optional[ServiceCurve] = None,
        ls_sc: Optional[ServiceCurve] = None,
        ul_sc: Optional[ServiceCurve] = None,
    ) -> HFSCClass:
        """Add a class under ``parent``.

        ``sc`` assigns the same curve for real-time and link-sharing (the
        paper's single-curve model); ``rt_sc`` / ``ls_sc`` override each
        role individually.  A class must end up with at least one role.
        Real-time curves are only meaningful on leaves; adding a child to a
        class with a real-time curve raises ``ConfigurationError``.
        """
        if name in self._classes:
            raise ConfigurationError(f"duplicate class name: {name!r}")
        if sc is not None and (rt_sc is not None or ls_sc is not None):
            raise ConfigurationError("pass either sc or rt_sc/ls_sc, not both")
        if sc is not None:
            rt_sc, ls_sc = sc, sc
        if rt_sc is None and ls_sc is None:
            raise ConfigurationError(f"class {name!r} needs a service curve")
        try:
            parent_cls = self._classes[parent]
        except KeyError:
            raise ConfigurationError(f"unknown parent class: {parent!r}") from None
        if parent_cls.rt_spec is not None:
            raise ConfigurationError(
                f"cannot add child to {parent!r}: it has a real-time curve "
                "(real-time service applies to leaf classes only)"
            )
        if parent_cls.queue:
            raise ConfigurationError(
                f"cannot add child to {parent!r}: it has queued packets"
            )
        if not parent_cls.is_root and parent_cls.ls_spec is None:
            raise ConfigurationError(
                f"interior class {parent!r} needs a link-sharing curve"
            )
        cls = HFSCClass(name, parent_cls, rt_sc, ls_sc, ul_sc, state=self._flat)
        cls.vt_policy = self.vt_policy
        cls.index = self._next_index
        self._next_index += 1
        parent_cls.children.append(cls)
        self._classes[name] = cls
        if ul_sc is not None:
            self._ul_classes.add(cls)
            parent_cls.ul_children += 1
        self._admission_checked = False
        if _TELEM.enabled:
            _TELEM.on_reconfig(None, "add-class", name, {"parent": str(parent)})
        return cls

    def remove_class(self, name: Any, force: bool = False) -> List[Packet]:
        """Remove a class (dynamic reconfiguration); returns drained packets.

        Without ``force`` this mirrors what the ALTQ/Linux implementations
        allow: a class can be deleted only when it has no children and no
        queued packets (the returned list is then empty).  With
        ``force=True`` the whole subtree is removed even while backlogged:
        queued packets are drained and *returned* to the caller (counted
        in ``total_returned``, never as served), active ancestors are
        passivated, and every derived structure (eligible set, upper-limit
        wait heap, virtual-time heaps) is left consistent.  The bandwidth
        returns to the pool at the next admission check.
        """
        if name == ROOT:
            raise ReconfigurationError(
                "cannot remove the root class",
                operation="remove_class", class_id=name, reason="root",
            )
        try:
            cls = self._classes[name]
        except KeyError:
            raise ReconfigurationError(
                f"unknown class: {name!r}",
                operation="remove_class", class_id=name, reason="unknown-class",
            ) from None
        if cls.children and not force:
            raise ReconfigurationError(
                f"cannot remove {name!r}: it has child classes",
                operation="remove_class", class_id=name, reason="has-children",
            )
        if cls.queue and not force:
            raise ReconfigurationError(
                f"cannot remove {name!r}: it has queued packets",
                operation="remove_class", class_id=name, reason="queued-packets",
            )
        drained: List[Packet] = []
        # Post-order: leaves drain (and cascade passivation up through the
        # subtree) before their parents are unlinked.
        for node in self._subtree_postorder(cls):
            drained.extend(self._drain_leaf(node))
            self._unlink(node)
        self._admission_checked = False
        if _TELEM.enabled:
            _TELEM.on_reconfig(None, "remove-class", name,
                               {"force": force, "drained": len(drained)})
        return drained

    def update_class(
        self,
        name: Any,
        now: float,
        sc: Any = UNCHANGED,
        rt_sc: Any = UNCHANGED,
        ls_sc: Any = UNCHANGED,
        ul_sc: Any = UNCHANGED,
    ) -> HFSCClass:
        """Change a class's curves live, even while it is backlogged.

        ``UNCHANGED`` (the default) leaves a role alone; ``None`` removes
        that curve.  Changed curves are re-anchored *fresh* at the current
        time / parent virtual time and the class's accumulated service --
        the history kept by the ``min_with`` machinery belongs to the old
        curve and would be meaningless under the new one.  Admission is
        re-checked lazily before the next packet, exactly as for
        :meth:`add_class` / :meth:`remove_class`.
        """
        if name == ROOT:
            raise ReconfigurationError(
                "cannot update the root class (use set_link_rate)",
                operation="update_class", class_id=name, reason="root",
            )
        try:
            cls = self._classes[name]
        except KeyError:
            raise ReconfigurationError(
                f"unknown class: {name!r}",
                operation="update_class", class_id=name, reason="unknown-class",
            ) from None
        if sc is not UNCHANGED:
            if rt_sc is not UNCHANGED or ls_sc is not UNCHANGED:
                raise ReconfigurationError(
                    "pass either sc or rt_sc/ls_sc, not both",
                    operation="update_class", class_id=name, reason="ambiguous-curves",
                )
            rt_sc, ls_sc = sc, sc
        new_rt = cls.rt_requested if rt_sc is UNCHANGED else rt_sc
        new_ls = cls.ls_spec if ls_sc is UNCHANGED else ls_sc
        new_ul = cls.ul_spec if ul_sc is UNCHANGED else ul_sc
        if new_ls is None and cls.children:
            raise ReconfigurationError(
                f"interior class {name!r} needs a link-sharing curve",
                operation="update_class", class_id=name, reason="ls-required",
            )
        if new_rt is None and new_ls is None:
            raise ReconfigurationError(
                f"class {name!r} needs a service curve",
                operation="update_class", class_id=name, reason="no-curves",
            )
        if new_rt is not None and not cls.is_leaf:
            raise ReconfigurationError(
                f"cannot give {name!r} a real-time curve: it has children",
                operation="update_class", class_id=name, reason="rt-on-interior",
            )
        if new_rt is not cls.rt_requested:
            cls.rt_requested = new_rt
            cls.rt_spec = new_rt
            cls.rt_admitted = True  # a fresh request; re-vetted lazily
            if new_rt is None:
                self._drop_request(cls)
                cls.deadline_curve = None
                cls.eligible_curve = None
            else:
                self._reanchor_rt(cls, now)
        if new_ls is not cls.ls_spec:
            cls.ls_spec = new_ls
            if new_ls is None:
                if cls.ls_active:
                    self._passivate_ls(cls)
                cls.virtual_curve = None
            elif cls.ls_active:
                parent = cls.parent
                assert parent is not None
                pvt = parent.system_vt()
                cls.virtual_curve = RuntimeCurve.from_spec(
                    new_ls, pvt, cls.total_work
                )
                cls.vt = cls.virtual_curve.inverse(cls.total_work)
                parent.active_min.update(cls, cls.vt)
                parent.active_max.update(cls, -cls.vt)
            else:
                cls.virtual_curve = None
                if (cls.is_leaf and cls.queue) or cls.nactive > 0:
                    self._activate_ls(cls)
        if new_ul is not cls.ul_spec:
            old_ul = cls.ul_spec
            cls.ul_spec = new_ul
            parent = cls.parent
            assert parent is not None
            if old_ul is None and new_ul is not None:
                self._ul_classes.add(cls)
                parent.ul_children += 1
            elif old_ul is not None and new_ul is None:
                self._ul_classes.discard(cls)
                parent.ul_children -= 1
            cls.ul_curve = None
            cls.fit_time = 0.0
            if cls in self._ul_wait:
                self._ul_wait.remove(cls)
            if new_ul is not None and cls.is_leaf and cls.queue:
                cls.ul_curve = RuntimeCurve.from_spec(new_ul, now, cls.total_work)
                cls.fit_time = cls.ul_curve.inverse(cls.total_work)
                self._ul_wait.push(cls, cls.fit_time)
        self._admission_checked = False
        if _TELEM.enabled:
            _TELEM.on_reconfig(now, "update-class", name)
        return cls

    def set_link_rate(self, rate: float) -> None:
        """Change the output capacity live (rate flap / renegotiation).

        The root's fair-service curve follows the new rate and admission
        is re-checked lazily, so a rate *drop* below the admitted
        real-time demand triggers the configured overload policy.  The
        :class:`~repro.sim.link.Link` transmitting for this scheduler must
        be updated separately (``Link.set_rate``); the chaos injector does
        both together.
        """
        if not math.isfinite(rate):
            raise ReconfigurationError(
                "link rate must be finite",
                operation="set_link_rate", reason="non-finite-rate",
            )
        if rate <= 0:
            raise ReconfigurationError(
                "link rate must be positive",
                operation="set_link_rate", reason="non-positive-rate",
            )
        self.link_rate = float(rate)
        self.root.ls_spec = ServiceCurve.linear(rate)
        self._admission_checked = False
        if _TELEM.enabled:
            _TELEM.on_reconfig(None, "set-link-rate", None, {"rate": rate})

    def rebuild(self, now: float) -> None:
        """Reconstruct every piece of derived state from the queues.

        Recovery action for the watchdog: throws away heaps, the eligible
        set, runtime curves and virtual times, then re-activates every
        backlogged leaf at ``now`` exactly as if its backlog had just
        arrived.  Queue contents and cumulative service counters are the
        ground truth and are preserved; virtual-time watermarks absorb the
        old virtual times so link-sharing stays monotonic across the
        rebuild.
        """
        _flat.elig_clear(self._flat)
        self._ul_wait = IndexedHeap()
        packets = 0
        size = 0.0
        for cls in self._classes.values():
            cls.active_min.clear()
            cls.active_max.clear()
            cls.nactive = 0
            if cls.virtual_curve is not None:
                cls.vt_watermark = max(cls.vt_watermark, cls.vt)
            cls.ls_active = False
            cls.deadline_curve = None
            cls.eligible_curve = None
            cls.virtual_curve = None
            cls.ul_curve = None
            cls.fit_time = 0.0
            if cls.is_leaf and not cls.is_root:
                packets += len(cls.queue)
                size += sum(p.size for p in cls.queue)
        self._backlog_packets = packets
        self._backlog_bytes = size
        for cls in self._classes.values():
            if cls.is_leaf and not cls.is_root and cls.queue:
                self._activate(cls, now)
        self._admission_checked = False
        if _TELEM.enabled:
            _TELEM.on_reconfig(now, "rebuild", None,
                               {"backlog_packets": packets})

    def __getitem__(self, name: Any) -> HFSCClass:
        return self._classes[name]

    def __contains__(self, name: Any) -> bool:
        return name in self._classes

    def classes(self) -> Iterable[HFSCClass]:
        return (cls for name, cls in self._classes.items() if name != ROOT)

    def leaf_classes(self) -> List[HFSCClass]:
        return [cls for cls in self.classes() if cls.is_leaf]

    def check_admission(self) -> None:
        """Raise :class:`OverloadError` if the leaf rt curves overbook.

        Pure check over the *requested* curves; the degradation policies
        are applied lazily on the enqueue path, not here.
        """
        leaves = [
            cls for cls in self.leaf_classes() if cls.rt_requested is not None
        ]
        curves = [cls.rt_requested for cls in leaves]
        if curves and not is_admissible(curves, self.link_rate):
            raise OverloadError(
                "sum of leaf real-time service curves exceeds the link rate",
                capacity=self.link_rate,
                demand_rate=sum(spec.m2 for spec in curves),
                classes=[cls.name for cls in leaves],
            )

    # -- scheduler interface (Fig. 4) ----------------------------------------

    def enqueue(self, packet: Packet, now: float) -> None:
        cls = self._leaf_for(packet)
        if self._admission_control and not self._admission_checked:
            self._ensure_admissible(now)
        self._note_enqueue(packet, now)
        cls.queue.append(packet)
        if len(cls.queue) == 1:
            self._activate(cls, now)

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._backlog_packets == 0:
            return None
        leaf: Optional[HFSCClass] = None
        realtime = False
        if self.realtime_enabled and not self.rt_suspended:
            slot = _flat.elig_query(self._flat, now)
            if slot >= 0:
                leaf = self._flat.obj[slot]
                realtime = True
        if leaf is None:
            leaf = self._link_sharing_select(now)
        if leaf is None:
            # Only possible with rt-only leaves not yet eligible, or
            # upper-limited classes: the link stays idle until
            # next_ready_time (non-work-conserving, as in the authors'
            # implementation).
            return None
        return self._serve(leaf, realtime, now)

    def next_ready_time(self, now: float) -> Optional[float]:
        if self.realtime_enabled and not self.rt_suspended:
            best = _flat.elig_min_eligible(self._flat)
        else:
            best = None
        # The earliest *future* fit time among backlogged upper-limited
        # leaves: ``_ul_wait`` is keyed by fit time, so walk it in key
        # order and stop at the first entry beyond ``now`` (entries at or
        # before ``now`` are schedulable already and don't need a wakeup).
        for fit_time, _cls in self._ul_wait.iter_sorted():
            if fit_time > now:
                if best is None or fit_time < best:
                    best = fit_time
                break
        return best

    # -- batched hot path ------------------------------------------------------

    def enqueue_batch(self, packets, now: float) -> None:
        """Batched :meth:`enqueue`: many same-instant arrivals, one call.

        Call-for-call equivalent to the base-class loop (same per-packet
        order of leaf lookup, admission check, accounting, activation;
        same errors), with the per-packet frames inlined and the class
        table, telemetry guard and backlog counters hoisted.
        """
        if not packets:
            return
        classes = self._classes
        adm = self._admission_control
        telem = _TELEM
        telem_on = telem.enabled
        state = self._flat
        activate_step = _flat.activate_step
        rt_on = state.rt_on
        rt_adm = state.rt_adm
        ulsp_on = state.ulsp_on
        fit_time = state.fit_time
        rt_enabled = self.realtime_enabled
        policy = self._policy_code
        n_packets = 0
        n_bytes = 0.0
        try:
            for packet in packets:
                cls = classes.get(packet.class_id)
                if cls is None or not cls.is_leaf or cls.is_root:
                    self._leaf_for(packet)  # raises the structured error
                if adm and not self._admission_checked:
                    self._ensure_admissible(now)
                packet.enqueued = now
                size = packet.size
                n_packets += 1
                n_bytes += size
                if telem_on:
                    telem.on_enqueue(packet.class_id, size, now)
                queue = cls.queue
                queue.append(packet)
                if len(queue) == 1:
                    # The _activate shell, inlined: the arriving packet
                    # is the head, so head_size == size.
                    slot = cls.slot
                    rt_tracked = (rt_on[slot] != 0 and rt_enabled
                                  and rt_adm[slot] != 0)
                    activate_step(state, slot, now, rt_tracked, size, policy)
                    if ulsp_on[slot]:
                        self._ul_wait.push(cls, fit_time[slot])
        finally:
            # Commit counters even when a packet mid-batch raises: the
            # earlier packets are enqueued, exactly as a caller's own
            # per-packet loop would leave them.
            self._backlog_packets += n_packets
            self._backlog_bytes += n_bytes
            self.total_enqueued += n_packets

    def dequeue_batch(self, now: float, max_packets: int) -> List[Packet]:
        """Batched :meth:`dequeue`: burst-serve at one instant.

        The real-time query, the serve bookkeeping and the eligible-set
        maintenance run inlined with the flat-state arrays and kernels
        bound once per batch; the link-sharing descent and every
        rarely-taken branch call the same helpers the per-packet path
        uses.
        """
        served: List[Packet] = []
        if max_packets <= 0 or self._backlog_packets == 0:
            return served
        state = self._flat
        elig_query = _flat.elig_query
        serve_step = _flat.serve_step
        obj = state.obj
        rt_on = state.rt_on
        rt_adm = state.rt_adm
        ul_on = state.ul_on
        deadline = state.deadline
        fit_time = state.fit_time
        rt_enabled = self.realtime_enabled
        rt_live = rt_enabled and not self.rt_suspended
        telem = _TELEM
        telem_on = telem.enabled
        append = served.append
        backlog = self._backlog_packets
        count = 0
        n_bytes = 0.0
        try:
            while count < max_packets and count < backlog:
                leaf = None
                realtime = False
                if rt_live:
                    slot = elig_query(state, now)
                    if slot >= 0:
                        leaf = obj[slot]
                        realtime = True
                if leaf is None:
                    leaf = self._link_sharing_select(now)
                    if leaf is None:
                        break
                    slot = leaf.slot
                queue = leaf.queue
                packet = queue.popleft()
                packet.via_realtime = realtime
                rt_tracked = (
                    rt_on[slot] != 0 and rt_enabled and rt_adm[slot] != 0
                )
                packet.deadline = deadline[slot] if rt_tracked else None
                packet.dequeued = now
                size = packet.size
                count += 1
                n_bytes += size
                if telem_on:
                    telem.on_dequeue(packet.class_id, size, now)
                    telem.on_hfsc_serve(leaf.name, size, now, realtime,
                                        packet.deadline)
                backlogged = bool(queue)
                next_size = queue[0].size if backlogged else 0.0
                serve_step(state, slot, size, realtime, rt_tracked,
                           backlogged, next_size, now)
                if ul_on[slot]:
                    if backlogged:
                        self._ul_wait.update(leaf, fit_time[slot])
                    else:
                        self._ul_wait.remove(leaf)
                append(packet)
        finally:
            self._backlog_packets = backlog - count
            self._backlog_bytes -= n_bytes
            self.total_dequeued += count
        return served

    # -- measurement hooks ----------------------------------------------------

    def virtual_times(self, parent: Any = ROOT) -> Dict[Any, float]:
        """Virtual times of the active children of ``parent`` (analysis)."""
        parent_cls = self._classes[parent]
        return {child.name: child.vt for child in parent_cls.active_min}

    def work_of(self, name: Any) -> float:
        """Total link-sharing-tracked service of a class, in bytes."""
        return self._classes[name].total_work

    def eligible_count(self) -> int:
        """Number of leaves currently in the real-time eligible set."""
        return _flat.elig_len(self._flat)

    def check_invariants(self) -> None:
        """Verify internal consistency (used by the property tests).

        Checks: active/passive bookkeeping matches queue contents, heap
        membership matches activity, the eligible heaps are well ordered
        with exact position maps, per-class byte accounting sums to the
        scheduler totals, and rt service never exceeds total service.
        """
        state = self._flat
        _flat.elig_check_invariants(state)
        total_backlog_packets = 0
        total_backlog_bytes = 0.0
        # One ancestor walk per backlogged leaf marks every interior class
        # with backlogged descendants (the old per-interior leaf scan was
        # quadratic in the class count).
        with_backlog: Set[HFSCClass] = set()
        for cls in self.classes():
            if cls.is_leaf and cls.queue:
                node: Optional[HFSCClass] = cls
                while node is not None and node not in with_backlog:
                    with_backlog.add(node)
                    node = node.parent
        for cls in self.classes():
            if cls.is_leaf:
                total_backlog_packets += len(cls.queue)
                total_backlog_bytes += sum(p.size for p in cls.queue)
                if cls.rt_spec is not None and self.realtime_enabled:
                    in_set = _flat.elig_contains(state, cls.slot)
                    assert in_set == (bool(cls.queue) and cls.rt_admitted), (
                        f"{cls.name!r}: eligible-set membership inconsistent"
                    )
                assert cls.cumul_rt <= cls.total_work + 1e-6, (
                    f"{cls.name!r}: rt service exceeds total service"
                )
                if cls.ul_spec is not None:
                    in_wait = cls in self._ul_wait
                    expect = cls.ul_curve is not None and bool(cls.queue)
                    assert in_wait == expect, (
                        f"{cls.name!r}: _ul_wait membership inconsistent"
                    )
                has_backlog = bool(cls.queue)
            else:
                has_backlog = cls in with_backlog
                assert cls.nactive == sum(
                    1 for child in cls.children if child.ls_active
                ), f"{cls.name!r}: nactive count stale"
            if cls.ls_spec is not None:
                parent = cls.parent
                assert parent is not None
                in_heaps = cls in parent.active_min
                assert in_heaps == cls.ls_active, (
                    f"{cls.name!r}: heap membership != ls_active"
                )
                assert (cls in parent.active_max) == cls.ls_active
                if cls.ls_active and cls.is_leaf:
                    assert has_backlog, f"{cls.name!r}: active but empty"
        assert total_backlog_packets == self._backlog_packets
        assert abs(total_backlog_bytes - self._backlog_bytes) < 1e-6

    # -- snapshot/restore (used by repro.persist) -----------------------------
    #
    # The split follows one rule: anything ``rebuild()`` can reconstruct
    # from the queues (heap memberships, the eligible set, ``_ul_wait``,
    # ``nactive``/``ls_active``, backlog counters) is RE-DERIVED on
    # restore and cross-validated against the snapshot; anything it
    # cannot (runtime curves, whose ``min_with`` history spans active
    # periods; virtual times; cumulative service; queues; overload
    # bookkeeping) is STORED.  A restore that disagrees with its own
    # re-derivation is refused -- never partially applied.

    def snapshot_state(self, add_packet: Callable[[Packet], int]) -> Dict[str, Any]:
        """Serialize the complete scheduler state to a JSON-able document.

        ``add_packet`` interns a packet and returns its table id (the
        packet table is shared with the link/event-loop snapshot so the
        in-flight packet stays the same object as its queue references).
        """
        classes = []
        for cls in self._classes.values():
            if cls.is_root:
                continue
            if not isinstance(cls.name, (str, int)):
                raise SnapshotError(
                    f"class name {cls.name!r} is not snapshot-serializable "
                    "(str or int required)",
                    reason="unsupported-name",
                )
            classes.append({
                "name": cls.name,
                "parent": cls.parent.name,
                "index": cls.index,
                "rt_requested": _sc_doc(cls.rt_requested),
                "rt_spec": _sc_doc(cls.rt_spec),
                "rt_admitted": cls.rt_admitted,
                "ls_spec": _sc_doc(cls.ls_spec),
                "ul_spec": _sc_doc(cls.ul_spec),
                "queue": [add_packet(p) for p in cls.queue],
                "cumul_rt": cls.cumul_rt,
                "total_work": cls.total_work,
                "bytes_rt": cls.bytes_rt,
                "bytes_ls": cls.bytes_ls,
                "deadline_curve": _rc_doc(cls.deadline_curve),
                "eligible_curve": _rc_doc(cls.eligible_curve),
                "virtual_curve": _rc_doc(cls.virtual_curve),
                "ul_curve": _rc_doc(cls.ul_curve),
                "eligible": cls.eligible,
                "deadline": cls.deadline,
                "vt": cls.vt,
                "fit_time": cls.fit_time,
                "vt_watermark": cls.vt_watermark,
                # Insertion order, not key order: IndexedHeap.update keeps
                # the original sequence number, so re-pushing in this order
                # preserves how future exact-key ties will break.
                "active_order": [
                    child.name for child in cls.active_min.iter_insertion()
                ],
            })
        return {
            "type": "HFSC",
            "config": {
                "link_rate": self.link_rate,
                "admission_control": self._admission_control,
                "vt_policy": self.vt_policy,
                "realtime": self.realtime_enabled,
                "overload_policy": self.overload_policy,
            },
            "runtime": {
                "admission_checked": self._admission_checked,
                "rt_suspended": self.rt_suspended,
                "overload_events": [dict(e) for e in self.overload_events],
                "next_index": self._next_index,
            },
            "counters": {
                "backlog_packets": self._backlog_packets,
                "backlog_bytes": self._backlog_bytes,
                "enqueued": self.total_enqueued,
                "dequeued": self.total_dequeued,
                "returned": self.total_returned,
            },
            "root": {
                "total_work": self.root.total_work,
                "vt_watermark": self.root.vt_watermark,
                "active_order": [
                    child.name for child in self.root.active_min.iter_insertion()
                ],
            },
            "ul_wait_order": [
                cls.name for cls in self._ul_wait.iter_insertion()
            ],
            "classes": classes,
        }

    _CLASS_DOC_KEYS = frozenset((
        "name", "parent", "index", "rt_requested", "rt_spec", "rt_admitted",
        "ls_spec", "ul_spec", "queue", "cumul_rt", "total_work", "bytes_rt",
        "bytes_ls", "deadline_curve", "eligible_curve", "virtual_curve",
        "ul_curve", "eligible", "deadline", "vt", "fit_time", "vt_watermark",
        "active_order",
    ))

    @classmethod
    def restore_state(
        cls, doc: Dict[str, Any], get_packet: Callable[[int], Packet]
    ) -> "HFSC":
        """Rebuild a scheduler from :meth:`snapshot_state` output.

        Returns a *fresh* scheduler (atomic: nothing pre-existing is
        mutated; on any validation failure the partially-built object is
        simply discarded).  Derived structures are reconstructed from the
        queues and cross-checked against the snapshot's own record of
        them, then :meth:`check_invariants` gets the final word.
        """
        _require_keys(doc, ("type", "config", "runtime", "counters", "root",
                            "ul_wait_order", "classes"), "HFSC snapshot")
        if doc["type"] != "HFSC":
            raise SnapshotError(
                f"scheduler type mismatch: expected 'HFSC', got {doc['type']!r}",
                reason="scheduler-type",
            )
        config = doc["config"]
        config_keys = ("link_rate", "admission_control", "vt_policy",
                       "realtime", "overload_policy")
        if isinstance(config, dict) and "eligible_backend" in config:
            # Older envelopes name the request set they ran with.  Every
            # one of them maps exactly onto the flat heaps: membership and
            # keys are re-derived from the per-class scalars below.
            if config["eligible_backend"] not in ("heap", "tree", "calendar"):
                raise SnapshotError(
                    "snapshot names an unknown eligible set "
                    f"{config['eligible_backend']!r}",
                    reason="bad-config",
                )
            config_keys += ("eligible_backend",)
        _require_keys(config, config_keys, "HFSC config")
        try:
            sched = cls(
                link_rate=config["link_rate"],
                admission_control=config["admission_control"],
                vt_policy=config["vt_policy"],
                realtime=config["realtime"],
                overload_policy=config["overload_policy"],
            )
        except ConfigurationError as exc:
            raise SnapshotError(
                f"snapshot carries an invalid configuration: {exc}",
                reason="bad-config",
            ) from exc
        for cdoc in doc["classes"]:
            _require_keys(cdoc, cls._CLASS_DOC_KEYS, f"class {cdoc.get('name')!r}")
            try:
                node = sched.add_class(
                    cdoc["name"],
                    parent=cdoc["parent"],
                    rt_sc=_sc_from(cdoc["rt_requested"]),
                    ls_sc=_sc_from(cdoc["ls_spec"]),
                    ul_sc=_sc_from(cdoc["ul_spec"]),
                )
            except ConfigurationError as exc:
                raise SnapshotError(
                    f"snapshot hierarchy is not constructible: {exc}",
                    reason="bad-hierarchy",
                ) from exc
            node.index = cdoc["index"]
            node.rt_spec = _sc_from(cdoc["rt_spec"])
            node.rt_admitted = cdoc["rt_admitted"]
            node.queue.extend(get_packet(uid) for uid in cdoc["queue"])
            node.cumul_rt = cdoc["cumul_rt"]
            node.total_work = cdoc["total_work"]
            node.bytes_rt = cdoc["bytes_rt"]
            node.bytes_ls = cdoc["bytes_ls"]
            node.deadline_curve = _rc_from(cdoc["deadline_curve"])
            node.eligible_curve = _rc_from(cdoc["eligible_curve"])
            node.virtual_curve = _rc_from(cdoc["virtual_curve"])
            node.ul_curve = _rc_from(cdoc["ul_curve"])
            node.eligible = cdoc["eligible"]
            node.deadline = cdoc["deadline"]
            node.vt = cdoc["vt"]
            node.fit_time = cdoc["fit_time"]
            node.vt_watermark = cdoc["vt_watermark"]
        runtime = doc["runtime"]
        _require_keys(runtime, ("admission_checked", "rt_suspended",
                                "overload_events", "next_index"), "HFSC runtime")
        sched._next_index = runtime["next_index"]
        sched.rt_suspended = runtime["rt_suspended"]
        sched.overload_events = [dict(e) for e in runtime["overload_events"]]
        root_doc = doc["root"]
        _require_keys(root_doc, ("total_work", "vt_watermark", "active_order"),
                      "HFSC root")
        sched.root.total_work = root_doc["total_work"]
        sched.root.vt_watermark = root_doc["vt_watermark"]
        sched._rederive_from_queues(doc)
        counters = doc["counters"]
        _require_keys(counters, ("backlog_packets", "backlog_bytes",
                                 "enqueued", "dequeued", "returned"),
                      "HFSC counters")
        derived_packets = sum(
            len(c.queue) for c in sched.classes() if c.is_leaf
        )
        derived_bytes = sum(
            p.size for c in sched.classes() if c.is_leaf for p in c.queue
        )
        if derived_packets != counters["backlog_packets"] or (
            abs(derived_bytes - counters["backlog_bytes"]) > 1e-6
        ):
            raise SnapshotError(
                "stored backlog counters disagree with the queue contents",
                reason="counter-mismatch",
                context={
                    "stored": [counters["backlog_packets"],
                               counters["backlog_bytes"]],
                    "derived": [derived_packets, derived_bytes],
                },
            )
        sched._backlog_packets = counters["backlog_packets"]
        sched._backlog_bytes = counters["backlog_bytes"]
        sched.total_enqueued = counters["enqueued"]
        sched.total_dequeued = counters["dequeued"]
        sched.total_returned = counters["returned"]
        sched._admission_checked = runtime["admission_checked"]
        try:
            sched.check_invariants()
        except AssertionError as exc:
            raise SnapshotError(
                f"restored state failed invariant cross-validation: {exc}",
                reason="invariant-violation",
            ) from exc
        return sched

    def _rederive_from_queues(self, doc: Dict[str, Any]) -> None:
        """Reconstruct everything ``rebuild`` could, validating as we go.

        Heap memberships, the eligible set, ``_ul_wait``, ``nactive`` and
        ``ls_active`` all re-derive from the queues plus the stored
        scalars; the snapshot's order lists pin same-virtual-time heap
        tie-breaks and are cross-checked against the derived memberships.
        """
        # Activity: a non-root class is link-sharing active iff it is a
        # backlogged leaf with an ls curve, or has an active child.
        # _classes preserves creation order (parents first), so the
        # reversed walk sees children before their parents.
        active: Dict[HFSCClass, bool] = {}
        for node in reversed(list(self.classes())):
            if node.is_leaf:
                active[node] = bool(node.queue) and node.ls_spec is not None
            else:
                active[node] = any(active[child] for child in node.children)
        order_by_parent: Dict[Any, List[Any]] = {
            cdoc["name"]: cdoc["active_order"] for cdoc in doc["classes"]
        }
        order_by_parent[ROOT] = doc["root"]["active_order"]
        for parent in self._classes.values():
            if not parent.children:
                continue
            parent.nactive = sum(
                1 for child in parent.children if active[child]
            )
            expected = {child.name for child in parent.children if active[child]}
            order = order_by_parent.get(parent.name, [])
            if set(order) != expected or len(order) != len(expected):
                raise SnapshotError(
                    f"stored active-child order of {parent.name!r} disagrees "
                    "with the re-derived active set",
                    reason="active-set-mismatch",
                    context={"stored": list(order), "derived": sorted(
                        str(name) for name in expected)},
                )
            for name in order:
                child = self._classes[name]
                if child.virtual_curve is None:
                    raise SnapshotError(
                        f"active class {name!r} has no virtual curve",
                        reason="missing-curve",
                    )
                parent.active_min.push(child, child.vt)
                parent.active_max.push(child, -child.vt)
        for node in self.classes():
            node.ls_active = active[node]
        # The real-time eligible set: membership is fully derivable
        # (backlogged + admitted + rt curve, tracked even while
        # rt_suspended); eligible/deadline values come from the stored
        # scalars, inserted in creation order.
        for node in self.classes():
            if not node.is_leaf or node.rt_spec is None:
                continue
            if not (self.realtime_enabled and node.rt_admitted and node.queue):
                continue
            if node.deadline_curve is None or node.eligible_curve is None:
                raise SnapshotError(
                    f"eligible leaf {node.name!r} has no deadline/eligible "
                    "curve",
                    reason="missing-curve",
                )
            _flat.elig_insert(self._flat, node.slot, node.eligible,
                              node.deadline)
        # Upper-limit wait heap, in the stored fit-time order.
        expected_wait = {
            node.name
            for node in self.classes()
            if node.is_leaf and node.ul_curve is not None and node.queue
        }
        order = doc["ul_wait_order"]
        if set(order) != expected_wait or len(order) != len(expected_wait):
            raise SnapshotError(
                "stored _ul_wait order disagrees with the re-derived "
                "membership",
                reason="ul-wait-mismatch",
                context={"stored": list(order),
                         "derived": sorted(str(n) for n in expected_wait)},
            )
        for name in order:
            node = self._classes[name]
            self._ul_wait.push(node, node.fit_time)

    # -- long-run drift hardening ---------------------------------------------

    def renormalize_vt(self) -> int:
        """Pull virtual-time origins back toward zero; returns domains shifted.

        Each interior class's children share a private virtual-time
        domain that only ever grows (``system_vt`` is monotonic); after
        ~1e15 bytes of service the float ulp at the working point
        approaches a packet size and same-``vt`` tie-breaks start to
        decay.  This subtracts a power-of-two offset from every quantity
        in such a domain (child ``vt``, curve anchor ``x0``, the parent's
        idle watermark), which by Sterbenz's lemma is exact for values in
        ``[delta, 2*delta)`` and keeps relative order in general.  Called
        by :class:`repro.sim.faults.DriftGuard` on long soaks; not part
        of the per-packet hot path.

        Renormalization is *not* digest-transparent in every case --
        shifting can perturb sub-ulp near-ties -- so the guard treats it
        as a maintenance action with bounded-lag assertions, not a
        byte-identical transform.
        """
        shifted = 0
        for parent in self._classes.values():
            if not parent.children:
                continue
            # The shiftable floor is the minimum over the *live* domain
            # quantities (virtual times and curve anchors).  The idle
            # watermark is deliberately excluded while any child is live:
            # it lags far below the active virtual times during long busy
            # periods (it only advances on passivation), and it is only a
            # floor -- clamping it at zero after the shift keeps every
            # property it is used for.  With no live children it *is* the
            # domain, so it drives the shift alone.
            base = math.inf
            live = False
            for child in parent.children:
                if child.virtual_curve is not None:
                    live = True
                    # Fold the curve's dead history (below the live
                    # working point) into its anchor; a never-passive
                    # class otherwise pins x0 at the activation origin
                    # and the domain could never shift.
                    child.virtual_curve.rebase(child.vt)
                    if child.vt < base:
                        base = child.vt
                    if child.virtual_curve.x0 < base:
                        base = child.virtual_curve.x0
            if not live:
                base = parent.vt_watermark
            if not (base > 2.0) or not math.isfinite(base):
                continue
            delta = 2.0 ** math.floor(math.log2(base))
            # Insertion order so exact-tie behaviour survives the rebuild
            # (IndexedHeap.update keeps original sequence numbers).
            order = list(parent.active_min.iter_insertion())
            parent.active_min.clear()
            parent.active_max.clear()
            parent.vt_watermark = max(parent.vt_watermark - delta, 0.0)
            for child in parent.children:
                if child.virtual_curve is not None:
                    child.vt -= delta
                    child.virtual_curve.shift_x(-delta)
            for child in order:
                parent.active_min.push(child, child.vt)
                parent.active_max.push(child, -child.vt)
            shifted += 1
        return shifted

    def max_vt_lag(self) -> float:
        """Largest (v_max - v_min) spread over any active sibling set.

        The paper bounds sibling virtual-time divergence for fair
        link-sharing; a spread that grows without bound signals drift
        (or a bug), which is what :class:`repro.sim.faults.DriftGuard`
        audits on long runs.
        """
        worst = 0.0
        for parent in self._classes.values():
            if parent.nactive >= 2:
                spread = -parent.active_max.peek_key() - parent.active_min.peek_key()
                if spread > worst:
                    worst = spread
        return worst

    def max_vt_magnitude(self) -> float:
        """Largest |virtual time| in any domain (drift-guard trigger)."""
        worst = 0.0
        for parent in self._classes.values():
            if parent.vt_watermark > worst:
                worst = parent.vt_watermark
            for child in parent.children:
                if child.virtual_curve is not None and child.vt > worst:
                    worst = child.vt
        return worst

    # -- internals -------------------------------------------------------------

    def _leaf_for(self, packet: Packet) -> HFSCClass:
        try:
            cls = self._classes[packet.class_id]
        except KeyError:
            raise ConfigurationError(
                f"packet for unknown class {packet.class_id!r}"
            ) from None
        if not cls.is_leaf or cls.is_root:
            raise ConfigurationError(
                f"packets may only be queued on leaf classes, not {cls.name!r}"
            )
        return cls

    def _rt_tracked(self, cls: HFSCClass) -> bool:
        """Is this leaf's real-time machinery live (spec set and admitted)?"""
        return (
            cls.rt_spec is not None
            and self.realtime_enabled
            and cls.rt_admitted
        )

    # -- overload policies -----------------------------------------------------

    def _ensure_admissible(self, now: float) -> None:
        """Lazy admission check + the configured degradation policy."""
        rt_leaves = sorted(
            (
                cls
                for cls in self.leaf_classes()
                if cls.rt_requested is not None
            ),
            key=_creation_index,
        )
        policy = self.overload_policy
        if policy == "scale-rt":
            self._apply_scale_rt(rt_leaves, now)
        elif policy == "linkshare-only":
            self._apply_linkshare_only(rt_leaves, now)
        elif policy == "reject":
            self._apply_reject(rt_leaves, now)
        else:  # "raise"
            requested = [cls.rt_requested for cls in rt_leaves]
            if requested and not is_admissible(requested, self.link_rate):
                raise OverloadError(
                    "sum of leaf real-time service curves exceeds the link rate",
                    capacity=self.link_rate,
                    demand_rate=sum(spec.m2 for spec in requested),
                    classes=[cls.name for cls in rt_leaves],
                )
        self._admission_checked = True

    def _apply_scale_rt(self, rt_leaves: List[HFSCClass], now: float) -> None:
        requested = [cls.rt_requested for cls in rt_leaves]
        factor = (
            uniform_admissible_scale(requested, self.link_rate)
            if requested
            else 1.0
        )
        if factor < 1.0:
            self._record_overload(
                "scale-rt",
                now=now,
                factor=factor,
                classes=[cls.name for cls in rt_leaves],
            )
        for cls in rt_leaves:
            target = (
                cls.rt_requested
                if factor >= 1.0
                else cls.rt_requested.scaled(factor)
            )
            changed = cls.rt_spec != target or not cls.rt_admitted
            cls.rt_spec = target
            cls.rt_admitted = True
            if changed:
                self._reanchor_rt(cls, now)

    def _apply_linkshare_only(self, rt_leaves: List[HFSCClass], now: float) -> None:
        requested = [cls.rt_requested for cls in rt_leaves]
        feasible = not requested or is_admissible(requested, self.link_rate)
        if feasible and self.rt_suspended:
            # Capacity returned: resume the real-time criterion with fresh
            # curves (the suspended-era deadlines are ancient history and
            # would otherwise release a burst of "overdue" service).
            self.rt_suspended = False
            for cls in rt_leaves:
                self._reanchor_rt(cls, now)
        elif not feasible and not self.rt_suspended:
            self.rt_suspended = True
            self._record_overload(
                "linkshare-only",
                now=now,
                classes=[cls.name for cls in rt_leaves],
            )

    def _apply_reject(self, rt_leaves: List[HFSCClass], now: float) -> None:
        # Previously admitted classes keep their guarantees first (oldest
        # first), then newcomers are admitted greedily in creation order;
        # whatever does not fit is stripped to link-sharing-only service
        # until a later check finds room again.
        ordered = [cls for cls in rt_leaves if cls.rt_admitted] + [
            cls for cls in rt_leaves if not cls.rt_admitted
        ]
        admitted: List[HFSCClass] = []
        rejected: List[HFSCClass] = []
        curves: List[ServiceCurve] = []
        for cls in ordered:
            trial = curves + [cls.rt_requested]
            if is_admissible(trial, self.link_rate):
                curves = trial
                admitted.append(cls)
            else:
                rejected.append(cls)
        for cls in admitted:
            if not cls.rt_admitted:
                cls.rt_admitted = True
                self._reanchor_rt(cls, now)
        stripped = [cls for cls in rejected if cls.rt_admitted]
        for cls in stripped:
            cls.rt_admitted = False
            self._drop_request(cls)
            cls.deadline_curve = None
            cls.eligible_curve = None
        if stripped:
            self._record_overload(
                "reject",
                now=now,
                rejected=[cls.name for cls in rejected],
            )

    def _reanchor_rt(self, leaf: HFSCClass, now: float) -> None:
        """Fresh deadline/eligible curves after a live rt-spec change.

        ``min_with`` history belongs to the old curve; a changed spec is
        re-anchored at the class's current cumulative service as if its
        backlog had just started.
        """
        if not self._rt_tracked(leaf):
            leaf.deadline_curve = None
            leaf.eligible_curve = None
            self._drop_request(leaf)
            return
        if not leaf.queue:
            # Idle: nothing to schedule; _activate rebuilds from the new
            # spec when the next packet arrives.
            leaf.deadline_curve = None
            leaf.eligible_curve = None
            return
        spec = leaf.rt_spec
        leaf.deadline_curve = RuntimeCurve.from_spec(spec, now, leaf.cumul_rt)
        leaf.eligible_curve = RuntimeCurve.from_spec(
            eligible_spec(spec), now, leaf.cumul_rt
        )
        leaf.eligible = leaf.eligible_curve.inverse(leaf.cumul_rt)
        leaf.deadline = leaf.deadline_curve.inverse(
            leaf.cumul_rt + leaf.queue[0].size
        )
        self._drop_request(leaf)
        _flat.elig_insert(self._flat, leaf.slot, leaf.eligible, leaf.deadline)

    def _drop_request(self, leaf: HFSCClass) -> None:
        """Remove ``leaf``'s real-time request, if it has one."""
        if _flat.elig_contains(self._flat, leaf.slot):
            _flat.elig_remove(self._flat, leaf.slot)

    def _record_overload(self, policy: str, now: Optional[float] = None,
                         **details: Any) -> None:
        event = {"policy": policy}
        event.update(details)
        self.overload_events.append(event)
        if _TELEM.enabled:
            _TELEM.on_overload(now, policy, dict(details))

    # -- removal internals -----------------------------------------------------

    def _subtree_postorder(self, cls: HFSCClass) -> List[HFSCClass]:
        order: List[HFSCClass] = []
        stack = [cls]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        order.reverse()
        return order

    def _drain_leaf(self, leaf: HFSCClass) -> List[Packet]:
        """Empty a leaf's queue and detach it from every derived structure."""
        drained = list(leaf.queue)
        leaf.queue.clear()
        for packet in drained:
            self._note_return(packet)
        self._drop_request(leaf)
        if leaf.ul_spec is not None and leaf in self._ul_wait:
            self._ul_wait.remove(leaf)
        if leaf.ls_active:
            self._passivate_ls(leaf)
        return drained

    def _unlink(self, cls: HFSCClass) -> None:
        parent = cls.parent
        assert parent is not None
        parent.children.remove(cls)
        del self._classes[cls.name]
        if cls in self._ul_classes:
            self._ul_classes.discard(cls)
            parent.ul_children -= 1
        # Sever the back-reference: a removed class must not keep the tree
        # alive or be mistaken for a live node by stale external handles.
        cls.parent = None
        # Recycle the shared slot; the class keeps its final values on a
        # private one-slot state for any handles still held by callers.
        cls._detach()

    def _activate(self, leaf: HFSCClass, now: float) -> None:
        """Fig. 5(a) update_ed + Fig. 6 update_v on passive->active.

        All state mutation, the eligible-set insert included, happens in
        the flat kernel; this shell only performs the ul-wait-heap push,
        which holds façade objects.
        """
        state = self._flat
        slot = leaf.slot
        rt_tracked = (
            state.rt_on[slot] != 0
            and self.realtime_enabled
            and state.rt_adm[slot] != 0
        )
        _flat.activate_step(state, slot, now, rt_tracked,
                            leaf.queue[0].size, self._policy_code)
        if state.ulsp_on[slot]:
            self._ul_wait.push(leaf, state.fit_time[slot])

    def _activate_ls(self, cls: HFSCClass) -> None:
        """Walk up the tree activating classes (eq. 12 at each level)."""
        _flat.activate_ls(self._flat, cls.slot, self._policy_code)

    def _passivate_ls(self, cls: HFSCClass) -> None:
        _flat.passivate_ls(self._flat, cls.slot)

    def _link_sharing_select(self, now: float) -> Optional[HFSCClass]:
        """Smallest-virtual-time descent from the root (Fig. 4).

        Without upper limits this is a straight heap-peek descent, O(1)
        per level.  With upper limits in the hierarchy, classes whose fit
        time lies in the future must be skipped (extension); the original
        implementation sorted every sibling set on the way down, making
        each dequeue linear in the fan-out.  Here each level peeks the
        heap and falls back to a lazy in-order walk
        (:meth:`IndexedHeap.iter_sorted`) only when the minimum is tied or
        unfit, so the cost is O(log n) plus the number of skipped
        children.

        Virtual-time ties are broken by class creation order
        (``HFSCClass.index``).  The original loop used ``id()``, i.e.
        allocation order, which equals creation order for classes built in
        one pass but is not stable across processes; pinning the explicit
        index keeps schedules reproducible.
        """
        state = self._flat
        root_slot = self.root.slot
        slot = root_slot
        if not self._ul_classes:
            slot = _flat.ls_descend(state, root_slot)
        else:
            nactive = state.nactive
            ul_on = state.ul_on
            fit_time = state.fit_time
            while nactive[slot] > 0:
                keys = state.hmin_key[slot]
                seqs = state.hmin_seq[slot]
                slots = state.hmin_slot[slot]
                key0 = keys[0]
                tied = (len(keys) > 1 and keys[1] == key0) or (
                    len(keys) > 2 and keys[2] == key0
                )
                if not tied:
                    child = slots[0]
                    if not ul_on[child] or fit_time[child] <= now:
                        slot = child
                        continue
                chosen = -1
                need_fit = state.ul_children[slot] > 0
                group: List[int] = []
                group_vt: Optional[float] = None
                for vt, child in heap_iter_sorted(keys, seqs, slots):
                    if vt != group_vt and group:
                        chosen = self._first_fit(group, need_fit, now)
                        if chosen >= 0:
                            break
                        group.clear()
                    group_vt = vt
                    group.append(child)
                else:
                    chosen = self._first_fit(group, need_fit, now)
                if chosen < 0:
                    return None
                slot = chosen
        if slot == root_slot:
            return None
        node = state.obj[slot]
        if not node.queue:
            raise RuntimeError(
                f"link-sharing descent reached empty class {node.name!r}"
            )
        return node

    def _first_fit(self, group: List[int], need_fit: bool, now: float) -> int:
        """Earliest-created fitting slot in an equal-virtual-time group.

        Returns -1 when every member's fit time is in the future.
        """
        state = self._flat
        if len(group) > 1:
            group.sort(key=state.index.__getitem__)
        if not need_fit:
            return group[0]
        ul_on = state.ul_on
        fit_time = state.fit_time
        for child in group:
            if not ul_on[child] or fit_time[child] <= now:
                return child
        return -1

    def _serve(self, leaf: HFSCClass, realtime: bool, now: float) -> Packet:
        queue = leaf.queue
        packet = queue.popleft()
        packet.via_realtime = realtime
        state = self._flat
        slot = leaf.slot
        rt_tracked = (
            state.rt_on[slot] != 0
            and self.realtime_enabled
            and state.rt_adm[slot] != 0
        )
        packet.deadline = state.deadline[slot] if rt_tracked else None
        self._note_dequeue(packet, now)
        size = packet.size
        if _TELEM.enabled:
            _TELEM.on_hfsc_serve(leaf.name, size, now, realtime, packet.deadline)
        backlogged = bool(queue)
        next_size = queue[0].size if backlogged else 0.0
        # Fig. 6 update_v, the Fig. 5 e/d advance, the eligible-set
        # maintenance, the upper-limit fit update and (on queue-empty) the
        # link-sharing passivation all run in one kernel call, so
        # per-packet and batched serves share one deadline-tie rule; the
        # shell applies the fit time to the heap that holds façade objects.
        _flat.serve_step(state, slot, size, realtime, rt_tracked,
                         backlogged, next_size, now)
        if state.ul_on[slot]:
            if backlogged:
                self._ul_wait.update(leaf, state.fit_time[slot])
            else:
                self._ul_wait.remove(leaf)
        return packet


#: Backwards-friendly alias matching the paper's name for the algorithm.
HFSCScheduler = HFSC
