"""Live reconfiguration: update/remove/rebuild, and the overload policies."""

from __future__ import annotations

import pytest

from repro.core import flatstate
from repro.core.curves import ServiceCurve
from repro.core.errors import OverloadError, ReconfigurationError
from repro.core.hfsc import HFSC, ROOT
from repro.sim.engine import EventLoop
from repro.sim.link import Link
from repro.sim.packet import Packet

from helpers import pkt


def _two_leaf(policy="raise", rate=1000.0):
    sched = HFSC(rate, overload_policy=policy)
    sched.add_class("a", sc=ServiceCurve.linear(0.6 * rate))
    sched.add_class("b", sc=ServiceCurve.linear(0.4 * rate))
    return sched


def _conserved(sched):
    return (
        sched.total_enqueued
        == sched.total_dequeued + sched.total_returned + len(sched)
    )


# -- update_class -------------------------------------------------------------


def test_update_class_rt_curve_while_backlogged():
    sched = _two_leaf()
    for i in range(4):
        sched.enqueue(pkt("a", 100.0), 0.0)
        sched.enqueue(pkt("b", 100.0), 0.0)
    sched.dequeue(0.0)
    sched.update_class("a", 0.1, sc=ServiceCurve.linear(200.0))
    sched.check_invariants()
    cls = sched["a"]
    assert cls.rt_spec.m2 == 200.0
    assert cls.rt_requested.m2 == 200.0
    # Deadlines were re-anchored at the update time under the new slope.
    assert cls.deadline_curve is not None
    while sched.dequeue(1.0) is not None:
        pass
    sched.check_invariants()
    assert _conserved(sched)


def test_update_class_removing_rt_clears_eligible_membership():
    sched = _two_leaf()
    sched.enqueue(pkt("a", 100.0), 0.0)
    a = sched["a"]
    assert flatstate.elig_contains(a.state, a.slot)
    sched.update_class("a", 0.0, rt_sc=None, ls_sc=ServiceCurve.linear(600.0))
    assert not flatstate.elig_contains(a.state, a.slot)
    assert sched["a"].rt_spec is None
    sched.check_invariants()
    # Still served, via link-sharing.
    assert sched.dequeue(0.0).class_id == "a"


def test_update_class_adds_upper_limit_to_backlogged_leaf():
    sched = _two_leaf()
    sched.enqueue(pkt("a", 100.0), 0.0)
    sched.update_class("a", 0.0, ul_sc=ServiceCurve.linear(50.0))
    assert sched["a"] in sched._ul_wait
    sched.check_invariants()
    sched.update_class("a", 0.0, ul_sc=None)
    assert sched["a"] not in sched._ul_wait
    sched.check_invariants()


def test_update_class_validation_errors():
    sched = HFSC(1000.0)
    sched.add_class("agency", ls_sc=ServiceCurve.linear(1000.0))
    sched.add_class("leaf", "agency", sc=ServiceCurve.linear(400.0))
    with pytest.raises(ReconfigurationError) as err:
        sched.update_class("nope", 0.0, sc=ServiceCurve.linear(1.0))
    assert err.value.reason == "unknown-class"
    with pytest.raises(ReconfigurationError) as err:
        sched.update_class(
            "leaf", 0.0, sc=ServiceCurve.linear(1.0), rt_sc=ServiceCurve.linear(1.0)
        )
    assert err.value.reason == "ambiguous-curves"
    with pytest.raises(ReconfigurationError) as err:
        sched.update_class("leaf", 0.0, rt_sc=None, ls_sc=None)
    assert err.value.reason == "no-curves"
    with pytest.raises(ReconfigurationError) as err:
        sched.update_class("agency", 0.0, rt_sc=ServiceCurve.linear(1.0))
    assert err.value.reason == "rt-on-interior"
    with pytest.raises(ReconfigurationError) as err:
        sched.update_class("agency", 0.0, ls_sc=None)
    assert err.value.reason == "ls-required"
    with pytest.raises(ReconfigurationError) as err:
        sched.update_class(ROOT, 0.0, sc=ServiceCurve.linear(1.0))
    assert err.value.reason == "root"
    assert err.value.context["operation"] == "update_class"


# -- remove_class -------------------------------------------------------------


def test_remove_class_refusals_carry_context():
    sched = HFSC(1000.0)
    sched.add_class("agency", ls_sc=ServiceCurve.linear(1000.0))
    sched.add_class("leaf", "agency", sc=ServiceCurve.linear(400.0))
    sched.enqueue(pkt("leaf", 100.0), 0.0)
    with pytest.raises(ReconfigurationError) as err:
        sched.remove_class("agency")
    assert err.value.reason == "has-children"
    with pytest.raises(ReconfigurationError) as err:
        sched.remove_class("leaf")
    assert err.value.reason == "queued-packets"
    with pytest.raises(ReconfigurationError) as err:
        sched.remove_class("ghost")
    assert err.value.reason == "unknown-class"
    with pytest.raises(ReconfigurationError) as err:
        sched.remove_class(ROOT)
    assert err.value.reason == "root"


def test_force_remove_backlogged_subtree_returns_packets():
    sched = HFSC(1000.0)
    sched.add_class("agency", ls_sc=ServiceCurve.linear(500.0))
    sched.add_class("x", "agency", sc=ServiceCurve.linear(250.0))
    sched.add_class("y", "agency", sc=ServiceCurve.linear(250.0))
    sched.add_class("other", sc=ServiceCurve.linear(500.0))
    for i in range(3):
        sched.enqueue(pkt("x", 100.0), 0.0)
        sched.enqueue(pkt("y", 100.0), 0.0)
        sched.enqueue(pkt("other", 100.0), 0.0)
    served = [sched.dequeue(0.0) for _ in range(2)]
    assert all(p is not None for p in served)
    removed = sched["agency"]
    drained = sched.remove_class("agency", force=True)
    # Whole subtree went away, backlog was handed back, books balance.
    assert "agency" not in sched and "x" not in sched and "y" not in sched
    assert len(drained) + len(sched) + sched.total_dequeued == 9
    assert sched.total_returned == len(drained)
    assert _conserved(sched)
    # Dangling back-references are severed.
    assert removed.parent is None
    sched.check_invariants()
    # The surviving class still gets full service.
    rest = []
    while True:
        packet = sched.dequeue(1.0)
        if packet is None:
            break
        rest.append(packet)
    assert all(p.class_id == "other" for p in rest)
    assert _conserved(sched)


def test_force_remove_midrun_with_backlogged_siblings_on_link():
    loop = EventLoop()
    sched = _two_leaf()
    link = Link(loop, sched)
    served = []
    link.add_listener(lambda p, t: served.append(p))
    for i in range(20):
        loop.schedule(0.05 * i, link.offer, Packet("a", 100.0))
        if 0.05 * i < 0.42:  # b's source stops before its class is removed
            loop.schedule(0.05 * i, link.offer, Packet("b", 100.0))
    drained = []
    loop.schedule(0.42, lambda: drained.extend(sched.remove_class("b", force=True)))
    loop.run(until=60.0)
    assert drained, "expected b to be backlogged at removal time"
    assert all(p.class_id == "b" for p in drained)
    # Every 'a' packet was eventually served; books balance.
    assert sum(1 for p in served if p.class_id == "a") == 20
    assert _conserved(sched)
    sched.check_invariants()


def test_add_remove_add_churn_cycles_stay_clean():
    # Headroom below capacity so the churn class stays admissible.
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(400.0))
    sched.add_class("b", sc=ServiceCurve.linear(300.0))
    now = 0.0
    for cycle in range(5):
        sched.add_class("churn", sc=ServiceCurve.linear(100.0))
        sched.enqueue(pkt("churn", 50.0), now)
        sched.enqueue(pkt("a", 50.0), now)
        sched.dequeue(now)
        sched.check_invariants()
        sched.remove_class("churn", force=True)
        sched.check_invariants()
        now += 1.0
    # The name is immediately reusable and the books balance.
    assert "churn" not in sched
    assert _conserved(sched)


def test_removed_class_leaves_ul_bookkeeping_consistent():
    sched = HFSC(1000.0)
    sched.add_class("u", sc=ServiceCurve.linear(100.0), ul_sc=ServiceCurve.linear(200.0))
    sched.add_class("v", sc=ServiceCurve.linear(100.0))
    sched.enqueue(pkt("u", 50.0), 0.0)
    sched.remove_class("u", force=True)
    assert sched["v"] is not None
    assert sched.root.ul_children == 0
    sched.check_invariants()


# -- rebuild ------------------------------------------------------------------


def test_rebuild_preserves_backlog_and_serves_everything():
    sched = _two_leaf()
    for i in range(6):
        sched.enqueue(pkt("a", 100.0), 0.0)
        sched.enqueue(pkt("b", 100.0), 0.0)
    for _ in range(3):
        sched.dequeue(0.1)
    backlog_before = len(sched)
    sched.rebuild(0.5)
    assert len(sched) == backlog_before
    sched.check_invariants()
    count = 0
    while sched.dequeue(1.0) is not None:
        count += 1
    assert count == backlog_before
    assert _conserved(sched)


def test_rebuild_restores_service_after_manual_corruption():
    sched = _two_leaf()
    for i in range(4):
        sched.enqueue(pkt("a", 100.0), 0.0)
    # Corrupt a derived structure the way a hypothetical bug would: the
    # eligible set forgets the backlogged class.
    flatstate.elig_remove(sched["a"].state, sched["a"].slot)
    with pytest.raises(AssertionError):
        sched.check_invariants()
    sched.rebuild(0.2)
    sched.check_invariants()
    assert sched.dequeue(0.2).class_id == "a"


# -- set_link_rate and the overload policies ---------------------------------


def test_set_link_rate_validates_and_invalidates_admission():
    sched = _two_leaf()
    with pytest.raises(ReconfigurationError):
        sched.set_link_rate(0.0)
    sched.set_link_rate(2000.0)
    assert sched.link_rate == 2000.0
    assert sched.root.ls_spec.m2 == 2000.0


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_set_link_rate_refuses_non_finite(rate):
    sched = _two_leaf()
    before = sched.link_rate
    with pytest.raises(ReconfigurationError) as err:
        sched.set_link_rate(rate)
    assert err.value.context["reason"] == "non-finite-rate"
    assert sched.link_rate == before
    assert sched.root.ls_spec.m2 == before


def test_policy_raise_carries_structured_context():
    sched = _two_leaf()
    sched.add_class("hog", sc=ServiceCurve.linear(600.0))
    with pytest.raises(OverloadError) as err:
        sched.enqueue(pkt("a", 100.0), 0.0)
    assert err.value.capacity == 1000.0
    assert err.value.demand_rate == pytest.approx(1600.0)
    assert set(err.value.classes) == {"a", "b", "hog"}
    assert err.value.context["capacity"] == 1000.0


def test_policy_raise_triggered_by_rate_drop():
    sched = _two_leaf()
    sched.enqueue(pkt("a", 100.0), 0.0)  # fine at 1000 B/s
    sched.set_link_rate(500.0)
    with pytest.raises(OverloadError):
        sched.enqueue(pkt("a", 100.0), 0.1)


def test_policy_reject_strips_newest_and_readmits():
    sched = _two_leaf(policy="reject")
    sched.enqueue(pkt("a", 100.0), 0.0)
    sched.add_class("hog", sc=ServiceCurve.linear(500.0))
    sched.enqueue(pkt("hog", 100.0), 0.1)
    assert sched["a"].rt_admitted and sched["b"].rt_admitted
    assert not sched["hog"].rt_admitted
    assert sched.overload_events and sched.overload_events[-1]["policy"] == "reject"
    # The stripped class still gets link-sharing service.
    sched.check_invariants()
    # Capacity returns (a shrinks to 50): the next pass re-admits the hog.
    sched.update_class("a", 0.2, sc=ServiceCurve.linear(50.0))
    sched.enqueue(pkt("hog", 100.0), 0.2)
    assert sched["hog"].rt_admitted


def test_policy_scale_rt_derates_uniformly_and_restores():
    sched = _two_leaf(policy="scale-rt")
    sched.add_class("hog", sc=ServiceCurve.linear(1000.0))
    sched.enqueue(pkt("a", 100.0), 0.0)
    factor = sched.overload_events[-1]["factor"]
    assert 0.0 < factor < 1.0
    assert sched["a"].rt_spec.m2 == pytest.approx(600.0 * factor)
    assert sched["hog"].rt_spec.m2 == pytest.approx(1000.0 * factor)
    # Requests are preserved; removal restores everyone to full rate.
    assert sched["a"].rt_requested.m2 == 600.0
    sched.remove_class("hog", force=True)
    sched.enqueue(pkt("a", 100.0), 0.1)
    assert sched["a"].rt_spec.m2 == 600.0
    sched.check_invariants()


def test_policy_linkshare_only_suspends_and_resumes():
    sched = _two_leaf(policy="linkshare-only")
    sched.add_class("hog", sc=ServiceCurve.linear(1000.0))
    sched.enqueue(pkt("a", 100.0), 0.0)
    assert sched.rt_suspended
    # Service continues via the link-sharing criterion.
    assert sched.dequeue(0.0).class_id == "a"
    sched.remove_class("hog", force=True)
    sched.enqueue(pkt("a", 100.0), 0.1)
    assert not sched.rt_suspended
    sched.check_invariants()


def test_policies_conserve_packets_under_forced_churn():
    for policy in ("reject", "scale-rt", "linkshare-only"):
        sched = _two_leaf(policy=policy)
        sched.add_class("hog", sc=ServiceCurve.linear(900.0))
        now = 0.0
        for i in range(10):
            sched.enqueue(pkt("a", 100.0), now)
            sched.enqueue(pkt("hog", 100.0), now)
            sched.dequeue(now)
            now += 0.1
        sched.remove_class("hog", force=True)
        while sched.dequeue(now) is not None:
            pass
        assert _conserved(sched), policy
        sched.check_invariants()
