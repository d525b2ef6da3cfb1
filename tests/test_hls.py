"""Unit and property tests for the HLS hierarchical round-robin backend.

Deterministic tests pin down the deficit/quantum core: weight-split
quanta, surplus-style rotation, the one-packet credit debt bound,
drained-child redistribution (the hierarchical max-min step), and live
reconfiguration (update/remove with ancestor ring fix-up).  A hypothesis
state machine mirrors the DRR one and drives random trees through random
enqueue/dequeue/reweight interleavings, checking ``check_invariants``
plus conservation and per-leaf FIFO order after every step.
"""

import random

import pytest

from repro.core.errors import ConfigurationError, ReconfigurationError
from repro.schedulers.hls import DEFAULT_QUANTUM, ROOT, HLSScheduler
from repro.sim.packet import Packet

LINK = 1000.0


def campus():
    """The Fig. 1 two-agency tree, weights in campus link percent."""
    sched = HLSScheduler(LINK, quantum=450.0)
    sched.add_class("cmu", rate=25.0)
    sched.add_class("pitt", rate=20.0)
    sched.add_class("cmu.av", parent="cmu", rate=12.0)
    sched.add_class("cmu.data", parent="cmu", rate=13.0)
    sched.add_class("pitt.av", parent="pitt", rate=12.0)
    sched.add_class("pitt.data", parent="pitt", rate=8.0)
    return sched


def flood(sched, leaves, count=40, size=100.0):
    for leaf in leaves:
        for _ in range(count):
            sched.enqueue(Packet(leaf, size), 0.0)


def serve(sched, packets):
    served = []
    for _ in range(packets):
        packet = sched.dequeue(0.0)
        assert packet is not None
        served.append(packet)
    return served


class TestConstruction:
    def test_duplicate_class_rejected(self):
        sched = HLSScheduler(LINK)
        sched.add_class("a", rate=1.0)
        with pytest.raises(ConfigurationError):
            sched.add_class("a", rate=2.0)

    def test_nonpositive_rate_rejected(self):
        sched = HLSScheduler(LINK)
        with pytest.raises(ConfigurationError):
            sched.add_class("a", rate=0.0)

    def test_unknown_parent_rejected(self):
        sched = HLSScheduler(LINK)
        with pytest.raises(ConfigurationError):
            sched.add_class("kid", parent="ghost", rate=1.0)

    def test_nonpositive_quantum_rejected(self):
        with pytest.raises(ConfigurationError):
            HLSScheduler(LINK, quantum=0.0)

    def test_cannot_grow_under_backlogged_leaf(self):
        sched = HLSScheduler(LINK)
        sched.add_class("a", rate=1.0)
        sched.enqueue(Packet("a", 50.0), 0.0)
        with pytest.raises(ConfigurationError):
            sched.add_class("a1", parent="a", rate=1.0)

    def test_quanta_split_by_weight(self):
        sched = campus()
        # Root splits 450 over 25:20; cmu splits 450 over 12:13.
        assert sched["cmu"].quantum == pytest.approx(250.0)
        assert sched["pitt"].quantum == pytest.approx(200.0)
        assert sched["cmu.av"].quantum == pytest.approx(450.0 * 12 / 25)
        assert sched["cmu.data"].quantum == pytest.approx(450.0 * 13 / 25)

    def test_default_quantum(self):
        assert HLSScheduler(LINK).quantum == DEFAULT_QUANTUM


class TestEnqueueRules:
    def test_unknown_class_rejected(self):
        sched = campus()
        with pytest.raises(ConfigurationError):
            sched.enqueue(Packet("mit", 100.0), 0.0)

    def test_interior_class_rejected(self):
        sched = campus()
        with pytest.raises(ConfigurationError):
            sched.enqueue(Packet("cmu", 100.0), 0.0)

    def test_root_rejected(self):
        sched = campus()
        with pytest.raises(ConfigurationError):
            sched.enqueue(Packet(ROOT, 100.0), 0.0)


class TestRoundRobinCore:
    def test_two_to_one_interleave(self):
        # Weights 2:1 with quantum 300 -> grants of 200/100 bytes; with
        # 100-byte packets the steady schedule is exactly a, a, b, ...
        sched = HLSScheduler(LINK, quantum=300.0)
        sched.add_class("a", rate=2.0)
        sched.add_class("b", rate=1.0)
        flood(sched, ["a", "b"], count=12)
        order = [p.class_id for p in serve(sched, 9)]
        assert order == ["a", "a", "b"] * 3

    def test_every_visit_forwards_a_packet(self):
        # Surplus style: a packet larger than the quantum still goes out
        # on the owner's visit (credit goes negative, bounded by one
        # packet), rather than stalling the ring.
        sched = HLSScheduler(LINK, quantum=100.0)
        sched.add_class("big", rate=1.0)
        sched.add_class("small", rate=1.0)
        sched.enqueue(Packet("big", 400.0), 0.0)
        sched.enqueue(Packet("small", 40.0), 0.0)
        served = serve(sched, 2)
        assert {p.class_id for p in served} == {"big", "small"}
        sched.check_invariants()

    def test_shares_track_weights_at_both_levels(self):
        sched = campus()
        flood(sched, ["cmu.av", "cmu.data", "pitt.av", "pitt.data"])
        serve(sched, 120)  # ~2.7 root rounds of 45 packets
        tol = 450.0  # one root round of slack
        assert sched.work_of("cmu") / sched.work_of("pitt") == pytest.approx(
            25 / 20, abs=tol / sched.work_of("pitt")
        )
        assert sched.work_of("cmu.av") / sched.work_of("cmu.data") == (
            pytest.approx(12 / 13, abs=tol / sched.work_of("cmu.data"))
        )

    def test_idle_sibling_surplus_stays_in_subtree(self):
        # cmu.av idle: cmu.data takes all of cmu's turn; the agency
        # split (25:20) is unchanged -- the link-sharing goal.
        sched = campus()
        flood(sched, ["cmu.data", "pitt.av", "pitt.data"])
        serve(sched, 60)  # cmu.data is served at 1.25x; keep it backlogged
        ratio = sched.work_of("cmu") / sched.work_of("pitt")
        assert ratio == pytest.approx(25 / 20, rel=0.15)
        assert sched.work_of("cmu.data") == sched.work_of("cmu")

    def test_drained_class_rejoins_with_zero_credit(self):
        sched = HLSScheduler(LINK, quantum=200.0)
        sched.add_class("a", rate=1.0)
        sched.add_class("b", rate=1.0)
        sched.enqueue(Packet("a", 50.0), 0.0)
        flood(sched, ["b"], count=4, size=100.0)
        serve(sched, 5)
        assert len(sched) == 0
        # a drained mid-round; its leftover credit must be forfeited.
        sched.enqueue(Packet("a", 50.0), 1.0)
        assert sched["a"].credit == 0.0
        sched.check_invariants()


class TestReconfiguration:
    def test_update_class_shifts_shares(self):
        sched = HLSScheduler(LINK, quantum=300.0)
        sched.add_class("a", rate=1.0)
        sched.add_class("b", rate=1.0)
        flood(sched, ["a", "b"], count=60)
        serve(sched, 20)
        base_a = sched.work_of("a")
        sched.update_class("a", rate=3.0)
        serve(sched, 40)
        gained = sched.work_of("a") - base_a
        # Post-update window: a should take ~3/4 of the 4000 bytes.
        assert gained / 4000.0 == pytest.approx(0.75, abs=0.1)
        sched.check_invariants()

    def test_update_root_rejected(self):
        with pytest.raises(ReconfigurationError):
            campus().update_class(ROOT, rate=2.0)

    def test_update_unknown_rejected(self):
        with pytest.raises(ReconfigurationError):
            campus().update_class("mit", rate=2.0)

    def test_set_link_rate(self):
        sched = campus()
        sched.set_link_rate(2000.0)
        assert sched.link_rate == 2000.0
        with pytest.raises(ReconfigurationError):
            sched.set_link_rate(0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ReconfigurationError, match="finite"):
                sched.set_link_rate(bad)
        assert sched.link_rate == 2000.0

    def test_remove_backlogged_needs_force(self):
        sched = campus()
        sched.enqueue(Packet("cmu.av", 100.0), 0.0)
        with pytest.raises(ReconfigurationError):
            sched.remove_class("cmu.av")
        with pytest.raises(ReconfigurationError):
            sched.remove_class("cmu")  # has children

    def test_force_remove_subtree_fixes_ancestors(self):
        sched = campus()
        flood(sched, ["cmu.av", "cmu.data", "pitt.av"], count=3)
        serve(sched, 2)
        before = sched.total_enqueued
        drained = sched.remove_class("cmu", force=True)
        assert {p.class_id for p in drained} <= {"cmu.av", "cmu.data"}
        assert "cmu" not in sched._classes
        assert "cmu.av" not in sched._classes
        assert sched.total_returned == len(drained)
        assert sched.total_enqueued == before
        sched.check_invariants()
        # The survivor keeps draining normally.
        remaining = serve(sched, len(sched))
        assert all(p.class_id == "pitt.av" for p in remaining)

    def test_remove_root_rejected(self):
        with pytest.raises(ReconfigurationError):
            campus().remove_class(ROOT, force=True)


# -- hypothesis state machine -------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

MAX_SIZE = 200.0


class HLSMachine(RuleBasedStateMachine):
    """Random two-level trees under random op interleavings."""

    @initialize(seed=st.integers(0, 2**32 - 1))
    def setup(self, seed):
        rng = random.Random(seed)
        self.sched = HLSScheduler(LINK, quantum=rng.uniform(80.0, 800.0))
        self.leaves = []
        for g in range(rng.randint(1, 3)):
            group = f"g{g}"
            self.sched.add_class(group, rate=rng.uniform(1.0, 9.0))
            for leaf_index in range(rng.randint(1, 3)):
                name = f"{group}.l{leaf_index}"
                self.sched.add_class(
                    name, parent=group, rate=rng.uniform(1.0, 9.0)
                )
                self.leaves.append(name)
        self.bytes_in = 0.0
        self.bytes_out = 0.0
        self.sent_uids = {name: [] for name in self.leaves}
        self.got_uids = {name: [] for name in self.leaves}

    @rule(leaf_index=st.integers(0, 8), size=st.floats(10.0, MAX_SIZE))
    def enqueue(self, leaf_index, size):
        name = self.leaves[leaf_index % len(self.leaves)]
        packet = Packet(name, size)
        self.sched.enqueue(packet, 0.0)
        self.bytes_in += size
        self.sent_uids[name].append(packet.uid)

    @rule()
    def dequeue(self):
        packet = self.sched.dequeue(0.0)
        if len(self.sched) or packet is not None:
            assert packet is not None, "work conservation violated"
        if packet is None:
            return
        self.bytes_out += packet.size
        self.got_uids[packet.class_id].append(packet.uid)

    @rule(leaf_index=st.integers(0, 8), weight=st.floats(0.5, 12.0))
    def reweight(self, leaf_index, weight):
        self.sched.update_class(
            self.leaves[leaf_index % len(self.leaves)], rate=weight
        )

    @invariant()
    def consistent(self):
        if hasattr(self, "sched"):
            self.sched.check_invariants()

    @invariant()
    def bytes_conserved(self):
        if not hasattr(self, "sched"):
            return
        assert abs(
            self.bytes_in - self.bytes_out - self.sched.backlog_bytes
        ) < 1e-6

    @invariant()
    def fifo_per_leaf(self):
        if not hasattr(self, "sched"):
            return
        for name in self.leaves:
            got = self.got_uids[name]
            assert got == self.sent_uids[name][: len(got)]


TestHLSStateMachine = HLSMachine.TestCase
TestHLSStateMachine.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)
