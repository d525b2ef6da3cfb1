"""Ablation benches for the design choices DESIGN.md calls out.

Three knobs of the H-FSC design are isolated here:

* **request-set structure** -- Section V offers an augmented tree or a
  calendar queue + heap.  H-FSC runs on flat future/ready heaps (the
  calendar variant over FlatState arrays); the two Section V structures
  survive as standalone substrates.  All three are checked equivalent by
  ``tests/test_eligible_set.py`` and timed here on one recorded request
  stream, without the scheduler around them.
* **system virtual time policy** -- Section IV-C argues for
  ``(v_min + v_max)/2``; the bench quantifies the sibling virtual-time
  spread under "mean" vs "min" vs "max" (the alternatives make the
  discrepancy grow with fan-out).
* **real-time criterion on/off** -- removing the rt criterion (pure
  hierarchical link-sharing) must destroy the deep leaf's delay bound,
  demonstrating why H-FSC needs both criteria.
"""

import random

import pytest

from repro.core import flatstate
from repro.core.curves import ServiceCurve
from repro.core.hfsc import HFSC
from repro.sim.drive import drive
from repro.sim.packet import Packet
from repro.util.eligible_set import CalendarEligibleSet
from repro.util.eligible_tree import EligibleTree


def lin(rate):
    return ServiceCurve.linear(rate)


def _request_stream(seed, n_items=32, n_serves=20_000):
    """Record a serve-shaped request stream against the augmented tree.

    Each step admits one arrival (inserting a request when its item was
    idle), queries at an advancing ``now`` and, when a request is
    eligible, serves it: re-keyed while its item stays backlogged,
    removed when it drains.  The ops are recorded once and replayed
    verbatim on every structure.
    """
    rng = random.Random(seed)
    periods = [0.002 * (1.0 + 0.013 * i) for i in range(n_items)]
    ref = EligibleTree()
    backlog = [0] * n_items
    ops = []
    now = 0.0
    for _ in range(n_serves):
        item = rng.randrange(n_items)
        if backlog[item] == 0:
            request = (item, now, now + periods[item])
            ref.insert(*request)
            ops.append(("insert",) + request)
        backlog[item] += 1
        now += rng.expovariate(1.0 / 0.0021)
        ops.append(("query", now))
        got = ref.min_deadline_eligible(now)
        if got is None:
            continue
        item, eligible, deadline = got
        backlog[item] -= 1
        if backlog[item]:
            request = (item, eligible + periods[item] / 2,
                       deadline + periods[item])
            ref.update(*request)
            ops.append(("update",) + request)
        else:
            ref.remove(item)
            ops.append(("remove", item))
    return ops


class _FlatRequests:
    """The flat kernels H-FSC calls, behind the substrates' protocol."""

    def __init__(self, n_items):
        self.state = flatstate.FlatState(n_items)
        self.slot = [self.state.alloc(item) for item in range(n_items)]

    def insert(self, item, eligible, deadline):
        flatstate.elig_insert(self.state, self.slot[item], eligible, deadline)

    def update(self, item, eligible, deadline):
        flatstate.elig_update(self.state, self.slot[item], eligible, deadline)

    def remove(self, item):
        flatstate.elig_remove(self.state, self.slot[item])

    def min_deadline_eligible(self, now):
        slot = flatstate.elig_query(self.state, now)
        return None if slot < 0 else self.state.obj[slot]


_REQUEST_SETS = {
    "tree": lambda n: EligibleTree(),
    "calendar": lambda n: CalendarEligibleSet(),
    "heap": _FlatRequests,
}


@pytest.mark.parametrize("backend", sorted(_REQUEST_SETS))
def test_eligible_backend_throughput(benchmark, backend):
    ops = _request_stream(7)

    def work():
        requests = _REQUEST_SETS[backend](32)
        answered = 0
        for op in ops:
            kind = op[0]
            if kind == "query":
                if requests.min_deadline_eligible(op[1]) is not None:
                    answered += 1
            elif kind == "insert":
                requests.insert(*op[1:])
            elif kind == "update":
                requests.update(*op[1:])
            else:
                requests.remove(op[1])
        return answered

    answered = benchmark(work)
    assert answered == sum(1 for op in ops if op[0] in ("update", "remove"))


@pytest.mark.parametrize("policy", ["mean", "min", "max"])
def test_vt_policy_sibling_spread(benchmark, policy):
    """Max spread of active siblings' virtual times under each policy."""
    n = 12
    link = 1000.0

    def work():
        sched = HFSC(link, vt_policy=policy, admission_control=False)
        for cid in range(n):
            sched.add_class(cid, ls_sc=lin(50.0 + 10.0 * cid))
        rng = random.Random(3)
        # Staggered on/off backlog so classes keep rejoining.
        for burst in range(20):
            for cid in range(n):
                if rng.random() < 0.7:
                    sched.enqueue(Packet(cid, 100.0), 0.0)
            spread = 0.0
            while len(sched):
                sched.dequeue(0.0)
                vts = list(sched.virtual_times().values())
                if len(vts) >= 2:
                    spread = max(spread, max(vts) - min(vts))
        return spread

    spread = benchmark.pedantic(work, rounds=1, iterations=1)
    benchmark.extra_info["max_vt_spread"] = spread
    print(f"\nvt_policy={policy}: max sibling vt spread = {spread:.3f}")


def test_realtime_criterion_ablation(benchmark):
    """Leaf delay with and without the rt criterion at depth 3 (E7 topo)."""
    from repro.experiments import e7_depth

    link = e7_depth.LINK
    bound = e7_depth.AUDIO_DMAX + e7_depth.CROSS_PKT / link

    def delay_with(realtime):
        sched = HFSC(link, admission_control=False, realtime=realtime)

        def add_interior(name, parent, rate):
            sched.add_class(name, parent=parent, ls_sc=lin(rate))

        def add_leaf(name, parent, rate, kind):
            if kind == "audio":
                sched.add_class(
                    name, parent=parent,
                    sc=ServiceCurve.from_delay(
                        e7_depth.AUDIO_PKT, e7_depth.AUDIO_DMAX,
                        e7_depth.AUDIO_RATE,
                    ),
                )
            else:
                sched.add_class(name, parent=parent,
                                rt_sc=lin(0.8 * rate), ls_sc=lin(rate))

        cross = e7_depth._build_topology(3, add_interior, add_leaf)
        served = drive(sched, e7_depth._arrivals(cross),
                       until=e7_depth.HORIZON + 40.0)
        return max(p.delay for p in served if p.class_id == "audio")

    def work():
        return delay_with(True), delay_with(False)

    with_rt, without_rt = benchmark.pedantic(work, rounds=1, iterations=1)
    print(f"\naudio max delay: rt on {with_rt*1e3:.2f} ms, "
          f"rt off {without_rt*1e3:.2f} ms (bound {bound*1e3:.2f} ms)")
    assert with_rt <= bound + 1e-9
    assert without_rt > bound
