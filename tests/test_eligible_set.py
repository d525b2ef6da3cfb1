"""Tests for the real-time request sets: Section V's two substrates
(augmented tree, calendar queue + deadline heap) and the flat
future/ready heaps H-FSC runs on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flatstate
from repro.util.eligible_set import CalendarEligibleSet
from repro.util.eligible_tree import EligibleTree


class TestCalendarEligibleSet:
    def test_not_eligible_before_time(self):
        es = CalendarEligibleSet()
        es.insert("a", eligible=5.0, deadline=6.0)
        assert es.min_deadline_eligible(4.0) is None
        assert es.min_deadline_eligible(5.0) == ("a", 5.0, 6.0)

    def test_min_deadline_among_matured(self):
        es = CalendarEligibleSet()
        es.insert("late_deadline", eligible=0.0, deadline=10.0)
        es.insert("early_deadline", eligible=1.0, deadline=2.0)
        assert es.min_deadline_eligible(0.5)[0] == "late_deadline"
        assert es.min_deadline_eligible(1.0)[0] == "early_deadline"

    def test_remove_from_either_stage(self):
        es = CalendarEligibleSet()
        es.insert("future", eligible=10.0, deadline=20.0)
        es.insert("ready", eligible=0.0, deadline=5.0)
        es.min_deadline_eligible(1.0)  # matures "ready"
        es.remove("ready")
        es.remove("future")
        assert len(es) == 0

    def test_update(self):
        es = CalendarEligibleSet()
        es.insert("a", eligible=0.0, deadline=5.0)
        es.min_deadline_eligible(0.0)
        es.update("a", eligible=3.0, deadline=1.0)
        assert es.min_deadline_eligible(2.0) is None
        assert es.min_deadline_eligible(3.0)[0] == "a"

    def test_min_eligible(self):
        es = CalendarEligibleSet()
        assert es.min_eligible() is None
        es.insert("a", eligible=7.0, deadline=9.0)
        assert es.min_eligible() == 7.0
        es.insert("b", eligible=2.0, deadline=3.0)
        assert es.min_eligible() == 2.0

    def test_duplicate_rejected(self):
        es = CalendarEligibleSet()
        es.insert("a", 0.0, 1.0)
        with pytest.raises(ValueError):
            es.insert("a", 0.0, 1.0)

    def test_contains_len(self):
        es = CalendarEligibleSet()
        es.insert("a", 0.0, 1.0)
        assert "a" in es and "b" not in es and len(es) == 1


@st.composite
def request_streams(draw):
    """Monotone query times with interleaved inserts/removes/updates."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "update", "query"]),
                st.integers(0, 12),
                st.floats(0, 50, allow_nan=False),
                st.floats(0, 50, allow_nan=False),
            ),
            max_size=120,
        )
    )
    return ops


class TestBackendEquivalence:
    @given(request_streams())
    @settings(max_examples=150, deadline=None)
    def test_same_answers_as_tree(self, ops):
        """The tree, the calendar set and the flat kernels answer every
        query identically (modulo deadline ties, which the generator
        avoids by perturbing deadlines)."""
        tree = EligibleTree()
        cal = CalendarEligibleSet()
        flat = flatstate.FlatState(13)
        slot_of = {item: flat.alloc(item) for item in range(13)}
        now = 0.0
        members = set()
        used_deadlines = set()

        def flat_answer():
            slot = flatstate.elig_query(flat, now)
            if slot < 0:
                return None
            return flat.obj[slot], flat.req_e[slot], flat.req_d[slot]

        for op, item, eligible, deadline in ops:
            # Perturb duplicate deadlines: tie order is implementation-specific.
            while deadline in used_deadlines:
                deadline += 1e-3
            slot = slot_of[item]
            if op == "insert" and item not in members:
                tree.insert(item, eligible, deadline)
                cal.insert(item, eligible, deadline)
                flatstate.elig_insert(flat, slot, eligible, deadline)
                members.add(item)
                used_deadlines.add(deadline)
            elif op == "remove" and item in members:
                tree.remove(item)
                cal.remove(item)
                flatstate.elig_remove(flat, slot)
                members.remove(item)
            elif op == "update" and item in members:
                tree.update(item, eligible, deadline)
                cal.update(item, eligible, deadline)
                # The scheduler re-keys through both entry points:
                # elig_update on live reconfiguration, elig_requeue on serve.
                if item % 2:
                    flatstate.elig_requeue(flat, slot, eligible, deadline, now)
                else:
                    flatstate.elig_update(flat, slot, eligible, deadline)
                used_deadlines.add(deadline)
            elif op == "query":
                now += eligible / 10.0  # queries advance time monotonically
                got_tree = tree.min_deadline_eligible(now)
                assert cal.min_deadline_eligible(now) == got_tree
                assert flat_answer() == got_tree
                assert (cal.min_eligible() == tree.min_eligible()
                        == flatstate.elig_min_eligible(flat))
            flatstate.elig_check_invariants(flat)
            assert flatstate.elig_contains(flat, slot) == (item in members)
        assert len(tree) == len(cal) == flatstate.elig_len(flat) == len(members)
