"""Golden-trace equivalence: the hot path must not change schedules.

Complements ``tests/test_golden_schedules.py`` (tiny hand-verified
orderings) with full-scenario digests: the values in
``tests/golden/golden_schedules.json`` were produced by the seed
implementation, before the tuple event loop, the link busy-serve fast path
and the heap-order link-sharing descent landed.  Every scenario is replayed
through H-FSC's one request-set path; a digest mismatch means the packet
ordering or a departure timestamp changed -- i.e. an "optimization" altered
scheduling semantics.  See ``tests/golden_scenarios.py`` for the scenario
definitions and how to regenerate the file when a schedule change is
*intended*.
"""

import pytest

from tests.golden_scenarios import (
    DIGEST_COLUMNS,
    SCENARIOS,
    load_golden,
    schedule_digest,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("column", DIGEST_COLUMNS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_seed(golden, name, column):
    """Byte-identical replay: digest equals the seed implementation's."""
    rows = SCENARIOS[name]()
    assert rows, f"scenario {name!r} produced no departures"
    assert schedule_digest(rows) == golden[name][column], (
        f"schedule for {name!r} diverged from the seed implementation -- "
        "the hot path changed packet ordering or departure timestamps"
    )


@pytest.mark.parametrize("column", DIGEST_COLUMNS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_seed_batching_off(golden, name, column, monkeypatch):
    """The batch entry points are pure amortizations, not semantics.

    Forcing every batched call through the per-packet base-class loops
    replays the exact pinned schedules -- so batching on vs off cannot
    change a digest anywhere in the suite.
    """
    from repro.core.hfsc import HFSC
    from repro.schedulers.base import Scheduler

    monkeypatch.setattr(HFSC, "enqueue_batch", Scheduler.enqueue_batch)
    monkeypatch.setattr(HFSC, "dequeue_batch", Scheduler.dequeue_batch)
    rows = SCENARIOS[name]()
    assert schedule_digest(rows) == golden[name][column], (
        f"schedule for {name!r} changed when the batched entry points "
        "were disabled"
    )
