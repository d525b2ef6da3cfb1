"""Each output check fires on the fault it exists to catch."""

from checks import (
    NOTICE,
    NOTICE_MAGIC,
    check_accounting,
    check_shares,
    match_notices,
    max_min_shares,
)
from workloads import Schedule, backlog_specs


def _schedule():
    s = Schedule(["a#0", "b#0"])
    for due, flow, seq in ((0.1, 0, 0), (0.2, 1, 0), (0.3, 0, 1)):
        s.due.append(due)
        s.flow.append(flow)
        s.seq.append(seq)
        s.size.append(64)
    return s


def _notice(flow, seq, sent, size=64.0, enqueued=1.0, departed=1.5):
    name = flow.encode()
    return NOTICE.pack(NOTICE_MAGIC, seq, sent, enqueued, departed, size,
                       len(name)) + name


def _all_notices():
    return [(0.15, _notice("a#0", 0, 0.1)), (0.25, _notice("b#0", 0, 0.2)),
            (0.35, _notice("a#0", 1, 0.3))]


def test_clean_notices_match_and_give_due_time_sojourn():
    s = _schedule()
    m = match_notices(s, _all_notices())
    assert m.errors == {}
    assert m.index == [0, 1, 2]
    assert [round(x, 9) for x in m.sojourns(s)] == [0.05, 0.05, 0.05]


def test_corrupted_notice_fires():
    bad = bytearray(_notice("a#0", 0, 0.1))
    bad[0:4] = b"XXXX"
    m = match_notices(_schedule(), [(0.2, bytes(bad))])
    assert m.errors == {"notice-corrupt": 1}
    m = match_notices(_schedule(), [(0.2, b"RPD1")])
    assert m.errors == {"notice-corrupt": 1}


def test_wrong_size_or_due_or_times_fire():
    s = _schedule()
    assert match_notices(s, [(0.2, _notice("a#0", 0, 0.1, size=65.0))]
                         ).errors == {"notice-size-mismatch": 1}
    assert match_notices(s, [(0.2, _notice("a#0", 0, 0.7))]
                         ).errors == {"notice-due-mismatch": 1}
    assert match_notices(s, [(0.2, _notice("a#0", 0, 0.1, departed=0.5))]
                         ).errors == {"notice-departed-before-enqueued": 1}


def test_unmatched_and_duplicate_notices_fire():
    s = _schedule()
    assert match_notices(s, [(0.2, _notice("zz#0", 0, 0.1))]
                         ).errors == {"notice-unmatched": 1}
    twice = [(0.2, _notice("a#0", 0, 0.1))] * 2
    assert match_notices(s, twice).errors == {"notice-duplicate": 1}


def test_reordered_departure_fires():
    notices = _all_notices()
    swapped = [notices[2], notices[1], notices[0]]
    m = match_notices(_schedule(), swapped)
    assert m.errors == {"notice-reordered": 1}


def test_missing_departure_fires():
    # Three sent, two notices: one read by the service but never departed.
    m = match_notices(_schedule(), _all_notices()[:2])
    assert m.errors == {}
    errors = check_accounting(sent=3, received=3, departed=2, shed=0,
                              queued=0, notices=len(m.index))
    assert errors == {"missing-departure.unaccounted": 1}
    assert check_accounting(3, 2, 2, 0, 0, 2) == {
        "missing-departure.kernel-drop": 1}
    assert check_accounting(3, 3, 3, 0, 0, 2) == {
        "missing-departure.notice-lost": 1}
    assert check_accounting(3, 3, 2, 1, 0, 2) == {}


def test_share_check_uses_hierarchical_max_min():
    specs = backlog_specs()
    leaves = [s.name for s in specs if s.name.count(".") and not any(
        o.parent == s.name for o in specs)]
    demands = {leaf: 1e9 for leaf in leaves}   # everyone over-offered
    expected = max_min_shares(specs, demands, 1e6)
    assert abs(sum(expected.values()) - 1.0) < 1e-12
    assert check_shares(expected, expected) == {}
    skewed = dict(expected)
    skewed["cmu.data"] *= 1.2
    assert "share-off.cmu.data" in check_shares(skewed, expected)


def test_kernel_drops_fail_unless_the_generator_stalled():
    from drivers import loss_failures
    from harness import Outcome

    drops = {"missing-departure.kernel-drop": 12}
    steady = Outcome()
    loss_failures(dict(drops), [0.0, 0.001, 0.002], steady)
    assert steady.errors == drops
    stalled = Outcome()
    loss_failures(dict(drops), [0.0, 0.05, 0.001], stalled)
    assert stalled.errors == {}
    assert stalled.info["kernel_drop_after_generator_stall"] == 12
    lost = Outcome()
    loss_failures({"missing-departure.notice-lost": 1}, [0.05], lost)
    assert lost.errors == {"missing-departure.notice-lost": 1}


def test_benchmark_json_names_what_the_runs_print():
    import json
    import os

    from conftest import ROOT
    from harness import END_TO_END, PER_LAYER, layer_unit

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, layer_unit(name)) for name in PER_LAYER]
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
