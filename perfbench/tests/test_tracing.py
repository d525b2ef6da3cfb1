"""Self time is a span's duration minus the part its child spans cover."""

from tracing import Tracer


def test_self_time_on_a_synthetic_span_tree():
    now = [0]
    tracer = Tracer(clock=lambda: now[0], sample_every=1)

    def tick(ns):
        now[0] += ns

    def leaf_d():
        tick(10)

    def child_b():
        tick(5)
        d()
        tick(25)

    def child_c(n):
        tick(30)

    def root_a():
        tick(10)
        b()
        tick(10)
        c(3)
        tick(10)

    d = tracer.span("d", leaf_d)
    b = tracer.span("b", child_b)
    c = tracer.span("c", child_c, units=lambda n: n)
    a = tracer.span("a", root_a)
    a()
    a()
    totals = tracer.totals()
    assert {k: v["total_ns"] for k, v in totals.items()} == {
        "a": 200, "b": 80, "c": 60, "d": 20}
    assert {k: v["self_ns"] for k, v in totals.items()} == {
        "a": 60, "b": 60, "c": 60, "d": 20}
    assert totals["c"]["units"] == 6 and totals["c"]["count"] == 2
    assert tracer.root_ns == 200
    # Every root sampled: spans carry their causing span's id.
    by_id = {s[0]: s for s in tracer.spans}
    assert len(by_id) == 8
    for span_id, name, start, end, parent, key in tracer.spans:
        expected_parent = {"a": None, "b": "a", "c": "a", "d": "b"}[name]
        if expected_parent is None:
            assert parent is None
        else:
            assert by_id[parent][1] == expected_parent
            assert by_id[parent][2] <= start <= end <= by_id[parent][3]


def test_sampling_keeps_whole_trees_and_packet_keys():
    now = [0]
    tracer = Tracer(clock=lambda: now.__setitem__(0, now[0] + 1) or now[0],
                    sample_every=2)
    decode = tracer.span("decode", lambda data: ("f", data),
                         key_of_result=lambda r: f"{r[0]}#{r[1]}")
    classify = tracer.span("classify", lambda flow: flow)
    ingest = tracer.span("ingest", lambda data: classify(decode(data)[0]))
    for seq in range(4):
        ingest(seq)
    assert tracer.totals()["ingest"]["count"] == 4
    kept = tracer.spans
    assert len(kept) == 6            # roots 2 and 4, three spans each
    keys = {(name, key) for _, name, _, _, _, key in kept}
    assert keys == {(n, k) for n in ("decode", "ingest") for k in ("f#1", "f#3")
                    } | {("classify", "f#1"), ("classify", "f#3")}


def test_exceptions_still_close_the_span():
    tracer = Tracer(clock=iter(range(100)).__next__, sample_every=1)

    def boom():
        raise ValueError("x")

    traced = tracer.span("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    assert tracer.totals()["boom"]["count"] == 1
    assert tracer._stack == []
