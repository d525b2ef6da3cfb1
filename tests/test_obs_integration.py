"""Telemetry end-to-end: observation must never perturb scheduling.

The load-bearing property of the whole subsystem: every tap is read-only
and the sampler's periodic ticks, though they interleave with scheduling
events, only observe.  Golden-schedule digests therefore must be
byte-identical with telemetry enabled (sampler attached, flight recorder
filling) and disabled.  Also covers the chaos integration (watchdog
findings land in the flight recorder, ``to_report`` grows a telemetry
section) and the ``repro stats`` / ``repro top`` surfaces.
"""

import io
import json

import pytest

from repro.__main__ import main as cli_main
from repro.obs import Sampler, build_scenario, render_top, run_top
from repro.obs.core import TELEMETRY, telemetry_session
from repro.sim.faults import prepare_chaos, run_chaos
from tests.golden_scenarios import SCENARIOS, load_golden, schedule_digest


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


# -- the zero-perturbation contract ------------------------------------------


@pytest.mark.parametrize("name", ["e4_phases", "ul_caps", "eventloop_mixed"])
def test_golden_digests_unchanged_with_telemetry_on(name):
    golden = load_golden()
    with telemetry_session():
        rows = SCENARIOS[name]()
    assert schedule_digest(rows) == golden[name]["heap"], (
        f"telemetry taps changed the {name!r} schedule -- a tap point "
        "must have perturbed a scheduling decision"
    )
    # ...and the taps actually fired.
    assert TELEMETRY.per_class, "telemetry recorded nothing during the run"


def test_chaos_digest_identical_with_telemetry_and_sampler():
    baseline = run_chaos(11, duration=0.8).schedule_digest()
    with telemetry_session():
        scenario = prepare_chaos(11, duration=0.8)
        Sampler(scenario.loop, scheduler=scenario.scheduler,
                link=scenario.link, period=0.05, until=0.8)
        scenario.run()
        result = scenario.finish()
    assert result.schedule_digest() == baseline, (
        "sampler ticks or telemetry taps perturbed the chaos schedule"
    )


# -- chaos integration -------------------------------------------------------


def test_chaos_findings_land_in_flight_recorder():
    with telemetry_session(record_packets=False):
        result = run_chaos(5, duration=1.0)
        report = result.to_report()
        kinds = {event[1] for event in TELEMETRY.recorder.tail()}
    # The canned scenario always applies rate faults and churn.
    assert "rate-change" in kinds
    assert "reconfig" in kinds
    # Every watchdog finding has a matching flight-recorder event.
    violation_events = [
        e for e in report["telemetry"]["flight_recorder"]
        if e["kind"] == "violation"
    ]
    assert len(violation_events) >= len(report["violations"]) - 1 or (
        not result.watchdog.reports
    )
    assert "telemetry" in report
    assert report["telemetry"]["counters"]
    json.dumps(report)  # the full report stays JSON-clean


def test_chaos_report_has_no_telemetry_section_when_disabled():
    result = run_chaos(5, duration=0.5)
    assert "telemetry" not in result.to_report()


def test_prepare_chaos_matches_run_chaos():
    direct = run_chaos(3, duration=0.6)
    scenario = prepare_chaos(3, duration=0.6)
    scenario.run()
    staged = scenario.finish()
    assert staged.schedule_digest() == direct.schedule_digest()
    assert staged.conservation() == direct.conservation()


# -- live surfaces -----------------------------------------------------------


def test_run_top_renders_frames():
    buf = io.StringIO()
    with telemetry_session():
        scenario = build_scenario("chaos", seed=2, duration=0.5)
        frames = run_top(scenario, refresh=0.1, out=buf, ansi=False)
        result = scenario.finish()
    assert frames == 5
    text = buf.getvalue()
    assert "repro top" in text
    assert "CLASS" in text and "P99(ms)" in text
    assert "rt1" in text
    assert result.conservation()["ok"]


def test_render_top_without_traffic():
    with telemetry_session():
        scenario = build_scenario("e4", duration=1.0)
        sampler = Sampler(scenario.loop, scheduler=scenario.scheduler,
                          link=scenario.link, period=0.1)
        frame = render_top(sampler, scenario.loop,
                           scheduler=scenario.scheduler, link=scenario.link)
    assert "t=0.000s" in frame


def test_stats_cli_json(tmp_path, capsys):
    out = tmp_path / "stats.json"
    rc = cli_main(["stats", "--scenario", "e4", "--duration", "0.5",
                   "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["classes"]
    assert not TELEMETRY.enabled  # the CLI session cleaned up


def test_stats_cli_prometheus_and_csv(tmp_path, capsys):
    prom = tmp_path / "metrics.prom"
    rc = cli_main(["stats", "--scenario", "chaos", "--duration", "0.4",
                   "--format", "prometheus", "--output", str(prom)])
    assert rc == 0
    assert "# TYPE repro_enqueued_packets_total counter" in prom.read_text()
    csv_path = tmp_path / "series.csv"
    rc = cli_main(["stats", "--scenario", "e4", "--duration", "0.4",
                   "--format", "csv", "--output", str(csv_path)])
    assert rc == 0
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("time,class_id,rate_bps")
    capsys.readouterr()
