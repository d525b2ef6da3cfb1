"""Golden-schedule scenarios: recorded workloads with pinned packet orderings.

The hot-path optimizations (tuple event loop, link busy-serve draining,
heap-order link-sharing descent, curve-inverse caching) are required to be
*byte-identical* refactorings: every scenario here produces the exact same
packet schedule -- class, size, departure time bit-for-bit -- before and
after.  ``tests/golden/golden_schedules.json`` pins SHA-256 digests of the
schedules produced by the seed implementation, one ``"heap"`` column per
scenario (named after H-FSC's flat request heaps);
``tests/test_golden_traces.py`` replays every scenario and asserts the
digests still match.

The workload *setups* live in :mod:`repro.persist.scenarios` and are shared
with the crash/resume harness, so crash-equivalence (crash -> restore ->
continue produces the same digest) is asserted against exactly the
schedules pinned here.  :func:`schedule_digest` likewise comes from
:mod:`repro.persist.harness`.

Scenarios deliberately avoid exact deadline / virtual-time ties: tie-break
order is the one place a reimplementation of the selection loops may
legitimately differ, so rates are perturbed per class the same way
``tests/test_hfsc_extensions.py`` does.

Regenerate the golden file (only when a schedule change is *intended*)::

    PYTHONPATH=src python -m tests.golden_scenarios --write
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Tuple

from repro.persist.harness import schedule_digest  # re-export for tests
from repro.persist.scenarios import (
    DRIVE_SETUPS,
    RUNTIME_SETUPS,
    drr_leaves_setup,
    e4_phases_setup,
    e5_decoupling_setup,
    eventloop_mixed_context,
    hls_campus_setup,
    rt_only_setup,
    ul_caps_setup,
)
from repro.sim.drive import drive
from repro.sim.packet import Packet

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_schedules.json")

# Digest columns per scenario in the golden file; the digest tests
# parametrize over them.
DIGEST_COLUMNS = ("heap",)

__all__ = [
    "DIGEST_COLUMNS", "GOLDEN_PATH", "SCENARIOS", "schedule_digest",
    "compute_digests", "load_golden",
]


def _served_rows(served: List[Packet]) -> List[Tuple[Any, float, float, Any]]:
    return [(p.class_id, p.size, p.departed, p.via_realtime) for p in served]


def _drive_scenario(setup) -> Callable[[], List[Tuple[Any, float, float, Any]]]:
    def runner() -> List[Tuple[Any, float, float, Any]]:
        sched, arrivals, until = setup()
        return _served_rows(drive(sched, arrivals, until=until))

    return runner


def eventloop_mixed() -> List[Tuple[Any, float, float, Any]]:
    """Full event-driven run: EventLoop + Link + stochastic sources."""
    ctx, until = eventloop_mixed_context()
    ctx.loop.run(until=until)
    return [
        (r.class_id, r.size, r.departed, r.via_realtime)
        for r in ctx.component("recorder").records
    ]


SCENARIOS: Dict[str, Callable[[], List[Tuple[Any, float, float, Any]]]] = {
    "e4_phases": _drive_scenario(e4_phases_setup),
    "e5_decoupling": _drive_scenario(e5_decoupling_setup),
    "ul_caps": _drive_scenario(ul_caps_setup),
    "rt_only": _drive_scenario(rt_only_setup),
    "hls_campus": _drive_scenario(hls_campus_setup),
    "drr_leaves": _drive_scenario(drr_leaves_setup),
    "eventloop_mixed": eventloop_mixed,
}

assert set(SCENARIOS) == set(DRIVE_SETUPS) | set(RUNTIME_SETUPS)


def compute_digests() -> Dict[str, Dict[str, str]]:
    return {
        name: {"heap": schedule_digest(builder())}
        for name, builder in SCENARIOS.items()
    }


def load_golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def main(argv: List[str] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="regenerate the golden digest file")
    args = parser.parse_args(argv)
    digests = compute_digests()
    print(json.dumps(digests, indent=2))
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
