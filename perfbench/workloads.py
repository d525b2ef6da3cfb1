"""Workload definitions: class trees, flows and seeded arrival schedules.

Everything here is a pure function of the workload name and the seed, so
the same seed always yields the same inputs.  The service only ever sees
what these functions generate.  Why each workload exists is written down
in ``README.md`` next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.curves import ServiceCurve
from repro.core.hierarchy import FIGURE1_LINK_RATE, ClassSpec, figure1_hierarchy
from repro.serve.hierarchy import hierarchy_preset, leaf_names

WORKLOADS = ("udp-small", "udp-backlog-ctl")

#: The Fig. 1 real-time sessions whose delay the paper decouples from rate.
LECTURE_LEAVES = ("cmu.audio.lecture", "cmu.video.lecture")

# -- udp-small ----------------------------------------------------------------

SMALL_LINK_RATE = 1e9          # B/s: the simulated link never queues
SMALL_FLOWS_PER_LEAF = 8       # 8 leaves x 8 = 64 flows
SMALL_SIZE = 64                # bytes per datagram
SMALL_STEADY_PPS = 2_500.0     # an eighth of saturation on a 2-core host
SMALL_OVERLOAD_PPS = 40_000.0  # about twice saturation

# -- udp-backlog-ctl ------------------------------------------------------------

BACKLOG_LINK_RATE = 0.6e6      # B/s: offered bytes ~1.45x this link
BACKLOG_FLOWS_PER_LEAF = 8
AUDIO_SIZE = 64
BULK_SIZES = (512, 1400)       # uniform, inclusive, for video and data leaves
AUDIO_DMAX = 0.005             # lecture audio: 64 B within 5 ms (Fig. 7a)
VIDEO_DMAX = 0.01              # lecture video: a 1400 B packet within 10 ms
#: Offered bytes as a multiple of each leaf's Fig. 1 rate: lecture and
#: audio leaves below their curves, data leaves far over theirs.
BACKLOG_OFFER = {
    "cmu.audio.lecture": 0.5,
    "cmu.audio.other": 0.25,
    "cmu.video.lecture": 0.5,
    "cmu.video.other": 0.8,
    "cmu.data": 2.0,
    "pitt.audio": 0.25,
    "pitt.video": 1.2,
    "pitt.data": 2.0,
}

@dataclass
class Schedule:
    """An open-loop send schedule: parallel lists, ordered by due time."""

    flows: List[str]
    due: List[float] = field(default_factory=list)    # seconds after start
    flow: List[int] = field(default_factory=list)     # index into flows
    seq: List[int] = field(default_factory=list)
    size: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.due)


def _flows(leaves: Sequence[str], per_leaf: int) -> List[str]:
    return [f"{leaf}#{k}" for leaf in leaves for k in range(per_leaf)]


def poisson_schedule(
    rng: random.Random,
    start: float,
    stop: float,
    rates: Sequence[float],
    sizes,
    out: Schedule,
    next_seq: List[int],
) -> None:
    """Append a merged Poisson schedule to ``out``.

    ``rates[i]`` is flow ``i``'s mean packet rate; ``sizes(i, rng)`` gives
    a packet's size.  The aggregate is one Poisson process whose packets
    pick their flow in proportion to the rates, which is the same as
    merging independent per-flow Poisson processes.
    """
    total = sum(rates)
    cumulative = []
    acc = 0.0
    for rate in rates:
        acc += rate
        cumulative.append(acc)
    t = start
    while True:
        t += rng.expovariate(total)
        if t >= stop:
            return
        pick = rng.random() * total
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < pick:
                lo = mid + 1
            else:
                hi = mid
        out.due.append(t)
        out.flow.append(lo)
        out.seq.append(next_seq[lo])
        next_seq[lo] += 1
        out.size.append(sizes(lo, rng))


# -- trees ----------------------------------------------------------------------


def small_specs() -> List[ClassSpec]:
    return hierarchy_preset("campus", SMALL_LINK_RATE)


def backlog_specs() -> List[ClassSpec]:
    """Fig. 1 with concave lecture curves built as E5 builds them.

    The concave fronts need burst headroom that the linear Fig. 1 split
    does not leave (its leaves sum to 44.964 of 45 Mbit/s), so, as in E5,
    it comes out of the bulk class's real-time reservation: ``cmu.data``
    keeps its Fig. 1 link-sharing curve but its real-time curve shrinks by
    the lecture curves' burst excess plus 1% of the link.
    """
    scale = BACKLOG_LINK_RATE / FIGURE1_LINK_RATE
    mbit = 1e6 / 8 * scale
    audio = ServiceCurve.from_delay(AUDIO_SIZE, AUDIO_DMAX, 0.064 * mbit)
    video = ServiceCurve.from_delay(BULK_SIZES[1], VIDEO_DMAX, 8.0 * mbit)
    excess = (audio.m1 - audio.m2) + (video.m1 - video.m2)
    specs = []
    for spec in figure1_hierarchy(BACKLOG_LINK_RATE, audio_sc=audio, video_sc=video):
        if spec.name == "cmu.data":
            rate = spec.sc.m2
            spec = ClassSpec(
                "cmu.data", parent=spec.parent,
                rt_sc=ServiceCurve.linear(rate - excess - 0.01 * BACKLOG_LINK_RATE),
                ls_sc=ServiceCurve.linear(rate),
            )
        specs.append(spec)
    return specs


def leaf_rate(spec: ClassSpec) -> float:
    """A leaf's long-term (link-sharing) rate."""
    curve = spec.ls_sc if spec.ls_sc is not None else spec.sc
    return curve.m2


# -- schedules ----------------------------------------------------------------------


def small_schedule(seed: int, steady: Tuple[float, float],
                   overload: Tuple[float, float]) -> Schedule:
    """64 flows of 64 B datagrams: a steady phase, then an overload phase."""
    rng = random.Random(f"udp-small/{seed}")
    flows = _flows(leaf_names(small_specs()), SMALL_FLOWS_PER_LEAF)
    out = Schedule(flows)
    seqs = [0] * len(flows)
    for (start, stop), pps in ((steady, SMALL_STEADY_PPS),
                               (overload, SMALL_OVERLOAD_PPS)):
        rates = [pps / len(flows)] * len(flows)
        poisson_schedule(rng, start, stop, rates,
                         lambda i, r: SMALL_SIZE, out, seqs)
    return out


def backlog_offer() -> Dict[str, float]:
    """Offered bytes per second for each leaf of the backlog tree."""
    specs = {s.name: s for s in backlog_specs()}
    return {leaf: BACKLOG_OFFER[leaf] * leaf_rate(specs[leaf])
            for leaf in BACKLOG_OFFER}


def is_audio(leaf: str) -> bool:
    return ".audio" in leaf


def backlog_schedule(seed: int, stop: float) -> Schedule:
    rng = random.Random(f"udp-backlog-ctl/{seed}")
    leaves = leaf_names(backlog_specs())
    flows = _flows(leaves, BACKLOG_FLOWS_PER_LEAF)
    offer = backlog_offer()
    mean_bulk = (BULK_SIZES[0] + BULK_SIZES[1]) / 2.0
    rates = []
    for flow in flows:
        leaf = flow.rpartition("#")[0]
        mean = AUDIO_SIZE if is_audio(leaf) else mean_bulk
        rates.append(offer[leaf] / mean / BACKLOG_FLOWS_PER_LEAF)
    audio = [is_audio(flow.rpartition("#")[0]) for flow in flows]

    def size(i: int, r: random.Random) -> int:
        return AUDIO_SIZE if audio[i] else r.randint(*BULK_SIZES)

    out = Schedule(flows)
    poisson_schedule(rng, 0.0, stop, rates, size, out, [0] * len(flows))
    return out
