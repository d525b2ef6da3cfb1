"""Output checks.  Each failed check is reported by name.

Notices are decoded here with the wire layout written out again, not
with the program's own decoder, so a fault shared by the encoder and the
decoder cannot hide.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.fairness import hierarchical_max_min

from workloads import Schedule

# magic, seq, sent, enqueued, departed, size, flen (network byte order)
NOTICE = struct.Struct("!4sIddddH")
NOTICE_MAGIC = b"RPD1"


class Matched:
    """Notices matched to the packets they answer."""

    def __init__(self) -> None:
        self.index: List[int] = []        # packet index into the schedule
        self.receipt: List[float] = []    # seconds after start
        self.departed: List[float] = []   # simulated departure time
        self.errors: Dict[str, int] = {}

    def fail(self, name: str, count: int = 1) -> None:
        if count:
            self.errors[name] = self.errors.get(name, 0) + count

    def sojourns(self, schedule: Schedule) -> List[float]:
        """Wall sojourn per notice: receipt minus the packet's due time."""
        due = schedule.due
        return [r - due[i] for i, r in zip(self.index, self.receipt)]


def match_notices(schedule: Schedule,
                  receipts: Sequence[Tuple[float, bytes]]) -> Matched:
    """Match each notice to exactly one sent ``(flow, seq)`` and check it.

    A notice must decode, name a packet that was sent and not yet
    answered, echo that packet's due time and size, depart no earlier
    than it was enqueued, and come after every earlier notice of its
    flow in ``seq`` order.
    """
    flow_ids = {name: i for i, name in enumerate(schedule.flows)}
    by_flow: List[List[int]] = [[] for _ in schedule.flows]
    for i, f in enumerate(schedule.flow):
        by_flow[f].append(i)     # seq k of flow f is by_flow[f][k]
    answered = bytearray(len(schedule))
    last_seq = [-1] * len(schedule.flows)
    out = Matched()
    for receipt, data in receipts:
        if len(data) < NOTICE.size:
            out.fail("notice-corrupt")
            continue
        magic, seq, sent, enqueued, departed, size, flen = NOTICE.unpack_from(data)
        end = NOTICE.size + flen
        if magic != NOTICE_MAGIC or len(data) != end:
            out.fail("notice-corrupt")
            continue
        try:
            f = flow_ids.get(data[NOTICE.size:end].decode("utf-8"))
        except UnicodeDecodeError:
            f = None
        if f is None or seq >= len(by_flow[f]):
            out.fail("notice-unmatched")
            continue
        i = by_flow[f][seq]
        if answered[i]:
            out.fail("notice-duplicate")
            continue
        answered[i] = 1
        if sent != schedule.due[i]:
            out.fail("notice-due-mismatch")
        if size != schedule.size[i]:
            out.fail("notice-size-mismatch")
        if not departed >= enqueued:
            out.fail("notice-departed-before-enqueued")
        if seq <= last_seq[f]:
            out.fail("notice-reordered")
        last_seq[f] = seq
        out.index.append(i)
        out.receipt.append(receipt)
        out.departed.append(departed)
    return out


def check_accounting(sent: int, received: int, departed: int, shed: int,
                     queued: int, notices: int) -> Dict[str, int]:
    """Every datagram sent is a notice or a counted edge-buffer shed.

    Returns the failures by name: datagrams the kernel dropped before
    the service read them, datagrams the service read but neither
    departed nor shed, and departures whose notice never arrived.
    """
    errors = {
        "missing-departure.kernel-drop": sent - received,
        "missing-departure.unaccounted": received - departed - shed - queued,
        "missing-departure.notice-lost": departed - notices,
    }
    return {name: n for name, n in errors.items() if n}


def max_min_shares(specs: Sequence[Any], demands: Mapping[str, float],
                   capacity: float) -> Dict[str, float]:
    """Expected byte share of each leaf under hierarchical max-min.

    Weights are the classes' long-term link-sharing rates, demands the
    bytes each leaf was actually offered per second.
    """
    tree = []
    for spec in specs:
        curve = spec.ls_sc if spec.ls_sc is not None else spec.sc
        tree.append((spec.name, spec.parent, curve.m2))
    alloc = hierarchical_max_min(capacity, tree, demands)
    total = sum(alloc[leaf] for leaf in demands)
    return {leaf: alloc[leaf] / total for leaf in demands}


def check_shares(measured: Mapping[str, float],
                 expected: Mapping[str, float]) -> Dict[str, int]:
    """Each share within ``max(0.05 * expected, 0.002)`` of its target."""
    errors = {}
    for leaf, want in expected.items():
        got = measured.get(leaf, 0.0)
        if abs(got - want) > max(0.05 * want, 0.002):
            errors[f"share-off.{leaf}"] = 1
    return errors
