"""The open-loop client times each packet from its due time, not its send."""

import struct

import checks
from client import OpenLoop, build_datagrams
from workloads import Schedule


PACKET = struct.Struct("!4sIdH")   # magic, seq, sent, flow length


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class FakeSocket:
    """Sends stall the fake clock; the 'service' answers instantly."""

    def __init__(self, clock, stall_on=None, stall=0.0):
        self.clock = clock
        self.stall_on = stall_on
        self.stall = stall
        self.sent = 0
        self.inbox = []

    def sendto(self, data, dest):
        if self.sent == self.stall_on:
            self.clock.t += self.stall
        self.sent += 1
        _, seq, due, flen = PACKET.unpack_from(data)
        name = data[18:18 + flen]
        self.inbox.append(checks.NOTICE.pack(
            checks.NOTICE_MAGIC, seq, due, 1.0, 1.0, float(len(data)),
            len(name)) + name)

    def recv(self, n):
        if not self.inbox:
            raise BlockingIOError
        return self.inbox.pop(0)


def _schedule():
    s = Schedule(["a#0"])
    for k, due in enumerate((0.010, 0.020, 0.030)):
        s.due.append(due)
        s.flow.append(0)
        s.seq.append(k)
        s.size.append(64)
    return s


def _run(stall_on=None, stall=0.0):
    clock = FakeClock()
    sock = FakeSocket(clock, stall_on, stall)

    def wait(readers, timeout):
        if sock.inbox:
            return [sock]           # readable: select returns at once
        clock.t += timeout          # else sleep exactly until the deadline
        return []

    sched = _schedule()
    loop = OpenLoop(sock, None, sched.due, build_datagrams(sched),
                    clock=clock, wait=wait)
    loop.run(t0=0.0, end=0.05)
    matched = checks.match_notices(sched, loop.receipts)
    assert matched.errors == {}
    return loop, matched.sojourns(sched)


def test_no_stall_means_zero_lateness_and_zero_sojourn():
    loop, sojourn = _run()
    assert loop.late == [0.0, 0.0, 0.0]
    assert [round(s, 12) for s in sojourn] == [0.0, 0.0, 0.0]


def test_a_generator_stall_counts_against_every_delayed_packet():
    # Sending packet 0 stalls the client for 25 ms: packets 1 and 2 go out
    # late, and their sojourn counts from when they were due.
    loop, sojourn = _run(stall_on=0, stall=0.025)
    assert [round(x, 12) for x in loop.late] == [0.0, 0.015, 0.005]
    assert [round(s, 12) for s in sojourn] == [0.025, 0.015, 0.005]
