"""The open-loop client: one UDP socket plus at most one control connection.

Every datagram is built before the clock starts, carrying its *due* time
(seconds after the start) in the wire ``sent`` field.  The service echoes
that field in the departure notice, so a notice's sojourn is
``receipt - due``: a generator stall counts against every packet it
delays instead of hiding.  Between sends the client blocks in ``select``
on its sockets, so it does not take a core by spinning.
"""

from __future__ import annotations

import gc
import json
import select
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.serve.wire import encode_packet

from workloads import Schedule


def build_datagrams(schedule: Schedule) -> List[bytes]:
    flows = schedule.flows
    return [
        encode_packet(flows[f], seq, due, size)
        for due, f, seq, size in zip(schedule.due, schedule.flow,
                                     schedule.seq, schedule.size)
    ]


class ControlLoop:
    """A closed-loop control connection cycling through a fixed op mix.

    The next op goes out once the previous reply is in and at least
    ``period`` seconds after the previous op was sent.  ``make_op(i)``
    returns the i-th request.
    """

    def __init__(self, path: str, make_op: Callable[[int], Dict[str, Any]],
                 period: float, start: float, stop: float):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.make_op = make_op
        self.period = period
        self.stop = stop
        self.next_at = start
        self.index = 0
        self.pending: Optional[tuple] = None   # (op, sent_at)
        self.buf = b""
        #: (request, sent_at, round trip seconds, response doc)
        self.done: List[tuple] = []

    def fileno(self) -> int:
        return self.sock.fileno()

    def due(self) -> Optional[float]:
        if self.pending is not None or self.next_at >= self.stop:
            return None
        return self.next_at

    def send(self, now: float) -> None:
        request = self.make_op(self.index)
        self.index += 1
        self.sock.setblocking(True)
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        self.sock.setblocking(False)
        self.pending = (request, now)
        self.next_at = max(now, self.next_at) + self.period

    def on_readable(self, now: float) -> None:
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        if not chunk:
            raise ConnectionError("control connection closed by the service")
        self.buf += chunk
        while b"\n" in self.buf and self.pending is not None:
            line, self.buf = self.buf.split(b"\n", 1)
            request, sent_at = self.pending
            self.pending = None
            self.done.append((request, sent_at, now - sent_at, json.loads(line)))

    def close(self) -> None:
        self.sock.close()


class OpenLoop:
    """Send pre-built datagrams on schedule; collect notices as they come.

    ``clock`` and ``wait`` are injectable so the timing logic can be run
    against a fake clock; ``wait(readers, timeout)`` returns the readable
    subset, like ``select.select`` does.
    """

    def __init__(self, sock: Any, dest: Any, due: Sequence[float],
                 datagrams: Sequence[bytes],
                 clock: Callable[[], float] = time.perf_counter,
                 wait: Optional[Callable[[list, float], list]] = None,
                 control: Optional[ControlLoop] = None):
        self.sock = sock
        self.dest = dest
        self.due = due
        self.datagrams = datagrams
        self.clock = clock
        self.wait = wait or (lambda r, t: select.select(r, [], [], t)[0])
        self.control = control
        #: Per datagram: how late it went out against its due time.
        self.late: List[float] = []
        #: (receipt time after start, raw notice bytes)
        self.receipts: List[tuple] = []
        self.send_errors = 0

    def run(self, t0: float, end: float) -> None:
        """Send everything, then keep receiving until ``t0 + end``.

        The cyclic garbage collector is off meanwhile: a full collection
        over the pre-built datagrams and the receipts would stall the
        sender for tens of milliseconds and release a burst afterwards.
        """
        gc.collect()
        gc.disable()
        try:
            self._run(t0, end)
        finally:
            gc.enable()

    def _run(self, t0: float, end: float) -> None:
        clock, sock, dest = self.clock, self.sock, self.dest
        due, datagrams = self.due, self.datagrams
        late, control = self.late, self.control
        readers = [sock] + ([control] if control is not None else [])
        i, n = 0, len(due)
        while True:
            now = clock() - t0
            while i < n and due[i] <= now:
                try:
                    sock.sendto(datagrams[i], dest)
                except (BlockingIOError, InterruptedError):
                    break  # send buffer full: retry after the next wait
                except OSError:
                    self.send_errors += 1
                late.append(now - due[i])
                i += 1
                now = clock() - t0
            if control is not None and control.due() is not None \
                    and control.due() <= now:
                control.send(now)
            if now >= end and i >= n:
                break
            wake = due[i] if i < n else end
            if control is not None and control.due() is not None:
                wake = min(wake, control.due())
            ready = self.wait(readers, max(0.0, wake - now))
            if sock in ready:
                self._drain(t0)
            if control is not None and control in ready:
                control.on_readable(clock() - t0)

    def _drain(self, t0: float) -> None:
        clock, recv, out = self.clock, self.sock.recv, self.receipts
        while True:
            try:
                data = recv(2048)
            except (BlockingIOError, InterruptedError):
                return
            out.append((clock() - t0, data))
