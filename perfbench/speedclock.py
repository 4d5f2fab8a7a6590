"""A clock that runs at a fixed reference speed of the host.

On a shared host the same Python code runs at different speeds from one
second to the next.  On the 2-core VM this benchmark was written on
they are up to about 2x apart and switch every few seconds, on each
core on its own, so a second process cannot watch them for the
measured one.  A whole 30 s run can then land mostly on one speed or
the other, and its wall time measures the neighbours as much as the
program.

This clock samples the speed of the core it runs on: every ``PERIOD_S``
seconds a SIGALRM handler in the measured process runs a short fixed
kernel and times it.  The clock advances by wall time times
``REF_KERNEL_S`` / (median of the kernel's last ``WINDOW`` durations),
and leaves out the time spent in the kernel.  A reading is therefore in
seconds at the speed at which the kernel takes ``REF_KERNEL_S``.  It
corrects for the host's speed, not for anything the program does: the
kernel shares no code or data with it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
REF_KERNEL_S = 0.001
KERNEL_ROUNDS = 3000  # about 0.9 ms at the faster speed of the VM above
WINDOW = 3


def kernel() -> int:
    """Fixed pure-Python integer work of the kind binmat does."""
    acc, x = 0, 0x9E3779B9
    for i in range(KERNEL_ROUNDS):
        x = (x * 69069 + i) & 0xFFFFFFFF
        acc ^= x >> (x & 7)
        acc += (acc & x).bit_count()
    return acc


class SpeedClock:
    """Reference-speed clock of this process; see the module docstring.

    Use as a context manager around the timed region.  It takes the
    process's SIGALRM and interval timer while it runs.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        # (reading at the last sample, perf_counter at its end, speed
        # factor), replaced as one tuple, so that now() never sees half
        # of an update made by the handler.
        self._state = (0.0, perf_counter(), 1.0)

    def __enter__(self) -> SpeedClock:
        self._sample()
        signal.signal(signal.SIGALRM, lambda *_: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self) -> None:
        t0 = perf_counter()
        base, t, factor = self._state
        kernel()
        t1 = perf_counter()
        self.kernel_s.append(t1 - t0)
        factor_next = REF_KERNEL_S / statistics.median(self.kernel_s[-WINDOW:])
        self._state = (base + (t0 - t) * factor, t1, factor_next)

    def now(self) -> float:
        base, t, factor = self._state
        return base + (perf_counter() - t) * factor

    def speed(self) -> float:
        """REF_KERNEL_S over the kernel's median duration so far: above 1
        means the host ran faster than the reference speed."""
        return REF_KERNEL_S / statistics.median(self.kernel_s)
