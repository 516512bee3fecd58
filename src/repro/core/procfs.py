"""The /proc/ktau interface.

KTAU exposes two entries, ``/proc/ktau/profile`` and ``/proc/ktau/trace``.
The interface is deliberately *session-less*: a profile read requires first
a call to determine the profile size and then another call to retrieve the
data into a caller-allocated buffer.  No state is saved between calls even
though the profile may grow in between — the design avoids kernel-side
resource leaks from misbehaving clients.  Consequently a read with a buffer
sized by an earlier ``size`` call can come back *truncated*, and clients
(libKtau) must detect that and retry with a larger buffer.  Tests exercise
this race explicitly.
"""

from __future__ import annotations

from typing import Optional

from repro.core.measurement import Ktau
from repro.core import wire


class KtauProcTransientError(RuntimeError):
    """A /proc/ktau call failed transiently (an ``-EAGAIN`` analog).

    Raised only while a fault injector holds :attr:`KtauProcFS.failing`
    up; clients (KTAUD) are expected to retry with backoff under a
    :class:`~repro.core.retry.RetryPolicy` rather than crash.
    """


class KtauProcFS:
    """In-simulation stand-in for the two /proc/ktau files.

    All methods are stateless with respect to previous calls, mirroring the
    session-less kernel interface.  ``pids=None`` selects all processes
    (libKtau's ``all`` mode); a list selects specific processes (``self`` /
    ``other`` modes).
    """

    def __init__(self, ktau: Ktau):
        self._ktau = ktau
        #: fault-injection switch: while True every data call raises
        #: :class:`KtauProcTransientError`.  Flipped by scheduled engine
        #: events (:mod:`repro.faults`), never read from wall clocks, so
        #: faulted runs stay deterministic.  Always False when no fault
        #: plan is armed — the check is a single attribute test.
        self.failing = False

    def _check_transient(self) -> None:
        if self.failing:
            raise KtauProcTransientError("/proc/ktau transiently unavailable")

    # ------------------------------------------------------------------
    # /proc/ktau/profile
    # ------------------------------------------------------------------
    def profile_size(self, pids: Optional[list[int]] = None,
                     include_zombies: bool = False) -> int:
        """First call of the protocol: current packed size in bytes.

        The value is only advisory — the profile may grow before the
        subsequent read.
        """
        self._check_transient()
        snap = self._ktau.snapshot(pids, include_zombies=include_zombies)
        return len(wire.pack_profiles(snap, self._ktau.registry))

    def profile_read(self, bufsize: int, pids: Optional[list[int]] = None,
                     include_zombies: bool = False) -> tuple[bytes, int]:
        """Second call: copy up to ``bufsize`` bytes of the *current* profile.

        Returns ``(data, full_size)``; ``len(data) < full_size`` signals a
        truncated read (the profile grew since the size call) and the
        client must retry.
        """
        self._check_transient()
        snap = self._ktau.snapshot(pids, include_zombies=include_zombies)
        packed = wire.pack_profiles(snap, self._ktau.registry)
        return packed[:bufsize], len(packed)

    # ------------------------------------------------------------------
    # /proc/ktau/trace
    # ------------------------------------------------------------------
    def trace_size(self, pid: int) -> int:
        """Packed size of ``pid``'s currently buffered trace records."""
        self._check_transient()
        data = self._task_data(pid)
        if data is None or data.trace is None:
            return 0
        trace = data.trace
        return wire.trace_size(len(trace), trace.event_ids(),
                               self._ktau.registry)

    def trace_read(self, pid: int, bufsize: int) -> tuple[bytes, int]:
        """Drain and return ``pid``'s trace buffer (destructive read).

        If the packed drain exceeds ``bufsize`` the *entire* drain is still
        consumed but only ``bufsize`` bytes are returned — records beyond
        the buffer are lost, as with any fixed buffer handed to the kernel.
        The full size is returned so clients can detect the loss.
        """
        self._check_transient()
        data = self._task_data(pid)
        if data is None or data.trace is None:
            return b"", 0
        packed = wire.pack_trace(pid, data.trace.lost_count,
                                 data.trace.drain(), self._ktau.registry)
        return packed[:bufsize], len(packed)

    # ------------------------------------------------------------------
    # control ioctl (libKtau kernel-control path)
    # ------------------------------------------------------------------
    def ioctl_set_groups(self, enable: bool, groups) -> None:
        """Enable/disable instrumentation groups at runtime."""
        if enable:
            self._ktau.control.enable(*groups)
        else:
            self._ktau.control.disable(*groups)

    def ioctl_set_points(self, enable: bool, names) -> None:
        """Enable/disable individual instrumentation points (§6's dynamic
        measurement control, at point granularity)."""
        if enable:
            self._ktau.control.enable_points(*names)
        else:
            self._ktau.control.disable_points(*names)

    # ------------------------------------------------------------------
    def _task_data(self, pid: int):
        data = self._ktau.tasks.get(pid)
        if data is None:
            data = self._ktau.zombies.get(pid)
        return data
