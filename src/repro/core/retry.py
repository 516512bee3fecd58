"""Shared retry policy for the session-less /proc/ktau protocol.

The /proc/ktau interface is deliberately stateless: a profile read is a
``size`` call followed by a ``read`` call into a caller-allocated buffer,
and the profile may grow in between, so the read can come back truncated.
Every client used to carry its own ad-hoc loop for that race; this module
is the one shared implementation — a bounded grow-and-retry for
non-destructive reads (:func:`grow_and_retry`) and a single sized read
for destructive drains (:func:`sized_read`), both governed by an explicit
:class:`RetryPolicy` and failing loudly with :class:`RetryExhaustedError`
when the bound is hit.

:class:`RetryPolicy` also carries the *simulated-time* backoff used by
in-simulation clients (KTAUD) when the procfs layer reports a transient
fault: those clients sleep ``backoff_ns * attempt`` between attempts, so
degradation under fault injection costs virtual time on the faulted node
the way a real collector's retry loop costs wall time.  The fault
subsystem re-exports the policy from :mod:`repro.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds for a retry loop.

    Parameters
    ----------
    max_attempts:
        Total attempts (first try included) before
        :class:`RetryExhaustedError` is raised.
    backoff_ns:
        Simulated-time backoff between attempts for coroutine clients
        (attempt ``n`` sleeps ``n * backoff_ns``).  Host-side callers of
        :func:`grow_and_retry` ignore it — the size/read race involves
        no waiting, only a larger buffer.
    """

    max_attempts: int = 8
    backoff_ns: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_ns < 0:
            raise ValueError("backoff_ns must be >= 0")

    def backoff_for(self, attempt: int) -> int:
        """Simulated-time backoff before retry number ``attempt`` (1-based)."""
        return attempt * self.backoff_ns


class RetryExhaustedError(RuntimeError):
    """A bounded retry loop hit its attempt limit without succeeding."""

    def __init__(self, what: str, attempts: int, last_size: int = 0):
        super().__init__(
            f"{what}: retry limit hit after {attempts} attempts"
            + (f" (last full size {last_size} bytes)" if last_size else ""))
        self.what = what
        self.attempts = attempts
        self.last_size = last_size


#: Default policy for the profile size/read race — the bound the paper's
#: session-less protocol discussion implies (generous: the profile grows
#: only when tasks or events appear between the two calls).
DEFAULT_POLICY = RetryPolicy(max_attempts=8)


def grow_and_retry(size_fn: Callable[[], int],
                   read_fn: Callable[[int], tuple[bytes, int]],
                   policy: RetryPolicy = DEFAULT_POLICY,
                   what: str = "ktau profile read") -> bytes:
    """Run the size-then-read protocol, growing the buffer on truncation.

    ``size_fn()`` returns the advisory size; ``read_fn(bufsize)`` returns
    ``(data, full_size)`` where ``len(data) < full_size`` signals a
    truncated read.  Each truncation retries with the reported full size,
    up to ``policy.max_attempts`` reads; exhaustion raises
    :class:`RetryExhaustedError` instead of returning short data.
    """
    bufsize = size_fn()
    full = bufsize
    for _ in range(policy.max_attempts):
        data, full = read_fn(bufsize)
        if len(data) >= full:
            return data
        bufsize = full  # grew between calls; retry with the larger size
    raise RetryExhaustedError(what, policy.max_attempts, last_size=full)


def sized_read(size_fn: Callable[[], int],
               read_fn: Callable[[int], tuple[bytes, int]]
               ) -> tuple[bytes, int]:
    """One sized read for destructive drains (the trace path).

    A trace drain consumes the buffer, so there is nothing to retry: the
    caller sizes the buffer, reads once, and any overflow is genuinely
    lost.  Returns ``(data, full_size)``; ``len(data) < full_size`` means
    records beyond the buffer were dropped and the caller should surface
    the loss rather than retry.
    """
    bufsize = size_fn()
    return read_fn(bufsize)
