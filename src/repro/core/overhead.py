"""Direct measurement overhead model (paper Table 4).

Each KTAU measurement operation (a profile *start* at an entry point or a
*stop* at an exit point) costs real cycles on the measured machine.  The
paper reports, on the Chiba-City Pentium IIIs:

====== ====== ======== =====
 op     mean   std.dev  min
====== ====== ======== =====
start   244.4  236.3    160
stop    295.3  268.8    214
====== ====== ======== =====

The distribution is strongly right-skewed (std > mean-min): the common
case is a warm-cache hit near the minimum, with a heavy tail from cache and
TLB misses.  We model each cost as ``min + Gamma(k, theta)`` with ``k`` and
``theta`` chosen to match the reported mean and standard deviation exactly:

    mean - min = k * theta        std**2 = k * theta**2

When instrumentation is compiled in but disabled at boot/runtime the only
cost is a flag check (a load + branch), modelled as a small constant.

Sampling is batched through numpy for speed and handed out as Python
ints, one refill of 4096 draws at a time, through endless C-level
iterators (``starts`` and ``stops``); the model is deterministic given
its RNG stream.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator

import numpy as np


class _GammaTail:
    """``min + Gamma(k, theta)`` sampler with batched draws."""

    #: draws per refill
    BATCH = 4096

    def __init__(self, rng: np.random.Generator, minimum: float, mean: float, std: float):
        excess = mean - minimum
        if excess <= 0 or std <= 0:
            raise ValueError("need mean > min and std > 0")
        self.minimum = float(minimum)
        self.k = (excess / std) ** 2
        self.theta = std * std / excess
        self._rng = rng
        #: The endless draw stream.  A batch is drawn only when the one
        #: before it runs out, so the shared RNG stream refills at the
        #: same draw whichever way the stream is consumed.
        self.draws: Iterator[int] = chain.from_iterable(
            map(self.sample, repeat(self.BATCH)))

    def sample(self, n: int) -> memoryview:
        """One refill: ``n`` draws as an int64 memoryview."""
        # Truncating a batch to int64 once equals int() of each positive
        # float draw; iterating a memoryview of it yields Python ints
        # without keeping a list of int objects alive.
        return memoryview(self.sample_array(n).astype(np.int64))

    def sample_array(self, n: int) -> np.ndarray:
        """Draw ``n`` samples at once (used by the Table 4 harness)."""
        return self.minimum + self._rng.gamma(self.k, self.theta, size=n)


class OverheadModel:
    """Cycle costs of KTAU measurement operations.

    ``rng`` is the deterministic stream for the heavy-tailed samplers.
    """

    #: Paper Table 4 (Chiba-City P3, cycles): (min, mean, std) of a
    #: profile *start* and a profile *stop* operation.
    START = (160.0, 244.4, 236.3)
    STOP = (214.0, 295.3, 268.8)
    #: Cost of the runtime enable-flag check paid by compiled-in but
    #: disabled instrumentation (the ``Ktau Off`` configuration).
    DISABLED_CHECK_CYCLES = 3
    #: Additional cost per operation when tracing is also enabled (the
    #: ring-buffer store).
    TRACE_EXTRA_CYCLES = 40

    def __init__(self, rng: np.random.Generator):
        self._start = _GammaTail(rng, *self.START)
        self._stop = _GammaTail(rng, *self.STOP)
        # The per-event draws, in cycles: an enabled entry costs a start,
        # an exit a stop, and an atomic event is modelled like a start.
        # ``starts`` and ``stops`` are the streams themselves, for callers
        # that take many draws at once; the ``*_cycles`` callables are
        # their ``__next__``.
        self.starts = self._start.draws
        self.stops = self._stop.draws
        self.start_cycles = self.atomic_cycles = self.starts.__next__
        self.stop_cycles = self.stops.__next__

    # -- bulk access for the Table 4 experiment --------------------------
    def sample_start_array(self, n: int) -> np.ndarray:
        return self._start.sample_array(n)

    def sample_stop_array(self, n: int) -> np.ndarray:
        return self._stop.sample_array(n)


class ZeroOverheadModel(OverheadModel):
    """An overhead model that charges nothing.

    Used for the ``Base`` perturbation configuration (vanilla kernel — no
    instrumentation compiled in at all) and for analyses that want
    measurement without perturbation.
    """

    DISABLED_CHECK_CYCLES = TRACE_EXTRA_CYCLES = 0

    def __init__(self) -> None:  # noqa: D107 - no RNG needed
        self.starts = self.stops = repeat(0)
        self.start_cycles = self.stop_cycles = self.atomic_cycles = \
            self.starts.__next__
