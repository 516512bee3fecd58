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

Sampling is batched through numpy, 4096 draws per refill, and each batch
is kept as a *ledger*: two int32 prefix-sum arrays, one over the draws'
cycles and one over each draw's cost rounded to nanoseconds on its own
(``round((cycles + extra) * SEC / hz)`` for the clock rate and tracing
extra that :meth:`OverheadModel.bind` sets), plus a read position.  Any
run of draws inside one batch then costs two index reads per array,
whatever its length.  The start and stop samplers refill from one shared
RNG stream, so a call whose draws would refill either sampler takes them
in the per-event order instead; the model is deterministic given its RNG
stream.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

import numpy as np

from repro.sim.units import SEC

#: draws per refill
BATCH = 4096


class _GammaTail:
    """``min + Gamma(k, theta)`` sampler, handed out through a ledger of
    one batch of draws at a time."""

    #: draws per refill
    BATCH = BATCH

    def __init__(self, rng: np.random.Generator, minimum: float, mean: float, std: float):
        excess = mean - minimum
        if excess <= 0 or std <= 0:
            raise ValueError("need mean > min and std > 0")
        self.minimum = float(minimum)
        self.k = (excess / std) ** 2
        self.theta = std * std / excess
        self._rng = rng
        #: clock rate the nanosecond ledger rounds at (None: cycles only)
        #: and the cycles a tracing build adds to every draw
        self.hz: Optional[float] = None
        self.extra = 0
        #: The ledger: ``cycles[i]`` sums the batch's first ``i`` draws and
        #: ``ns[i]`` their rounded costs; ``pos`` draws are taken.  Both
        #: are views of one int32 array, allocated here and refilled in
        #: place.  A batch is drawn only when a draw is asked of a used-up
        #: one, so the shared RNG stream refills at the same draw however
        #: the draws are taken.
        self._sums = np.zeros((2, BATCH + 1), np.int32)
        self.cycles, self.ns = map(memoryview, self._sums)
        self.pos = BATCH

    def sample(self, n: int) -> np.ndarray:
        """One refill: ``n`` draws truncated to whole cycles, as float64
        (the same value as ``int()`` of each positive draw)."""
        draws = self.sample_array(n)
        return np.trunc(draws, out=draws)

    def sample_array(self, n: int) -> np.ndarray:
        """Draw ``n`` samples at once (used by the Table 4 harness)."""
        return self.minimum + self._rng.gamma(self.k, self.theta, size=n)

    def bind(self, hz: Optional[float], extra: int) -> None:
        """Round the ledger at ``hz``, each cost ``extra`` cycles up."""
        self.hz, self.extra = hz, extra

    def refill(self) -> None:
        """Draw the next batch and start reading it.

        The batch stays in float64, where sums of whole numbers below
        2**53 are exact.  Each cost in ns is ``rint`` of the float64
        quotient ``(c + extra) * SEC / hz``, which equals Python's
        ``round`` of the same quotient while ``(c + extra) * SEC`` stays
        below 2**53 (then the float64 product is exact, as the int-to-
        float conversion in Python's division is); the batch's total
        bounds every draw's cost, so one check covers them all."""
        draws = self.sample(BATCH)
        sums = np.cumsum(draws)
        total = sums.item(-1)
        assert total < 2**31, "a batch's prefix sums must fit int32"
        self._sums[0, 1:] = sums
        if self.hz is not None:
            assert (total + self.extra * BATCH) * SEC < 2**53, \
                "a cost in ns must round exactly"
            draws += self.extra
            draws *= SEC
            draws /= self.hz
            np.rint(draws, out=draws)
            np.cumsum(draws, out=draws)
            assert draws.item(-1) < 2**31, "a batch's prefix sums must fit int32"
            self._sums[1, 1:] = draws
        self.pos = 0

    def take(self, k: int) -> tuple[int, int]:
        """The next ``k`` draws' ``(cycles, ns)`` sums, refilling as each
        batch runs out (cycles without the extra)."""
        cycles = ns = 0
        while k:
            if self.pos == BATCH:
                self.refill()
            i = self.pos
            j = min(BATCH, i + k)
            cycles += self.cycles[j] - self.cycles[i]
            ns += self.ns[j] - self.ns[i]
            self.pos, k = j, k - (j - i)
        return cycles, ns

    def draw(self) -> tuple[int, int]:
        """One draw's ``(cycles + extra, ns)``."""
        i = self.pos
        if i == BATCH:
            self.refill()
            i = 0
        self.pos = i + 1
        cycles, ns = self.cycles, self.ns
        return cycles[i + 1] - cycles[i] + self.extra, ns[i + 1] - ns[i]


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
        # The per-event draws: an enabled entry costs a start, an exit a
        # stop, and an atomic event is modelled like a start.  Each hands
        # out a ``(cycles, ns)`` charge; an unbound model charges raw
        # cycles and 0 ns.
        self.draw_start = self.draw_atomic = self._start.draw
        self.draw_stop = self._stop.draw

    def bind(self, hz: float, tracing: bool) -> None:
        """Charge in nanoseconds at clock rate ``hz``, every draw
        :attr:`TRACE_EXTRA_CYCLES` dearer in a ``tracing`` build."""
        extra = self.TRACE_EXTRA_CYCLES if tracing else 0
        self._start.bind(hz, extra)
        self._stop.bind(hz, extra)

    def charge(self, starts: int, stops: int,
               order: tuple[int, int, int, int]) -> tuple[int, int]:
        """``(cycles, ns)`` of a summed call's ``starts`` start draws and
        ``stops`` stop draws, taken in the per-event ``order`` ``(head,
        pass_starts, pass_stops, n)``: ``head`` starts, then ``n`` times
        ``pass_starts`` starts and ``pass_stops`` stops, then ``head``
        stops.  Each cost is rounded on its own.  When neither sampler
        refills, the order cannot matter and the sums are read off the
        ledgers."""
        a, b = self._start, self._stop
        i, j = a.pos, b.pos
        if i + starts <= BATCH and j + stops <= BATCH:
            a.pos, b.pos = i + starts, j + stops
            ac, an, bc, bn = a.cycles, a.ns, b.cycles, b.ns
            return (ac[i + starts] - ac[i] + bc[j + stops] - bc[j]
                    + a.extra * (starts + stops),
                    an[i + starts] - an[i] + bn[j + stops] - bn[j])
        head, pass_starts, pass_stops, n = order
        runs = [(a, head), *((a, pass_starts), (b, pass_stops)) * n, (b, head)]
        cycles = ns = 0
        for tail, k in runs:
            c, t = tail.take(k)
            cycles, ns = cycles + c, ns + t
        return cycles + a.extra * (starts + stops), ns

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
        self.draw_start = self.draw_stop = self.draw_atomic = \
            repeat((0, 0)).__next__

    def bind(self, hz: float, tracing: bool) -> None:
        pass

    def charge(self, starts: int, stops: int,
               order: tuple[int, int, int, int]) -> tuple[int, int]:
        return 0, 0
