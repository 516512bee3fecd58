"""Tests for the OS-noise amplification experiment."""

import numpy as np

from repro.experiments.noise import NoiseParams, run_noise_point
from repro.sim.units import MSEC


class TestNoiseAmplification:
    def test_slowdown_grows_with_scale(self):
        params = NoiseParams(steps=30, quantum_ns=2 * MSEC)
        small = run_noise_point(4, params)
        large = run_noise_point(32, params)
        assert large.slowdown_pct > 1.5 * small.slowdown_pct
        assert small.slowdown_pct > 1.0

    def test_ktau_attributes_the_noise(self):
        params = NoiseParams(steps=30, quantum_ns=2 * MSEC)
        result = run_noise_point(16, params)
        data = result.data_noisy
        # the noise arrives as (small) involuntary hits and (large)
        # voluntary waits at the collectives
        inv = [r.involuntary_sched_s() for r in data.ranks]
        vol = [r.voluntary_sched_s() for r in data.ranks]
        assert max(inv) > 0
        assert np.median(vol) > 10 * np.median(inv)
