"""Time-unit constants.

All simulated time is kept as integer nanoseconds.  Helper constants make
call sites read naturally (``10 * units.MSEC``).
"""

from __future__ import annotations

#: One microsecond in nanoseconds.
USEC = 1_000
#: One millisecond in nanoseconds.
MSEC = 1_000_000
#: One second in nanoseconds.
SEC = 1_000_000_000

#: One kilobyte / megabyte in bytes (used by the network model).
KB = 1_024
MB = 1_024 * 1_024

