"""Fuzzing the decode paths: corrupted inputs must fail cleanly.

libKtau parses buffers handed back by the kernel side; a truncated or
corrupted buffer (short proc read, version skew) must raise
:class:`~repro.core.wire.WireError` / ``ValueError`` — never crash with
an arbitrary exception or loop.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KtauBuildConfig
from repro.core.libktau import LibKtau
from repro.core.measurement import Ktau
from repro.core.registry import PointKind
from repro.core import wire
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine


def packed_profile() -> bytes:
    engine = Engine()
    ktau = Ktau(CycleClock(engine, hz=1e9), KtauBuildConfig(tracing=True))
    data = ktau.register_task(7, "fuzzed")
    data.user_context = "main()"
    for name in ("sys_writev", "sock_sendmsg", "tcp_sendmsg"):
        pt = ktau.registry.point(name)
        ktau.entry(data, pt)
    apt = ktau.registry.point("net.pkt_tx_bytes", PointKind.ATOMIC)
    ktau.atomic(data, apt, 1500)
    for name in ("tcp_sendmsg", "sock_sendmsg", "sys_writev"):
        ktau.exit(data, ktau.registry.point(name))
    return wire.pack_profiles(ktau.snapshot(), ktau.registry), ktau


BASE, _KTAU = packed_profile()
#: A valid trace drain of the same task (entries, an atomic and exits).
TRACE = wire.pack_trace(7, 3, _KTAU.tasks[7].trace.peek(), _KTAU.registry)


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(BASE) - 1))
def test_truncation_always_wire_error_or_success(cut):
    try:
        wire.unpack_profiles(BASE[:cut])
    except wire.WireError:
        pass  # the only acceptable failure


@settings(max_examples=200, deadline=None)
@given(pos=st.integers(8, len(BASE) - 1), value=st.integers(0, 255))
def test_byte_corruption_never_crashes(pos, value):
    mutated = bytearray(BASE)
    mutated[pos] = value
    try:
        wire.unpack_profiles(bytes(mutated))
    except (wire.WireError, UnicodeDecodeError):
        pass  # rejected cleanly


@settings(max_examples=100, deadline=None)
@given(junk=st.binary(max_size=200))
def test_arbitrary_bytes_rejected(junk):
    try:
        wire.unpack_profiles(junk)
    except wire.WireError:
        pass
    try:
        wire.unpack_trace(junk)
    except wire.WireError:
        pass


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(6, len(TRACE) - 1),
                                st.integers(0, 255)), max_size=4),
       cut=st.integers(0, len(TRACE)))
def test_corrupted_trace_only_wire_error(flips, cut):
    """Past the magic and version, flipped and truncated drains decode
    or raise WireError: bad kind bytes, unmapped event IDs, broken
    names and short record blocks included."""
    mutated = bytearray(TRACE)
    for pos, value in flips:
        mutated[pos] = value
    try:
        wire.unpack_trace(bytes(mutated[:cut]))
    except wire.WireError:
        pass


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.text(alphabet=st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\r"),
    max_size=60), max_size=10))
def test_ascii_parser_never_crashes(lines):
    text = "#ktau-ascii v1\n" + "\n".join(lines)
    try:
        LibKtau.from_ascii(text)
    except (ValueError, IndexError):
        pass  # malformed records rejected


def test_version_skew_rejected():
    mutated = bytearray(BASE)
    mutated[4] = 99  # version field
    with pytest.raises(wire.WireError):
        wire.unpack_profiles(bytes(mutated))
