"""Deterministic cluster-wide lost-time attribution reports.

:func:`build_report` consumes the per-rank
:class:`~repro.analysis.bottlenecks.harvest.RankTrace` inputs and
produces a :class:`BottleneckReport` answering *who blocked whom*:

1. Every rank's wait intervals were reconstructed at harvest
   (:func:`~repro.analysis.bottlenecks.waits.extract_waits`), one rank
   at a time; the report reads them from ``RankTrace.waits``.
2. Each ``tcp_recv_stall`` is matched against the rank's MPI message
   log: the receive operation whose window covers the stall names the
   **remote rank** whose late send caused it.
3. The stall is then charged to what that remote rank was doing over
   the stall window, by largest overlap: *preempted* (its own
   ``schedule``/IRQ intervals — charge their kernel path), *waiting*
   (its own voluntary waits — charge their path), else *computing*
   (charge the pseudo-path ``compute``).  Ties break
   preempted > waiting > computing, so interference never hides behind
   ambiguity.  Crucially the resolution is **transitive**: if the
   blocker's dominant activity was itself a TCP receive stall, the
   analyzer follows *that* stall to its own blocker, and so on until a
   rank that was computing, preempted, or blocked for a non-message
   reason — so serialization cascades (the LU wavefront) charge the
   rank at the head of the chain, not innocent intermediaries.
4. Direct losses (preemption, IRQ, unattributed waits) charge the
   waiter's own node and kernel path.

All arithmetic is integer nanoseconds and every aggregation iterates in
sorted order, so the same inputs always serialise to the same bytes
(:func:`report_to_json` uses the repo-wide canonical JSON form); the
determinism suite pins this against a golden hash.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional

from repro.analysis.bottlenecks.harvest import RankTrace
from repro.analysis.bottlenecks.waits import (IRQ_PREEMPTION, PREEMPTION,
                                              TCP_RECV_STALL, VOLUNTARY_WAIT,
                                              WaitInterval)
from repro.analysis.export import canonical_json
from repro.obs import runtime as _obs
from repro.sim.units import SEC

#: Pseudo kernel path charged when the blocking rank was simply still
#: computing (its send had not been issued yet).
COMPUTE_PATH = "compute"

#: Blocker states recorded on "who blocks whom" chains, in tie-break
#: priority order (highest first).
_STATES = ("preempted", "waiting", "computing")


@dataclass(frozen=True)
class PathLoss:
    """Lost time charged to one (node, kernel path) pair.

    ``direct_ns`` was lost on the node itself (its ranks' preemption,
    IRQ work, unattributed waits); ``charged_ns`` was lost *elsewhere*
    — remote ranks stalled in ``tcp_recvmsg`` because of this path.
    """

    node: str
    path: str
    lost_ns: int
    waits: int
    direct_ns: int
    charged_ns: int

    def to_doc(self) -> dict:
        """Plain-dict form for canonical JSON."""
        return {"node": self.node, "path": self.path,
                "lost_s": self.lost_ns / SEC, "waits": self.waits,
                "direct_s": self.direct_ns / SEC,
                "charged_s": self.charged_ns / SEC}


@dataclass(frozen=True)
class RankLoss:
    """One rank's lost time broken down by wait kind (nanoseconds)."""

    rank: int
    node: str
    tcp_recv_stall_ns: int
    voluntary_wait_ns: int
    preemption_ns: int
    irq_preemption_ns: int

    @property
    def total_ns(self) -> int:
        """All lost nanoseconds on this rank."""
        return (self.tcp_recv_stall_ns + self.voluntary_wait_ns
                + self.preemption_ns + self.irq_preemption_ns)

    def to_doc(self) -> dict:
        """Plain-dict form for canonical JSON."""
        return {"rank": self.rank, "node": self.node,
                "total_s": self.total_ns / SEC,
                "tcp_recv_stall_s": self.tcp_recv_stall_ns / SEC,
                "voluntary_wait_s": self.voluntary_wait_ns / SEC,
                "preemption_s": self.preemption_ns / SEC,
                "irq_preemption_s": self.irq_preemption_ns / SEC}


@dataclass(frozen=True)
class BlockChain:
    """Aggregated "who blocks whom" edge: waiter ← blocker via a path.

    ``via`` is what the blocker was doing while the waiter stalled (a
    kernel path, or :data:`COMPUTE_PATH`); ``blocker_state`` is the
    coarse classification (``preempted``/``waiting``/``computing``).
    """

    waiter_rank: int
    waiter_node: str
    blocker_rank: int
    blocker_node: str
    via: str
    blocker_state: str
    lost_ns: int
    waits: int

    def to_doc(self) -> dict:
        """Plain-dict form for canonical JSON."""
        return {"waiter_rank": self.waiter_rank,
                "waiter_node": self.waiter_node,
                "blocker_rank": self.blocker_rank,
                "blocker_node": self.blocker_node,
                "via": self.via, "blocker_state": self.blocker_state,
                "lost_s": self.lost_ns / SEC, "waits": self.waits}


@dataclass(frozen=True)
class BottleneckReport:
    """The full lost-time attribution result for one run.

    ``paths`` and ``chains`` are already ranked (descending lost time,
    deterministic tie-breaks) and truncated to ``top_k``; ``ranks`` and
    ``blockers`` are complete.
    """

    seed: Optional[int]
    top_k: int
    total_lost_ns: int
    total_waits: int
    unattributed_stall_ns: int
    ranks: tuple[RankLoss, ...]
    paths: tuple[PathLoss, ...]
    blockers: tuple[tuple[str, int], ...]  # (node, charged+direct ns)
    chains: tuple[BlockChain, ...]

    @property
    def top_blocker(self) -> Optional[str]:
        """Node charged the most cluster-wide lost time, if any."""
        return self.blockers[0][0] if self.blockers else None

    def to_doc(self) -> dict:
        """Canonical-JSON-ready document (schema ``bottleneck-report-v1``)."""
        return {
            "schema": "bottleneck-report-v1",
            "seed": self.seed,
            "top_k": self.top_k,
            "total_lost_s": self.total_lost_ns / SEC,
            "total_waits": self.total_waits,
            "unattributed_stall_s": self.unattributed_stall_ns / SEC,
            "ranks": [r.to_doc() for r in self.ranks],
            "paths": [p.to_doc() for p in self.paths],
            "blockers": [{"node": n, "lost_s": ns / SEC}
                         for n, ns in self.blockers],
            "chains": [c.to_doc() for c in self.chains],
        }


def report_to_json(report: BottleneckReport) -> str:
    """Serialise a report to canonical, byte-stable JSON."""
    return canonical_json(report.to_doc())


def _attribute_stall(wait: WaitInterval,
                     msg_log: list[tuple[str, int, int, int, int]],
                     ) -> Optional[int]:
    """Name the remote rank behind a TCP receive stall, if the message
    flow identifies one: the receive operation whose window covers the
    stall's start.  Deterministic pick: the latest-starting such window
    (innermost, for retried receives), smallest peer on ties."""
    best: Optional[tuple[int, int]] = None  # (-start_ns, peer)
    for op, peer, _nbytes, start_ns, end_ns in msg_log:
        if op != "recv" or not start_ns <= wait.start_ns <= end_ns:
            continue
        key = (-start_ns, peer)
        if best is None or key < best:
            best = key
    return best[1] if best is not None else None


class _Intervals(NamedTuple):
    """One rank's waits sorted by start, for overlap queries.

    ``max_ends[i]`` is the latest end among ``waits[:i + 1]``, so the
    waits that can overlap ``[s, e)`` lie between the first index whose
    running max end passes ``s`` and the last start before ``e``.
    """

    waits: list[WaitInterval]
    starts: list[int]
    max_ends: list[int]


def _index_intervals(waits: list[WaitInterval]) -> _Intervals:
    """Sort ``waits`` by start (stably) and index them for overlap scans."""
    ordered = sorted(waits, key=lambda w: w.start_ns)
    return _Intervals(ordered, [w.start_ns for w in ordered],
                      list(accumulate((w.end_ns for w in ordered), max)))


def _blocker_activity(wait: WaitInterval, blocker: _Intervals,
                      ) -> tuple[str, str, Optional[WaitInterval]]:
    """What was the blocking rank doing during ``wait``?

    Returns ``(state, path, interval)``: the dominant overlap class
    among its own preemption/IRQ intervals, its own voluntary waits,
    and (the remainder) compute, with the charged path being the single
    largest-overlap interval's kernel path (``interval`` is that
    interval, ``None`` for compute — the caller recurses through it
    when it is itself a TCP receive stall).  Ties break in
    :data:`_STATES` order, then earliest interval start, then path.
    """
    w0, w1 = wait.start_ns, wait.end_ns
    totals = {"preempted": 0, "waiting": 0}
    # state -> ((-overlap, start, path), interval)
    best: dict[str, tuple[tuple[int, int, str], WaitInterval]] = {}
    lo = bisect_right(blocker.max_ends, w0)
    hi = bisect_left(blocker.starts, w1, lo)
    for bw in blocker.waits[lo:hi]:
        b0, b1 = bw.start_ns, bw.end_ns
        ov = (b1 if b1 < w1 else w1) - (b0 if b0 > w0 else w0)
        if ov <= 0:
            continue
        state = ("preempted" if bw.kind in (PREEMPTION, IRQ_PREEMPTION)
                 else "waiting")
        totals[state] += ov
        key = (-ov, b0, bw.kernel_path)
        if state not in best or key < best[state][0]:
            best[state] = (key, bw)
    compute_ns = max(0, w1 - w0 - totals["preempted"] - totals["waiting"])
    ranked = sorted(
        ((-(totals.get(state, 0) if state != "computing" else compute_ns),
          idx, state)
         for idx, state in enumerate(_STATES)))
    state = ranked[0][2]
    if state == "computing":
        return state, COMPUTE_PATH, None
    chosen = best[state][1]
    return state, chosen.kernel_path, chosen


def _resolve_root(wait: WaitInterval, owner: int,
                  by_rank: dict[int, RankTrace],
                  rank_intervals: dict[int, _Intervals],
                  ) -> Optional[tuple[int, str, str]]:
    """Follow a TCP receive stall through the serialization cascade.

    Returns ``(root_rank, state, path)`` for the rank ultimately
    responsible: the message log names the immediate blocker; if that
    blocker's dominant activity during the stall was itself a TCP
    receive stall, the walk continues through *its* message log, until
    a rank that was preempted, computing, or blocked for a non-message
    reason.  Bounded by the set of ranks (each visited once), so LU's
    neighbour cycles terminate.  ``None`` when no remote is identified.
    """
    visited = {owner}
    current = wait
    rank = owner
    while True:
        remote = _attribute_stall(current, by_rank[rank].msg_log)
        if remote is None or remote not in rank_intervals:
            return None if rank == owner else (rank, "waiting",
                                               current.kernel_path)
        state, via, interval = _blocker_activity(current,
                                                 rank_intervals[remote])
        if (state == "waiting" and interval is not None
                and interval.kind == TCP_RECV_STALL
                and remote not in visited):
            visited.add(remote)
            rank = remote
            current = interval
            continue
        return remote, state, via


def build_report(inputs: list[RankTrace], *, top_k: int = 10,
                 seed: Optional[int] = None) -> BottleneckReport:
    """Run the full attribution pipeline over harvested rank traces."""
    by_rank: dict[int, RankTrace] = {rt.rank: rt for rt in inputs}
    rank_waits = {rank: rt.waits for rank, rt in by_rank.items()}

    rank_intervals = {rank: _index_intervals(waits)
                      for rank, waits in rank_waits.items()}

    kind_ns: dict[int, dict[str, int]] = {}
    path_direct: dict[tuple[str, str], tuple[int, int]] = {}
    path_charged: dict[tuple[str, str], tuple[int, int]] = {}
    chain_acc: dict[tuple[int, int, str, str], tuple[int, int]] = {}
    total_lost_ns = 0
    total_waits = 0
    unattributed_stall_ns = 0
    attributed = 0

    def charge(table: dict, key: tuple[str, str], ns: int) -> None:
        cur_ns, cur_n = table.get(key, (0, 0))
        table[key] = (cur_ns + ns, cur_n + 1)

    for rank in sorted(rank_waits):
        rt = by_rank[rank]
        kinds = kind_ns.setdefault(rank, {
            TCP_RECV_STALL: 0, VOLUNTARY_WAIT: 0,
            PREEMPTION: 0, IRQ_PREEMPTION: 0})
        for wait in rank_waits[rank]:
            span = wait.end_ns - wait.start_ns
            kinds[wait.kind] += span
            total_lost_ns += span
            total_waits += 1
            if wait.kind != TCP_RECV_STALL:
                charge(path_direct, (wait.node, wait.kernel_path), span)
                continue
            resolved = _resolve_root(wait, rank, by_rank, rank_intervals)
            if resolved is None:
                unattributed_stall_ns += span
                charge(path_direct, (wait.node, wait.kernel_path), span)
                continue
            attributed += 1
            remote, state, via = resolved
            bnode = by_rank[remote].node
            charge(path_charged, (bnode, via), span)
            ckey = (rank, remote, via, state)
            c_ns, c_n = chain_acc.get(ckey, (0, 0))
            chain_acc[ckey] = (c_ns + span, c_n + 1)

    ranks = tuple(
        RankLoss(rank=rank, node=by_rank[rank].node,
                 tcp_recv_stall_ns=kinds[TCP_RECV_STALL],
                 voluntary_wait_ns=kinds[VOLUNTARY_WAIT],
                 preemption_ns=kinds[PREEMPTION],
                 irq_preemption_ns=kinds[IRQ_PREEMPTION])
        for rank, kinds in sorted(kind_ns.items()))

    path_keys = sorted(set(path_direct) | set(path_charged))
    all_paths = []
    for key in path_keys:
        d_ns, d_n = path_direct.get(key, (0, 0))
        c_ns, c_n = path_charged.get(key, (0, 0))
        all_paths.append(PathLoss(node=key[0], path=key[1],
                                  lost_ns=d_ns + c_ns, waits=d_n + c_n,
                                  direct_ns=d_ns, charged_ns=c_ns))
    all_paths.sort(key=lambda p: (-p.lost_ns, p.node, p.path))

    node_ns: dict[str, int] = {}
    for p in all_paths:
        node_ns[p.node] = node_ns.get(p.node, 0) + p.lost_ns
    blockers = tuple(sorted(node_ns.items(), key=lambda kv: (-kv[1], kv[0])))

    chains = []
    for (wrank, brank, via, state), (c_ns, c_n) in sorted(chain_acc.items()):
        chains.append(BlockChain(
            waiter_rank=wrank, waiter_node=by_rank[wrank].node,
            blocker_rank=brank, blocker_node=by_rank[brank].node,
            via=via, blocker_state=state, lost_ns=c_ns, waits=c_n))
    chains.sort(key=lambda c: (-c.lost_ns, c.waiter_rank, c.blocker_rank,
                               c.via, c.blocker_state))

    if _obs.metrics_on:
        from repro.obs.metrics import REGISTRY
        REGISTRY.counter("bottleneck.reports").inc()
        REGISTRY.counter("bottleneck.waits").inc(total_waits)
        REGISTRY.counter("bottleneck.stalls_attributed").inc(attributed)
        hist = REGISTRY.histogram("bottleneck.wait_s")
        for rank in sorted(rank_waits):
            for wait in rank_waits[rank]:
                hist.observe(wait.duration_s)

    return BottleneckReport(
        seed=seed, top_k=top_k, total_lost_ns=total_lost_ns,
        total_waits=total_waits,
        unattributed_stall_ns=unattributed_stall_ns,
        ranks=ranks, paths=tuple(all_paths[:top_k]), blockers=blockers,
        chains=tuple(chains[:top_k]))
