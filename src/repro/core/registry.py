"""Event-mapping: binding instrumentation points to numeric identities.

The paper's *event mapping macro* solves the problem of associating
measured data with dynamically allocated performance structures: a global
mapping index is incremented on the first invocation of every instrumented
event, and a static per-point ID variable captures that index, which then
indexes the per-process performance tables.

We reproduce that scheme exactly: each simulated kernel owns an
:class:`EventRegistry` (its global mapping index), and each
:class:`InstrumentationPoint` lazily binds its ID on first firing.  IDs are
therefore *per node* and depend on event first-arrival order — merged
cross-node analysis must map events by name, exactly as TAU's tooling does.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.points import Group, group_of


class PointKind(enum.IntEnum):
    """The three instrumentation macro types provided by KTAU."""

    ENTRY_EXIT = 0
    ATOMIC = 1


class InstrumentationPoint:
    """A single instrumentation site in the kernel source.

    Instances are created once per kernel at patch time (see
    :meth:`EventRegistry.point`) and carry the lazily-bound numeric ID.
    """

    __slots__ = ("name", "group", "kind", "event_id")

    def __init__(self, name: str, group: Group, kind: PointKind):
        self.name = name
        self.group = group
        self.kind = kind
        self.event_id: Optional[int] = None  # bound on first invocation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Point {self.name} group={self.group} id={self.event_id}>"


class EventRegistry:
    """Per-kernel global mapping index and point table."""

    def __init__(self) -> None:
        self._next_id = 0
        self._points: dict[str, InstrumentationPoint] = {}
        self._by_id: list[InstrumentationPoint] = []

    def point(self, name: str, kind: PointKind = PointKind.ENTRY_EXIT) -> InstrumentationPoint:
        """Declare (or fetch) the instrumentation point called ``name``.

        The point's group is looked up in the declared table
        (:data:`repro.core.points.POINT_GROUPS`); undeclared names raise
        ``KeyError`` so stray instrumentation is caught early.
        """
        existing = self._points.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(f"point {name!r} redeclared with different kind")
            return existing
        pt = InstrumentationPoint(name, group_of(name), kind)
        self._points[name] = pt
        return pt

    def bind(self, point: InstrumentationPoint) -> int:
        """Bind ``point`` to the next global index (first invocation)."""
        if point.event_id is None:
            point.event_id = self._next_id
            self._next_id += 1
            self._by_id.append(point)
        return point.event_id

    # -- lookups ---------------------------------------------------------
    def name_of(self, event_id: int) -> str:
        return self._by_id[event_id].name

    def id_of(self, name: str) -> Optional[int]:
        """ID of a point by name, or ``None`` if never fired."""
        pt = self._points.get(name)
        return None if pt is None else pt.event_id

    @property
    def bound_count(self) -> int:
        """How many points have fired at least once."""
        return self._next_id

    def mapping_table(self) -> list[tuple[int, str, str]]:
        """The (id, name, group) table shipped with profile dumps."""
        return [(p.event_id, p.name, p.group.value) for p in self._by_id
                if p.event_id is not None]
