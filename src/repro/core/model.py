"""Core data model: road-network locations, trajectories and t-fragments.

These types implement the definitions of Section II of the paper:

* a *road network location* ``l = (sid, x, y, t)`` — :class:`Location`;
* a *trajectory* ``TR = (trid, l_0 l_1 ... l_n)`` — :class:`Trajectory`;
* a *t-fragment* ``tf = (trid, sid, l_k .. l_{k+m})`` (Definition 1) —
  :class:`TFragment`.

The temporal order of locations encodes the direction of movement, which
the model preserves end to end (Section II-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from ..errors import TrajectoryError
from ..roadnet.geometry import Point


class Location(NamedTuple):
    """A road-network location sample.

    A :class:`~typing.NamedTuple` rather than a dataclass: locations are
    by far the most numerous objects in the system (every GPS sample plus
    every inserted junction point), and tuple construction is ~3x cheaper
    than a frozen dataclass ``__init__`` — which is what the distributed
    tier's wire decoder and Phase 1 fragmentation spend their time on.
    The type stays immutable and field-addressed either way.  The field
    order is the row order of the clustering document
    (:mod:`repro.core.serialize` builds rows with ``list(location)``).

    Attributes:
        sid: Identifier of the road segment the sample lies on.
        x: Planar x coordinate in metres.
        y: Planar y coordinate in metres.
        t: Timestamp in seconds.
        node_id: When this "sample" is a road junction inserted during
            t-fragment extraction (Section III-A1), the junction's node id;
            ``None`` for original GPS samples.  The paper marks inserted
            junction points "as different points than the original location
            samples" — this field is that mark.
    """

    sid: int
    x: float
    y: float
    t: float
    node_id: int | None = None

    @property
    def is_junction(self) -> bool:
        """Whether this location is an inserted junction point."""
        return self.node_id is not None

    @property
    def point(self) -> Point:
        """The geometric position as a :class:`Point`."""
        return Point(self.x, self.y)


@dataclass(frozen=True)
class Trajectory:
    """A time-ordered sequence of locations of one mobile object trip.

    Attributes:
        trid: Unique trajectory identifier.
        locations: The ordered location samples; timestamps must be
            non-decreasing.
    """

    trid: int
    locations: tuple[Location, ...]

    def __post_init__(self) -> None:
        if len(self.locations) < 2:
            raise TrajectoryError(
                f"trajectory {self.trid}: needs at least 2 locations, "
                f"got {len(self.locations)}"
            )
        for earlier, later in zip(self.locations, self.locations[1:]):
            if later.t < earlier.t:
                raise TrajectoryError(
                    f"trajectory {self.trid}: timestamps not ordered "
                    f"({earlier.t} then {later.t})"
                )

    @classmethod
    def from_samples(
        cls, trid: int, samples: Sequence[tuple[int, float, float, float]]
    ) -> "Trajectory":
        """Build a trajectory from ``(sid, x, y, t)`` tuples."""
        return cls(trid, tuple(Location(*s) for s in samples))

    def __len__(self) -> int:
        return len(self.locations)

    def __iter__(self) -> Iterator[Location]:
        return iter(self.locations)

    @property
    def start(self) -> Location:
        """First recorded location."""
        return self.locations[0]

    @property
    def end(self) -> Location:
        """Last recorded location."""
        return self.locations[-1]

    @property
    def duration(self) -> float:
        """Elapsed time between first and last sample, in seconds."""
        return self.end.t - self.start.t

    def segment_ids(self) -> list[int]:
        """The distinct road segments visited, in first-visit order."""
        seen: set[int] = set()
        ordered: list[int] = []
        for location in self.locations:
            if location.sid not in seen:
                seen.add(location.sid)
                ordered.append(location.sid)
        return ordered


@dataclass(frozen=True, slots=True)
class TFragment:
    """A trajectory fragment: consecutive samples on one road segment.

    Definition 1 of the paper.  A t-fragment keeps the identity of its
    source trajectory (``trid``), its road segment (``sid``) and its
    boundary locations, preserving route and direction information.

    Slotted: Phase 1 makes one fragment per segment a trajectory visits
    (about 52k for the 2,000 trips of the dense benchmark input), and the
    slots drop each one's ``__dict__``: 56 rather than 152 bytes a
    fragment.  Pickling, :func:`copy.deepcopy`,
    :func:`dataclasses.replace` and the wire decoder's ``object.__new__``
    path work as they did.

    Attributes:
        trid: Source trajectory identifier.
        sid: Road segment the fragment lies on.
        locations: The ``m+1`` consecutive locations, all with this ``sid``.
    """

    trid: int
    sid: int
    locations: tuple[Location, ...]

    def __post_init__(self) -> None:
        if not self.locations:
            raise TrajectoryError(f"t-fragment of trajectory {self.trid}: empty")
        for location in self.locations:
            if location.sid != self.sid:
                raise TrajectoryError(
                    f"t-fragment of trajectory {self.trid}: location on "
                    f"segment {location.sid}, expected {self.sid}"
                )

    @property
    def first(self) -> Location:
        """Entry location of the fragment."""
        return self.locations[0]

    @property
    def last(self) -> Location:
        """Exit location of the fragment."""
        return self.locations[-1]

    def __len__(self) -> int:
        return len(self.locations)


@dataclass(frozen=True)
class TrajectoryDataset:
    """A named set of trajectories over one road network.

    Mirrors the paper's datasets (ATL500, SJ2000, ...): the name records
    the region and object count, ``total_points`` is the quantity Table II
    reports.
    """

    name: str
    trajectories: tuple[Trajectory, ...]
    network_name: str = ""
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    @property
    def total_points(self) -> int:
        """Total number of location samples across all trajectories."""
        return sum(len(tr) for tr in self.trajectories)

    def trajectory(self, trid: int) -> Trajectory:
        """Look up a trajectory by id."""
        for tr in self.trajectories:
            if tr.trid == trid:
                return tr
        raise TrajectoryError(f"no trajectory with id {trid}")
