"""Domain model for ordered storyline instances.

A storyline instance consists of characters, a range of discrete time
steps, and meetings.  Each character is active on a contiguous interval
of time steps; each meeting groups some characters at one time step.
An *ordered* instance additionally fixes, per time step, a bottom-to-top
ordering of the active characters in which every meeting occupies a
consecutive run.  A layout assigns a y-coordinate to every active
(time step, character) pair; this module defines the instance types,
the niceness test for layouts, and the wiggle metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

_ZERO_TOL = 1e-9        # a gap difference at most this large is no wiggle


class InstanceError(ValueError):
    """Problem with an instance document or its semantics."""


class InstanceFormatError(InstanceError):
    """Structurally malformed instance document (missing or mis-typed fields)."""


class InstanceValidationError(InstanceError):
    """Well-formed document that violates an instance invariant."""


@dataclass(frozen=True)
class Meeting:
    time_step: int                # 1-based
    members: tuple[str, ...]      # character ids, at least 2


@dataclass(frozen=True)
class StorylineInstance:
    characters: tuple[str, ...]           # declaration order is canonical
    time_steps: int                       # number of steps, steps are 1..time_steps
    meetings: tuple[Meeting, ...]
    activity: Mapping[str, tuple[int, int]]  # id -> inclusive [first, last] step
    groups: Mapping[str, str] = field(default_factory=dict)  # optional render groups

    def is_active(self, c: str, t: int) -> bool:
        lo, hi = self.activity[c]
        return lo <= t <= hi

    def active_at(self, t: int) -> tuple[str, ...]:
        """Active characters at step t, in declaration order."""
        return tuple(c for c in self.characters if self.is_active(c, t))

    def meetings_at(self, t: int) -> tuple[Meeting, ...]:
        return tuple(m for m in self.meetings if m.time_step == t)

    def gaps(self) -> range:
        """Indices t of the gaps between steps t and t+1."""
        return range(1, self.time_steps)

    def shared_at_gap(self, t: int) -> tuple[str, ...]:
        """Characters active at both ends of gap t."""
        return tuple(c for c in self.characters
                     if self.is_active(c, t) and self.is_active(c, t + 1))

    def total_active(self) -> int:
        return sum(len(self.active_at(t)) for t in range(1, self.time_steps + 1))


@dataclass(frozen=True)
class OrderedStorylineInstance(StorylineInstance):
    orderings: tuple[tuple[str, ...], ...] = ()   # orderings[t-1], bottom to top
    _pos: tuple[dict[str, int], ...] = field(init=False, repr=False, compare=False)
    _meeting: tuple[dict[str, Meeting], ...] = field(init=False, repr=False,
                                                     compare=False)

    def __post_init__(self) -> None:
        pos = tuple({c: i for i, c in enumerate(o)} for o in self.orderings)
        meeting: tuple[dict[str, Meeting], ...] = tuple({} for _ in pos)
        for m in self.meetings:
            # out-of-range steps are left to validate_instance to report
            if 1 <= m.time_step <= len(meeting):
                for c in m.members:
                    meeting[m.time_step - 1].setdefault(c, m)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_meeting", meeting)

    def ordering_at(self, t: int) -> tuple[str, ...]:
        if not 1 <= t <= self.time_steps:
            raise InstanceError(f"time step {t} out of range [1, {self.time_steps}]")
        return self.orderings[t - 1]

    def position(self, t: int, c: str) -> int:
        """0-based bottom-to-top position of c at step t."""
        return self._pos[t - 1][c]

    def meeting_of(self, t: int, c: str) -> Meeting | None:
        """The first meeting at step t that c belongs to, if any."""
        return self._meeting[t - 1].get(c)


@dataclass(frozen=True)
class NicenessParams:
    """Spacing parameters: meeting-pair distance and minimum free distance."""

    delta: float = 1.0
    delta_bar: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.delta < math.inf and 0 < self.delta_bar < math.inf):
            raise InstanceError(
                f"spacing parameters must be finite and strictly positive, "
                f"got delta={self.delta}, deltaBar={self.delta_bar}")

    @property
    def is_integral(self) -> bool:
        return float(self.delta).is_integer() and float(self.delta_bar).is_integer()


@dataclass(frozen=True)
class Coordination:
    """y-coordinates for every active (time step, character) pair."""

    values: Mapping[tuple[int, str], float]

    def y(self, t: int, c: str) -> float:
        return self.values[(t, c)]

    def __contains__(self, key: tuple[int, str]) -> bool:
        return key in self.values

    def items(self) -> Iterator[tuple[tuple[int, str], float]]:
        return iter(self.values.items())

    def shifted(self, dy: float) -> "Coordination":
        return Coordination({k: v + dy for k, v in self.values.items()})

    def min_y(self) -> float:
        return min(self.values.values()) if self.values else 0.0

    def max_y(self) -> float:
        return max(self.values.values()) if self.values else 0.0


@dataclass(frozen=True)
class NeighborSets:
    """Adjacent character pairs (c below c') of one time step's ordering."""

    all_pairs: tuple[tuple[str, str], ...]
    meeting_pairs: tuple[tuple[str, str], ...]   # both in a common meeting
    free_pairs: tuple[tuple[str, str], ...]      # the rest


@dataclass(frozen=True)
class NicenessReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class LayoutMetrics:
    wiggle_count: int
    linear_wiggle_height: float
    quadratic_wiggle_height: float
    total_height: float

    def as_report(self) -> dict[str, float]:
        return {
            "wiggleCount": self.wiggle_count,
            "linearWiggleHeight": self.linear_wiggle_height,
            "quadraticWiggleHeight": self.quadratic_wiggle_height,
            "totalHeight": self.total_height,
        }


def neighbor_sets(inst: OrderedStorylineInstance, t: int) -> NeighborSets:
    """Split step t's adjacent pairs by whether they share a meeting."""
    order = inst.ordering_at(t)
    all_pairs = []
    meeting_pairs = []
    free_pairs = []
    for c, cc in zip(order, order[1:]):
        pair = (c, cc)
        all_pairs.append(pair)
        m = inst.meeting_of(t, c)
        if m is not None and cc in m.members:
            meeting_pairs.append(pair)
        else:
            free_pairs.append(pair)
    return NeighborSets(tuple(all_pairs), tuple(meeting_pairs), tuple(free_pairs))


def is_nice(inst: OrderedStorylineInstance, coord: Coordination,
            params: NicenessParams, tol: float = 1e-6) -> NicenessReport:
    """Check ordering, exact meeting spacing, and minimum free spacing.

    Adjacent pairs sharing a meeting must sit exactly ``delta`` apart
    (within ``tol``); all other adjacent pairs at least ``delta_bar - tol``
    apart.  Non-adjacent separation follows transitively.
    """
    violations = []
    for t in range(1, inst.time_steps + 1):
        for c in inst.active_at(t):
            if (t, c) not in coord:
                violations.append(f"missing coordinate for ({c!r}, t={t})")
    if violations:
        return NicenessReport(False, tuple(violations))
    for t in range(1, inst.time_steps + 1):
        sets = neighbor_sets(inst, t)
        for c, cc in sets.meeting_pairs:
            gap = coord.y(t, cc) - coord.y(t, c)
            if abs(gap - params.delta) > tol:
                violations.append(
                    f"meeting pair ({c!r}, {cc!r}) at t={t}: gap {gap:.9g} != {params.delta}")
        for c, cc in sets.free_pairs:
            gap = coord.y(t, cc) - coord.y(t, c)
            if gap < params.delta_bar - tol:
                violations.append(
                    f"free pair ({c!r}, {cc!r}) at t={t}: gap {gap:.9g} < {params.delta_bar}")
    return NicenessReport(not violations, tuple(violations))


def is_valid(inst: OrderedStorylineInstance, coord: Coordination) -> bool:
    """True iff y-values strictly respect every time step's ordering."""
    for t in range(1, inst.time_steps + 1):
        order = inst.ordering_at(t)
        for c, cc in zip(order, order[1:]):
            if not coord.y(t, c) < coord.y(t, cc):
                return False
    return True


def compute_metrics(inst: StorylineInstance, coord: Coordination) -> LayoutMetrics:
    """Wiggle count, linear and quadratic wiggle height, and total height.

    Differences with magnitude at most ``_ZERO_TOL`` count as zero in all
    three wiggle metrics, so the zero sets of the metrics agree even on
    solver output with floating-point noise.
    """
    wc = 0
    lwh = 0.0
    qwh = 0.0
    for t in inst.gaps():
        for c in inst.shared_at_gap(t):
            d = coord.y(t, c) - coord.y(t + 1, c)
            if abs(d) > _ZERO_TOL:
                wc += 1
                lwh += abs(d)
                qwh += d * d
    ys = [v for _, v in coord.items()]
    th = (max(ys) - min(ys)) if ys else 0.0
    return LayoutMetrics(wc, lwh, qwh, th)


def stack_offsets(inst: OrderedStorylineInstance, params: NicenessParams,
                  t: int) -> dict[str, float]:
    """Bottom-anchored minimal nice spacing for step t (lowest char at 0)."""
    sets = neighbor_sets(inst, t)
    meeting_pairs = set(sets.meeting_pairs)
    order = inst.ordering_at(t)
    offsets: dict[str, float] = {}
    y = 0.0
    for i, c in enumerate(order):
        if i > 0:
            prev = order[i - 1]
            y += params.delta if (prev, c) in meeting_pairs else params.delta_bar
        offsets[c] = y
    return offsets


def minimal_stack_coordination(inst: OrderedStorylineInstance,
                               params: NicenessParams) -> Coordination:
    """Nice coordination stacking every step from y=0 upward."""
    values: dict[tuple[int, str], float] = {}
    for t in range(1, inst.time_steps + 1):
        for c, y in stack_offsets(inst, params, t).items():
            values[(t, c)] = y
    return Coordination(values)


def centered_stack_coordination(inst: OrderedStorylineInstance,
                                params: NicenessParams) -> Coordination:
    """Nice coordination centering every step's stack on a common level.

    Baseline drawing style: each time step uses minimal spacing and is
    centered vertically, then the whole layout is shifted so the lowest
    coordinate is 0.  Its total height is the minimum possible for a
    nice coordination of the instance.
    """
    values: dict[tuple[int, str], float] = {}
    for t in range(1, inst.time_steps + 1):
        offsets = stack_offsets(inst, params, t)
        span = max(offsets.values()) if offsets else 0.0
        for c, y in offsets.items():
            values[(t, c)] = y - span / 2.0
    coord = Coordination(values)
    return coord.shifted(-coord.min_y()) if values else coord


def _require(cond: bool, where: str, msg: str,
             kind: type[InstanceError] = InstanceValidationError) -> None:
    if not cond:
        raise kind(f"{where}: {msg}")


def validate_instance(inst: OrderedStorylineInstance) -> None:
    """Raise InstanceValidationError on any violated instance invariant."""
    seen: set[str] = set()
    for c in inst.characters:
        _require(c not in seen, f"characters[{c!r}]", "duplicate character id")
        seen.add(c)
    _require(inst.time_steps == len(inst.orderings), "orderings",
             f"expected {inst.time_steps} orderings, got {len(inst.orderings)}")
    for c, (lo, hi) in inst.activity.items():
        _require(c in seen, f"activity[{c!r}]", "unknown character id")
        _require(1 <= lo <= hi <= inst.time_steps, f"activity[{c!r}]",
                 f"interval [{lo}, {hi}] outside [1, {inst.time_steps}]")
    for t in range(1, inst.time_steps + 1):
        order = inst.orderings[t - 1]
        expected = set(inst.active_at(t))
        got = set(order)
        _require(len(got) == len(order), f"orderings[{t - 1}]", "duplicate character")
        for c in got - expected:
            where = f"orderings[{t - 1}]"
            if c not in seen:
                _require(False, where, f"unknown character {c!r}")
            _require(False, where,
                     f"activity not contiguous: {c!r} ordered at step {t} "
                     f"outside its interval {inst.activity[c]}")
        for c in expected - got:
            _require(False, f"orderings[{t - 1}]",
                     f"active character {c!r} missing from ordering at step {t}")
    for k, m in enumerate(inst.meetings):
        where = f"meetings[{k}]"
        _require(1 <= m.time_step <= inst.time_steps, where,
                 f"time step {m.time_step} out of range")
        _require(len(m.members) >= 2, where, "meeting needs at least 2 members")
        _require(len(set(m.members)) == len(m.members), where, "duplicate member")
        for c in m.members:
            _require(c in seen, where, f"unknown character {c!r}")
            _require(inst.is_active(c, m.time_step), where,
                     f"member {c!r} inactive at step {m.time_step}")
        positions = sorted(inst.position(m.time_step, c) for c in m.members)
        _require(positions == list(range(positions[0], positions[0] + len(positions))),
                 where, "meeting not consecutive in the step ordering")
    for t in range(1, inst.time_steps + 1):
        met: set[str] = set()
        for m in inst.meetings_at(t):
            overlap = met.intersection(m.members)
            _require(not overlap, f"meetings at step {t}",
                     f"characters {sorted(overlap)} appear in two meetings")
            met.update(m.members)


def parse_instance(text: str) -> tuple[OrderedStorylineInstance, NicenessParams]:
    """Parse a JSON instance document and validate it.

    Expected shape::

        {"characters": [{"id": "a", "activeFrom": 1, "activeTo": 2, "group": "g"?}],
         "meetings":   [{"t": 1, "members": ["a", "b"]}],
         "orderings":  [["a", "b"], ["b", "a"]],
         "params":     {"delta": 1, "deltaBar": 1}}        # optional
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level: expected an object")

    def need(obj: dict, key: str, types: type | tuple, where: str):
        if key not in obj:
            raise InstanceFormatError(f"{where}: missing field {key!r}")
        val = obj[key]
        if not isinstance(val, types) or isinstance(val, bool):
            raise InstanceFormatError(f"{where}.{key}: unexpected type {type(val).__name__}")
        return val

    chars_doc = need(doc, "characters", list, "top level")
    ids: list[str] = []
    activity: dict[str, tuple[int, int]] = {}
    groups: dict[str, str] = {}
    for i, ch in enumerate(chars_doc):
        where = f"characters[{i}]"
        if not isinstance(ch, dict):
            raise InstanceFormatError(f"{where}: expected an object")
        cid = need(ch, "id", str, where)
        lo = need(ch, "activeFrom", int, where)
        hi = need(ch, "activeTo", int, where)
        ids.append(cid)
        activity[cid] = (lo, hi)
        if "group" in ch:
            groups[cid] = need(ch, "group", str, where)

    meetings_doc = doc.get("meetings", [])
    if not isinstance(meetings_doc, list):
        raise InstanceFormatError("meetings: expected a list")
    meetings = []
    for i, md in enumerate(meetings_doc):
        where = f"meetings[{i}]"
        if not isinstance(md, dict):
            raise InstanceFormatError(f"{where}: expected an object")
        t = need(md, "t", int, where)
        members = need(md, "members", list, where)
        if not all(isinstance(m, str) for m in members):
            raise InstanceFormatError(f"{where}.members: expected character ids")
        meetings.append(Meeting(t, tuple(members)))

    orderings_doc = need(doc, "orderings", list, "top level")
    orderings = []
    for i, o in enumerate(orderings_doc):
        if not isinstance(o, list) or not all(isinstance(c, str) for c in o):
            raise InstanceFormatError(f"orderings[{i}]: expected a list of character ids")
        orderings.append(tuple(o))

    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise InstanceFormatError("params: expected an object")
    spacing = []
    for key in ("delta", "deltaBar"):
        val = params_doc.get(key, 1.0)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise InstanceFormatError(f"params.{key}: expected a number")
        try:
            spacing.append(float(val))
        except OverflowError:       # an integer beyond the float range
            raise InstanceFormatError(f"params.{key}: number out of range") from None

    inst = OrderedStorylineInstance(
        characters=tuple(ids),
        time_steps=len(orderings),
        meetings=tuple(meetings),
        activity=activity,
        groups=groups,
        orderings=tuple(orderings),
    )
    validate_instance(inst)
    return inst, NicenessParams(*spacing)


def load_instance(path: str) -> tuple[OrderedStorylineInstance, NicenessParams]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def instance_to_dict(inst: OrderedStorylineInstance,
                     params: NicenessParams | None = None) -> dict:
    """Inverse of parse_instance, up to field order."""
    chars = []
    for c in inst.characters:
        lo, hi = inst.activity[c]
        entry: dict = {"id": c, "activeFrom": lo, "activeTo": hi}
        if c in inst.groups:
            entry["group"] = inst.groups[c]
        chars.append(entry)
    doc: dict = {
        "characters": chars,
        "meetings": [{"t": m.time_step, "members": list(m.members)}
                     for m in inst.meetings],
        "orderings": [list(o) for o in inst.orderings],
    }
    if params is not None:
        doc["params"] = {"delta": params.delta, "deltaBar": params.delta_bar}
    return doc


def save_instance(path: str, inst: OrderedStorylineInstance,
                  params: NicenessParams | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst, params), fh, indent=2)
        fh.write("\n")
