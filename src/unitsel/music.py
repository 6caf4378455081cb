"""Domain model for monophonic symbolic music.

Pitches are MIDI semitone numbers with ``REST = -1`` as the rest sentinel.
Durations are exact rationals (fractions of a whole note), so measure sums
can be checked without floating point. All types are immutable values and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

REST = -1

# Pitch class of a rest; pitched classes are 0..11.
REST_CLASS = 12

# Pitches a unit library will admit (five octaves).
LIBRARY_PITCH_RANGE = (36, 92)

# Measures per unit.
UNIT_LENGTHS = (1, 2, 4)

# Durations finer than 1/128 of a whole note are rejected as pathological.
MAX_DURATION_DENOMINATOR = 128

WHOLE = Fraction(1, 1)


class DurationError(ValueError):
    """A duration is non-positive or finer than the denominator cap."""


def check_duration(d: Fraction) -> Fraction:
    """Validate a note duration; returns it unchanged."""
    if d <= 0:
        raise DurationError(f"duration must be positive, got {d}")
    if d.denominator > MAX_DURATION_DENOMINATOR:
        raise DurationError(
            f"duration {d} finer than 1/{MAX_DURATION_DENOMINATOR} grid"
        )
    return d


def pitch_class(p: int) -> int:
    """Reduce a pitch to a single octave (0..11); rests map to REST_CLASS."""
    if p == REST:
        return REST_CLASS
    if not 0 <= p <= 127:
        raise ValueError(f"pitch {p} outside MIDI range")
    return p % 12


@dataclass(frozen=True)
class Note:
    """One symbolic event: a pitch (or rest) with an exact duration.

    Tie flags record notated ties to the neighbouring notes; a rest can
    never carry a tie.
    """

    pitch: int
    duration: Fraction
    tie_from_prev: bool = False
    tie_to_next: bool = False

    def __post_init__(self) -> None:
        if self.pitch != REST and not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch {self.pitch} outside MIDI range and not REST")
        check_duration(self.duration)
        if self.pitch == REST and (self.tie_from_prev or self.tie_to_next):
            raise ValueError("a rest cannot be tied")

    @property
    def is_rest(self) -> bool:
        return self.pitch == REST


@dataclass(frozen=True)
class Measure:
    """A non-empty run of notes meant to fill ``meter`` exactly.

    Construction does not enforce the duration sum so that loaders can
    report bad measures as diagnostics; ``validate_piece`` checks it.
    """

    notes: tuple[Note, ...]
    meter: Fraction = WHOLE

    def __post_init__(self) -> None:
        if not self.notes:
            raise ValueError("measure must contain at least one note (use a rest)")
        object.__setattr__(self, "notes", tuple(self.notes))


def measure_sum(m: Measure) -> Fraction:
    """Exact rational sum of the note durations in a measure."""
    total = Fraction(0)
    for note in m.notes:
        total += note.duration
    return total


@dataclass(frozen=True)
class Provenance:
    """Where a unit came from: source piece, measure offset, transform tag.

    The tag is a semicolon-joined list of applied transforms, e.g.
    ``"dt;add+1;t-3"``; an empty tag means the span is verbatim.
    """

    source_id: str
    offset: int
    transform: str = ""


@dataclass(frozen=True)
class Unit:
    """A fixed span of 1, 2 or 4 measures; the atom of selection."""

    measures: tuple[Measure, ...]
    provenance: Provenance

    def __post_init__(self) -> None:
        if len(self.measures) not in UNIT_LENGTHS:
            raise ValueError(f"unit length must be 1, 2 or 4, got {len(self.measures)}")
        meters = {m.meter for m in self.measures}
        if len(meters) != 1:
            raise ValueError("all measures of a unit must share one meter")
        object.__setattr__(self, "measures", tuple(self.measures))

    @property
    def meter(self) -> Fraction:
        return self.measures[0].meter

    @property
    def notes(self) -> tuple[Note, ...]:
        return tuple(n for m in self.measures for n in m.notes)


@dataclass(frozen=True)
class Piece:
    id: str
    measures: tuple[Measure, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "measures", tuple(self.measures))

    @property
    def notes(self) -> tuple[Note, ...]:
        return tuple(n for m in self.measures for n in m.notes)


def validate_piece(p: Piece) -> list[str]:
    """Check measure sums and tie consistency; returns violations (empty = valid).

    Violations are data, not exceptions: each entry names the problem and
    the measure where it occurs.
    """
    violations: list[str] = []
    if not p.measures:
        violations.append("empty-piece: piece has no measures")
        return violations
    for i, m in enumerate(p.measures):
        total = measure_sum(m)
        if total != m.meter:
            violations.append(
                f"duration-mismatch at m{i}: notes sum to {total}, meter is {m.meter}"
            )
    flat: list[tuple[int, Note]] = []
    for i, m in enumerate(p.measures):
        flat.extend((i, n) for n in m.notes)
    first_idx, first_note = flat[0]
    if first_note.tie_from_prev:
        violations.append(f"dangling-tie at m{first_idx}: first note tied from nowhere")
    last_idx, last_note = flat[-1]
    if last_note.tie_to_next:
        violations.append(f"dangling-tie at m{last_idx}: last note tied to nothing")
    for (i, cur), (j, nxt) in zip(flat, flat[1:]):
        if cur.tie_to_next != nxt.tie_from_prev:
            violations.append(
                f"tie-mismatch at m{i}: tie_to_next={cur.tie_to_next} but next note "
                f"tie_from_prev={nxt.tie_from_prev}"
            )
        elif cur.tie_to_next and cur.pitch != nxt.pitch:
            violations.append(
                f"tie-pitch-mismatch at m{i}: tie joins pitches {cur.pitch} and {nxt.pitch}"
            )
    return violations


def assemble_piece(measures: Sequence[Measure], piece_id: str) -> Piece:
    """Build a piece from measures, repairing tie flags at the joins.

    A tie between adjacent notes survives only if both sides agree
    (tie_to_next on the left, tie_from_prev on the right, equal pitch);
    otherwise both flags are cleared. The piece boundaries never carry
    ties.
    """
    if not measures:
        raise ValueError("cannot assemble an empty piece")
    notes = [n for m in measures for n in m.notes]
    if notes[0].tie_from_prev:
        notes[0] = replace(notes[0], tie_from_prev=False)
    if notes[-1].tie_to_next:
        notes[-1] = replace(notes[-1], tie_to_next=False)
    return Piece(id=piece_id, measures=_repair_ties(measures, notes))


def concatenate_units(units: Sequence[Unit], piece_id: str) -> Piece:
    """Join units into a piece; seam ties are repaired (see assemble_piece)."""
    if not units:
        raise ValueError("cannot concatenate zero units")
    meters = {u.meter for u in units}
    if len(meters) != 1:
        raise ValueError("units must share one meter")
    measures: list[Measure] = []
    for u in units:
        measures.extend(u.measures)
    return assemble_piece(measures, piece_id)


def _repair_ties(measures: Sequence[Measure], notes: list[Note]) -> tuple[Measure, ...]:
    """Regroup ``notes`` into measures shaped like ``measures``, keeping a
    tie between adjacent notes only if both sides agree (tie_to_next on the
    left, tie_from_prev on the right) and the pitches are equal; otherwise
    both flags are cleared, in ``notes`` itself. The outermost flags are
    left as they are.
    """
    for k in range(len(notes) - 1):
        cur, nxt = notes[k], notes[k + 1]
        tied = cur.tie_to_next and nxt.tie_from_prev and cur.pitch == nxt.pitch
        if cur.tie_to_next != tied:
            notes[k] = replace(cur, tie_to_next=tied)
        if nxt.tie_from_prev != tied:
            notes[k + 1] = replace(nxt, tie_from_prev=tied)
    out: list[Measure] = []
    pos = 0
    for m in measures:
        count = len(m.notes)
        out.append(Measure(notes=tuple(notes[pos : pos + count]), meter=m.meter))
        pos += count
    return tuple(out)


def slice_units(p: Piece, unit_length: int) -> list[Unit]:
    """Cut a piece into units of ``unit_length`` measures, back to back; a
    shorter remainder at the end is dropped."""
    if unit_length not in UNIT_LENGTHS:
        raise ValueError("unit_length must be 1, 2 or 4")
    units = []
    for off in range(0, len(p.measures) - unit_length + 1, unit_length):
        units.append(
            Unit(
                measures=tuple(p.measures[off : off + unit_length]),
                provenance=Provenance(source_id=p.id, offset=off),
            )
        )
    return units
