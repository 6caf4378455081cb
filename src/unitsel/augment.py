"""Corpus augmentation and unit-library construction.

Transforms: semitone transposition, interval add/multiply (pitches rebuilt
from the first non-rest anchor and superimposed on the original rhythm),
and double-time compression of measure pairs. A transform that pushes any
pitch outside the admissible range returns None, meaning that variant is
dropped, not that the call failed. The admissible range is
``music.LIBRARY_PITCH_RANGE``, [36, 92].

``transpose_only`` mode disables the interval and double-time transforms;
it is the mode required when preparing material for the sequential models,
which must see unaltered interval and rhythm structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .features import NoteTable
from .music import (
    LIBRARY_PITCH_RANGE,
    REST,
    UNIT_LENGTHS,
    DurationError,
    Measure,
    Note,
    Piece,
    Provenance,
    Unit,
    _repair_ties,
)

FULL = "full"
TRANSPOSE_ONLY = "transpose_only"


@dataclass(frozen=True)
class AugmentConfig:
    """Settings for library construction.

    ``transpose_shifts`` of None means every semitone shift that keeps the
    unit inside ``LIBRARY_PITCH_RANGE`` (full coverage); an explicit tuple
    limits the shifts (0 must be listed if untransposed units are wanted).
    """

    unit_length: int = 1
    transpose_shifts: tuple[int, ...] | None = None
    interval_add_constants: tuple[int, ...] = (-2, -1, 1, 2)
    interval_mul_constants: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(2))
    enable_double_time: bool = True
    mode: str = FULL

    def __post_init__(self) -> None:
        if self.unit_length not in UNIT_LENGTHS:
            raise ValueError("unit_length must be 1, 2 or 4")
        if self.mode not in (FULL, TRANSPOSE_ONLY):
            raise ValueError(f"unknown mode {self.mode!r}")


def _with_tag(prov: Provenance, tag: str) -> Provenance:
    if not tag:
        return prov
    joined = f"{prov.transform};{tag}" if prov.transform else tag
    return Provenance(prov.source_id, prov.offset, joined)


def _shift_measures(measures: tuple[Measure, ...], semitones: int) -> tuple[Measure, ...] | None:
    """Every non-rest pitch moved by ``semitones``; None when one leaves the range."""
    lo, hi = LIBRARY_PITCH_RANGE
    new_measures = []
    for m in measures:
        notes = []
        for n in m.notes:
            if n.is_rest:
                notes.append(n)
                continue
            p = n.pitch + semitones
            if not lo <= p <= hi:
                return None
            notes.append(Note(p, n.duration, n.tie_from_prev, n.tie_to_next))
        new_measures.append(Measure(notes=tuple(notes), meter=m.meter))
    return tuple(new_measures)


def transpose(u: Unit, semitones: int) -> Unit | None:
    """Shift every non-rest pitch; rhythm, rests and ties are untouched.

    Returns None when any resulting pitch leaves ``LIBRARY_PITCH_RANGE``
    (the transposition is dropped). Transposing by 0 returns the unit itself.
    """
    if semitones == 0:
        return u
    measures = _shift_measures(u.measures, semitones)
    if measures is None:
        return None
    return Unit(measures=measures, provenance=_shift_provenance(u.provenance, semitones))


def _round_half_away(x: Fraction) -> int:
    if x >= 0:
        return int((2 * x + 1) // 2)
    return -int((2 * (-x) + 1) // 2)


def interval_transform(u: Unit, op: str, c: int | Fraction) -> Unit | None:
    """Rewrite the melodic intervals: i -> i + c ("add") or round(i * c) ("mul").

    The first non-rest pitch anchors the rebuilt contour; rests pass
    through untouched and contribute no intervals. Multiplication rounds
    to the nearest integer, ties away from zero. Returns None if any new
    pitch leaves ``LIBRARY_PITCH_RANGE``. A tie that would join two different
    pitches after the rewrite is cleared.
    """
    if op not in ("add", "mul"):
        raise ValueError(f"unknown interval op {op!r}")
    pitched = [n.pitch for n in u.notes if not n.is_rest]
    if not pitched:
        raise ValueError("interval transform needs at least one non-rest note")
    c = Fraction(c)
    lo, hi = LIBRARY_PITCH_RANGE
    new_pitches = [pitched[0]]
    for prev, cur in zip(pitched, pitched[1:]):
        interval = Fraction(cur - prev)
        if op == "add":
            shifted = interval + c
        else:
            shifted = Fraction(_round_half_away(interval * c))
        new_pitches.append(new_pitches[-1] + int(shifted))
    if any(not lo <= p <= hi for p in new_pitches):
        return None
    it = iter(new_pitches)
    notes = [
        n if n.is_rest else Note(next(it), n.duration, n.tie_from_prev, n.tie_to_next)
        for n in u.notes
    ]
    if op == "add":
        tag = f"add{int(c):+d}"
    else:
        tag = f"mul{c.numerator}/{c.denominator}" if c.denominator != 1 else f"mul{c.numerator}"
    return Unit(
        measures=_repair_ties(u.measures, notes),
        provenance=_with_tag(u.provenance, tag),
    )


def double_time(m1: Measure, m2: Measure) -> Measure:
    """Compress two consecutive measures into one by halving every duration.

    Raises DurationError when halving would exceed the duration grid. A tie
    across the old barline simply becomes an internal tie.
    """
    if m1.meter != m2.meter:
        raise ValueError("double_time needs measures of the same meter")
    notes = []
    for n in list(m1.notes) + list(m2.notes):
        notes.append(Note(n.pitch, n.duration / 2, n.tie_from_prev, n.tie_to_next))
    return Measure(notes=tuple(notes), meter=m1.meter)


def double_time_piece(p: Piece) -> Piece | None:
    """Half-length piece from non-overlapping measure pairs.

    An odd trailing measure is dropped; returns None when the piece is too
    short or any pair would break the duration grid.
    """
    if len(p.measures) < 2:
        return None
    measures = []
    try:
        for k in range(0, len(p.measures) - 1, 2):
            measures.append(double_time(p.measures[k], p.measures[k + 1]))
    except DurationError:
        return None
    return Piece(id=p.id, measures=tuple(measures))


def transpose_piece(p: Piece, semitones: int) -> Piece | None:
    """Whole-piece transposition; None when any pitch would leave
    ``LIBRARY_PITCH_RANGE``."""
    if semitones == 0:
        return p
    measures = _shift_measures(p.measures, semitones)
    if measures is None:
        return None
    return Piece(id=f"{p.id}@t{semitones:+d}", measures=measures)


def _coverage_shifts(low: int | None, high: int | None) -> list[int]:
    """Every shift that keeps pitches spanning [low, high] inside
    ``LIBRARY_PITCH_RANGE``; [0] when there is no pitch (low is None)."""
    if low is None:
        return [0]
    lo, hi = LIBRARY_PITCH_RANGE
    if lo - low > hi - high:
        # span wider than the admissible range; no shift can fit it
        return []
    return list(range(lo - low, hi - high + 1))


def transpose_corpus(c, cfg: AugmentConfig):
    """All in-range transposed copies of every piece (shift 0 included).

    Returns a new Corpus; ids of shifted copies get an ``@t{shift}`` suffix.
    """
    from .corpus import Corpus

    pieces = []
    for p in c.pieces:
        pitched = [n.pitch for n in p.notes if not n.is_rest]
        if cfg.transpose_shifts is None:
            low, high = (min(pitched), max(pitched)) if pitched else (None, None)
            shifts = _coverage_shifts(low, high)
        else:
            shifts = sorted(set(cfg.transpose_shifts) | {0})
        for k in shifts:
            moved = transpose_piece(p, k)
            if moved is not None:
                pieces.append(moved)
    return Corpus(pieces=tuple(pieces), meter=c.meter)


class UnitLibrary:
    """Deduplicated set of units; ``origins[i]`` lists every provenance of
    ``units[i]`` (the first one is the unit's own).

    ``origins`` is that tuple, or a function returning it, which is called
    on the first read of ``origins`` and only then: a loaded library builds
    its origins this way (see ``corpus.load_library``), since selection
    never reads them. The content index and the note table are likewise
    built on first use.
    """

    def __init__(
        self,
        units: tuple[Unit, ...],
        origins: tuple[tuple[Provenance, ...], ...] | Callable[[], tuple],
        unit_length: int,
        meter: Fraction,
    ):
        self.units = units
        self._origins = origins
        self.unit_length = unit_length
        self.meter = meter
        self._index: dict | None = None
        self._note_table: NoteTable | None = None

    @property
    def origins(self) -> tuple[tuple[Provenance, ...], ...]:
        if callable(self._origins):
            self._origins = self._origins()
        return self._origins

    @property
    def note_table(self) -> NoteTable:
        """The units' notes as integer ids, built once; embedding and
        featurising the library read it."""
        if self._note_table is None:
            self._note_table = NoteTable(self.units)
        return self._note_table

    def __len__(self) -> int:
        return len(self.units)

    def index_of(self, u: Unit) -> int | None:
        """Library index of a unit with identical content (equal measures,
        ties included), if any. The index is keyed by each unit's content
        as integers (:func:`_content_ints`), which hash much faster than its
        ``Fraction``-valued notes and measures."""
        if self._index is None:
            self._index = {_content_ints(unit): i for i, unit in enumerate(self.units)}
        return self._index.get(_content_ints(u))


def _pitch_variants(u: Unit, cfg: AugmentConfig) -> list[Unit]:
    variants = [u]
    if cfg.mode == FULL and any(not n.is_rest for n in u.notes):
        for const in cfg.interval_add_constants:
            v = interval_transform(u, "add", const)
            if v is not None:
                variants.append(v)
        for const in cfg.interval_mul_constants:
            v = interval_transform(u, "mul", const)
            if v is not None:
                variants.append(v)
    return variants


def _content_ints(u: Unit, low: int = 0) -> tuple:
    """A unit's exact content as one flat tuple of integers: per measure the
    meter's numerator and denominator and the note count, then per note its
    pitch less ``low`` (REST for a rest), its duration's numerator and
    denominator and its tie flags. The note counts delimit the measures, so
    two units of equal ``low`` have equal tuples exactly when they have equal
    measures."""
    flat: list = []
    for m in u.measures:
        flat += (m.meter.numerator, m.meter.denominator, len(m.notes))
        for n in m.notes:
            d = n.duration
            flat += (
                REST if n.is_rest else n.pitch - low,
                d.numerator,
                d.denominator,
                n.tie_from_prev,
                n.tie_to_next,
            )
    return tuple(flat)


def _content_shape(u: Unit) -> tuple[tuple, int | None, int | None]:
    """A unit's content as integers, with its lowest and highest pitch
    (None for both when every note is a rest).

    The shape is :func:`_content_ints` with pitches taken above the lowest
    one. Transposing by k keeps the shape and moves the lowest pitch by k,
    so two transposed candidates have equal measures exactly when they have
    equal shapes and equal shifted lowest pitches.
    """
    pitched = [n.pitch for n in u.notes if not n.is_rest]
    if not pitched:
        return _content_ints(u), None, None
    low, high = min(pitched), max(pitched)
    return _content_ints(u, low), low, high


def _shift_provenance(prov: Provenance, semitones: int) -> Provenance:
    """The provenance :func:`transpose` gives a unit shifted by ``semitones``."""
    return _with_tag(prov, f"t{semitones:+d}" if semitones else "")


def build_library(c, cfg: AugmentConfig) -> UnitLibrary:
    """Slide a unit window over every piece, apply the enabled transforms,
    and deduplicate exact-equal note sequences.

    Window stride is one measure. Results do not depend on evaluation
    order: origins are recorded in piece/window/transform order. A
    transposed candidate's dedup key is computed from integers (see
    :func:`_content_shape`) and only a new key builds its unit.
    """
    if not c.pieces:
        raise ValueError("cannot build a library from an empty corpus")
    lo, hi = LIBRARY_PITCH_RANGE
    units: list[Unit] = []
    origins: list[list[Provenance]] = []
    shape_ids: dict[tuple, int] = {}
    seen: dict[tuple[int, int], int] = {}
    for piece in c.pieces:
        sources = [(piece, "")]
        if cfg.mode == FULL and cfg.enable_double_time:
            dt = double_time_piece(piece)
            if dt is not None and len(dt.measures) >= cfg.unit_length:
                sources.append((dt, "dt"))
        for source, source_tag in sources:
            for off in range(0, len(source.measures) - cfg.unit_length + 1):
                window = Unit(
                    measures=tuple(source.measures[off : off + cfg.unit_length]),
                    provenance=_with_tag(
                        Provenance(source_id=piece.id, offset=off), source_tag
                    ),
                )
                for variant in _pitch_variants(window, cfg):
                    shape, low, high = _content_shape(variant)
                    shape_id = shape_ids.setdefault(shape, len(shape_ids))
                    if cfg.transpose_shifts is None:
                        shifts = _coverage_shifts(low, high)
                    else:
                        shifts = sorted(set(cfg.transpose_shifts))
                    for k in shifts:
                        if low is not None and not (lo <= low + k and high + k <= hi):
                            continue
                        key = (shape_id, REST if low is None else low + k)
                        idx = seen.get(key)
                        if idx is None:
                            seen[key] = len(units)
                            moved = transpose(variant, k)
                            units.append(moved)
                            origins.append([moved.provenance])
                        else:
                            origins[idx].append(_shift_provenance(variant.provenance, k))
    return UnitLibrary(
        units=tuple(units),
        origins=tuple(tuple(o) for o in origins),
        unit_length=cfg.unit_length,
        meter=c.meter,
    )
