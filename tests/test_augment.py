from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unitsel import augment
from unitsel.augment import (
    FULL,
    TRANSPOSE_ONLY,
    AugmentConfig,
    UnitLibrary,
    build_library,
    double_time,
    double_time_piece,
    interval_transform,
    transpose,
    transpose_corpus,
)
from unitsel.corpus import Corpus, save_library
from unitsel.music import (
    LIBRARY_PITCH_RANGE,
    REST,
    DurationError,
    Measure,
    Note,
    Piece,
    Provenance,
    Unit,
    measure_sum,
)
from unitsel.nn import stream_rng

Q = Fraction(1, 4)
H = Fraction(1, 2)


def unit_of(pitches, durs=None, length=1):
    durs = durs or [Fraction(1, len(pitches))] * len(pitches)
    notes = tuple(Note(p, d) for p, d in zip(pitches, durs))
    measures = (Measure(notes),) * length if length > 1 else (Measure(notes),)
    return Unit(measures=measures, provenance=Provenance("t", 0))


def unit_pitches(u):
    return [n.pitch for n in u.notes]


class TestTranspose:
    def test_up_one(self):
        u = unit_of([60, 62], [H, H])
        assert unit_pitches(transpose(u, 1)) == [61, 63]

    def test_range_boundary_drops(self):
        u = unit_of([36, 40], [H, H])
        assert transpose(u, -1) is None
        assert transpose(u, 0) is u

    def test_identity_is_same_object(self):
        u = unit_of([60, 64, 67, 64])
        assert transpose(u, 0) is u

    def test_rests_and_ties_untouched(self):
        notes = (
            Note(REST, Q),
            Note(60, Q, tie_to_next=True),
            Note(60, Q, tie_from_prev=True),
            Note(64, Q),
        )
        u = Unit(measures=(Measure(notes),), provenance=Provenance("t", 0))
        moved = transpose(u, 2)
        assert unit_pitches(moved) == [REST, 62, 62, 66]
        assert [n.duration for n in moved.notes] == [Q, Q, Q, Q]
        assert moved.notes[1].tie_to_next and moved.notes[2].tie_from_prev

    def test_provenance_tagged(self):
        u = unit_of([60, 62], [H, H])
        assert transpose(u, 3).provenance.transform == "t+3"


class TestIntervalTransform:
    def test_add_one(self):
        # intervals (4, 3) -> (5, 4), anchored at 60
        u = unit_of([60, 64, 67], [Q, Q, H])
        assert unit_pitches(interval_transform(u, "add", 1)) == [60, 65, 69]

    def test_mul_identity(self):
        u = unit_of([60, 64, 67], [Q, Q, H])
        assert unit_pitches(interval_transform(u, "mul", 1)) == [60, 64, 67]

    def test_add_zero_identity(self):
        u = unit_of([60, 64, 67], [Q, Q, H])
        assert unit_pitches(interval_transform(u, "add", 0)) == [60, 64, 67]

    def test_mul_doubles_interval(self):
        u = unit_of([60, 62], [H, H])
        assert unit_pitches(interval_transform(u, "mul", 2)) == [60, 64]

    def test_rests_pass_through_without_contributing(self):
        u = unit_of([60, REST, 64], [Q, Q, H])
        # single interval (60 -> 64) = 4 becomes 5
        assert unit_pitches(interval_transform(u, "add", 1)) == [60, REST, 65]

    def test_rounding_ties_away_from_zero(self):
        up = unit_of([60, 61], [H, H])  # +1 * 1/2 = +0.5 -> +1
        down = unit_of([61, 60], [H, H])  # -1 * 1/2 = -0.5 -> -1
        assert unit_pitches(interval_transform(up, "mul", Fraction(1, 2))) == [60, 61]
        assert unit_pitches(interval_transform(down, "mul", Fraction(1, 2))) == [61, 60]

    def test_out_of_range_dropped(self):
        u = unit_of([80, 92], [H, H])
        assert interval_transform(u, "add", 2) is None

    def test_all_rest_rejected(self):
        u = unit_of([REST], [Fraction(1)])
        with pytest.raises(ValueError):
            interval_transform(u, "add", 1)

    def test_broken_tie_is_cleared(self):
        notes = (
            Note(60, Q, tie_to_next=True),
            Note(60, Q, tie_from_prev=True),
            Note(64, H),
        )
        u = Unit(measures=(Measure(notes),), provenance=Provenance("t", 0))
        out = interval_transform(u, "add", 1)
        # the 0 interval inside the tie became +1; tie cannot survive
        assert unit_pitches(out) == [60, 61, 66]
        assert not out.notes[0].tie_to_next and not out.notes[1].tie_from_prev


class TestDoubleTime:
    def test_quarters_become_eighths(self):
        m = Measure(tuple(Note(60 + i, Q) for i in range(4)))
        out = double_time(m, m)
        assert len(out.notes) == 8
        assert all(n.duration == Fraction(1, 8) for n in out.notes)
        assert measure_sum(out) == out.meter

    def test_two_whole_rests(self):
        m = Measure((Note(REST, Fraction(1)),))
        out = double_time(m, m)
        assert [(n.pitch, n.duration) for n in out.notes] == [(REST, H), (REST, H)]

    def test_denominator_cap(self):
        m = Measure(tuple(Note(60, Fraction(1, 128)) for _ in range(128)))
        with pytest.raises(DurationError):
            double_time(m, m)

    def test_piece_variant_halves_measure_count(self):
        m = Measure(tuple(Note(60 + i, Q) for i in range(4)))
        p = Piece("p", (m,) * 7)
        dt = double_time_piece(p)
        assert len(dt.measures) == 3  # odd trailing measure dropped


class TestBuildLibrary:
    def brute_force_transpose_only(self, corpus, unit_length, shifts):
        """Independent enumeration oracle for transpose-only libraries."""
        seen = set()
        for piece in corpus.pieces:
            for off in range(len(piece.measures) - unit_length + 1):
                window = Unit(
                    measures=tuple(piece.measures[off : off + unit_length]),
                    provenance=Provenance(piece.id, off),
                )
                for k in sorted(shifts):
                    moved = transpose(window, k)
                    if moved is not None:
                        seen.add(moved.content_key())
        return seen

    def test_windows_times_shifts_bound(self, fixture_corpus):
        piece = fixture_corpus.pieces[0]
        sub = Corpus(
            pieces=(Piece(piece.id, piece.measures[:8]),), meter=fixture_corpus.meter
        )
        cfg = AugmentConfig(
            unit_length=4, transpose_shifts=(-1, 0, 1), mode=TRANSPOSE_ONLY
        )
        lib = build_library(sub, cfg)
        assert len(lib) <= 15  # 5 windows x 3 shifts, minus dups/range drops
        oracle = self.brute_force_transpose_only(sub, 4, (-1, 0, 1))
        assert {u.content_key() for u in lib.units} == oracle

    def test_distinct_measures_no_transforms(self):
        measures = tuple(
            Measure(tuple(Note(60 + i, Q) for _ in range(4))) for i in range(8)
        )
        c = Corpus(pieces=(Piece("p", measures),), meter=Fraction(1))
        cfg = AugmentConfig(unit_length=1, transpose_shifts=(0,), mode=TRANSPOSE_ONLY)
        assert len(build_library(c, cfg)) == 8

    def test_identical_measures_dedup_to_one(self):
        m = Measure(tuple(Note(60, Q) for _ in range(4)))
        c = Corpus(pieces=(Piece("p", (m,) * 8),), meter=Fraction(1))
        cfg = AugmentConfig(unit_length=1, transpose_shifts=(0,), mode=TRANSPOSE_ONLY)
        lib = build_library(c, cfg)
        assert len(lib) == 1
        assert len(lib.origins[0]) == 8  # every duplicate origin kept

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_library(
                Corpus(pieces=(), meter=Fraction(1)), AugmentConfig(unit_length=1)
            )

    def test_transpose_only_units_are_pure_transpositions(self, fixture_corpus):
        cfg = AugmentConfig(
            unit_length=2, transpose_shifts=(-2, 0, 2), mode=TRANSPOSE_ONLY
        )
        lib = build_library(fixture_corpus, cfg)
        by_id = {p.id: p for p in fixture_corpus.pieces}
        for unit, origins in zip(lib.units, lib.origins):
            prov = origins[0]
            tag = prov.transform
            shift = int(tag[1:]) if tag else 0
            src = by_id[prov.source_id]
            span = Unit(
                measures=tuple(src.measures[prov.offset : prov.offset + 2]),
                provenance=Provenance(prov.source_id, prov.offset),
            )
            expected = transpose(span, shift)
            assert expected is not None
            assert expected.content_key() == unit.content_key()

    def test_full_mode_grows_library(self, fixture_corpus):
        t_only = build_library(
            fixture_corpus,
            AugmentConfig(unit_length=1, transpose_shifts=(0,), mode=TRANSPOSE_ONLY),
        )
        full = build_library(
            fixture_corpus, AugmentConfig(unit_length=1, transpose_shifts=(0,), mode=FULL)
        )
        assert len(full) > len(t_only)

    def test_out_of_range_source_excluded(self):
        # pitch 20 sits below the admissible range and spans fine, so the
        # coverage shifts pull it inside; an explicit 0-shift must drop it
        m = Measure((Note(20, Fraction(1)),))
        c = Corpus(pieces=(Piece("low", (m,)),), meter=Fraction(1))
        lib = build_library(
            c, AugmentConfig(unit_length=1, transpose_shifts=(0,), mode=TRANSPOSE_ONLY)
        )
        assert len(lib) == 0


class TestTransposeCorpus:
    def test_covers_all_in_range_shifts(self, fixture_corpus):
        cfg = AugmentConfig(unit_length=1, transpose_shifts=None, mode=TRANSPOSE_ONLY)
        tcorp = transpose_corpus(fixture_corpus, cfg)
        assert len(tcorp.pieces) > len(fixture_corpus.pieces)
        for p in tcorp.pieces:
            pitches = [n.pitch for n in p.notes if n.pitch != REST]
            assert min(pitches) >= 36 and max(pitches) <= 92

    def test_explicit_shifts_include_original(self, fixture_corpus):
        cfg = AugmentConfig(
            unit_length=1, transpose_shifts=(-1, 1), mode=TRANSPOSE_ONLY
        )
        tcorp = transpose_corpus(fixture_corpus, cfg)
        ids = {p.id for p in tcorp.pieces}
        assert fixture_corpus.pieces[0].id in ids  # shift 0 always present


RANDOM_CASES = 2500


class TestRandomizedProperties:
    """Seeded random property loops shared with the acceptance suite."""

    def random_unit(self, rng) -> Unit:
        grid = [Q, Fraction(1, 8), H]
        notes = []
        left = Fraction(1)
        while left > 0:
            d = grid[int(rng.integers(len(grid)))]
            if d > left:
                d = left
            pitch = REST if rng.random() < 0.15 else int(rng.integers(40, 89))
            notes.append(Note(pitch, d))
            left -= d
        return Unit(measures=(Measure(tuple(notes)),), provenance=Provenance("r", 0))

    def test_transpose_round_trip(self):
        rng = stream_rng(77, "round-trip")
        for _ in range(RANDOM_CASES):
            u = self.random_unit(rng)
            k = int(rng.integers(-12, 13))
            up = transpose(u, k)
            if up is None:
                continue
            back = transpose(up, -k)
            assert back is not None
            assert back.content_key() == u.content_key()

    def test_identity_transforms(self):
        rng = stream_rng(77, "identities")
        for _ in range(RANDOM_CASES):
            u = self.random_unit(rng)
            if all(n.is_rest for n in u.notes):
                continue
            assert interval_transform(u, "add", 0).content_key() == u.content_key()
            assert interval_transform(u, "mul", 1).content_key() == u.content_key()

    def test_double_time_halves_every_duration(self):
        rng = stream_rng(77, "double-time")
        for _ in range(RANDOM_CASES):
            m1 = self.random_unit(rng).measures[0]
            m2 = self.random_unit(rng).measures[0]
            if any(
                n.duration.denominator > 64 for n in list(m1.notes) + list(m2.notes)
            ):
                continue
            out = double_time(m1, m2)
            src = list(m1.notes) + list(m2.notes)
            assert len(out.notes) == len(src)
            for a, b in zip(src, out.notes):
                assert b.duration == a.duration / 2
            assert measure_sum(out) == m1.meter

    def test_range_enforcement(self):
        rng = stream_rng(77, "range")
        for _ in range(RANDOM_CASES):
            u = self.random_unit(rng)
            k = int(rng.integers(-40, 41))
            moved = transpose(u, k)
            pitched = [n.pitch for n in u.notes if not n.is_rest]
            if moved is None:
                assert pitched and (
                    min(pitched) + k < 36 or max(pitched) + k > 92
                )
            else:
                assert all(
                    36 <= n.pitch <= 92 for n in moved.notes if not n.is_rest
                ) or k == 0


def reference_build_library(c, cfg: AugmentConfig) -> UnitLibrary:
    """The library builder as it was written before dedup keys were computed
    from integers: every transposed candidate is built as a unit, checked
    note by note against the pitch range and deduplicated by its measures."""

    def coverage_shifts(pitches):
        if not pitches:
            return [0]
        lo, hi = LIBRARY_PITCH_RANGE
        low, high = lo - min(pitches), hi - max(pitches)
        return [] if low > high else list(range(low, high + 1))

    def admissible(u):
        lo, hi = LIBRARY_PITCH_RANGE
        return all(n.is_rest or lo <= n.pitch <= hi for n in u.notes)

    units, origins, seen = [], [], {}
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
                    provenance=augment._with_tag(
                        Provenance(source_id=piece.id, offset=off), source_tag
                    ),
                )
                for variant in augment._pitch_variants(window, cfg):
                    pitched = [n.pitch for n in variant.notes if not n.is_rest]
                    if cfg.transpose_shifts is None:
                        shifts = coverage_shifts(pitched)
                    else:
                        shifts = sorted(set(cfg.transpose_shifts))
                    for k in shifts:
                        moved = transpose(variant, k)
                        if moved is None or not admissible(moved):
                            continue
                        key = moved.content_key()
                        if key not in seen:
                            seen[key] = len(units)
                            units.append(moved)
                            origins.append([moved.provenance])
                        else:
                            origins[seen[key]].append(moved.provenance)
    return UnitLibrary(
        units=tuple(units),
        origins=tuple(tuple(o) for o in origins),
        unit_length=cfg.unit_length,
        meter=c.meter,
    )


# Few pitches, so repeated windows, equal-pitch ties and transposed copies
# of one another are common; 20 and 100 lie outside the library range.
_PITCHES = [REST, REST, 20, 36, 40, 43, 45, 60, 62, 90, 92, 100]
_DURATIONS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 8), Fraction(3, 4), Fraction(1, 128)]


def _note(pitch, duration, ties=(False, False)):
    return Note(pitch, duration, *((False, False) if pitch == REST else ties))


@st.composite
def _measures(draw):
    notes = [
        _note(
            draw(st.sampled_from(_PITCHES)),
            draw(st.sampled_from(_DURATIONS)),
            draw(st.tuples(st.booleans(), st.booleans())),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        # a tie between equal pitches, which an interval transform may break
        pitch = draw(st.sampled_from([p for p in _PITCHES if p != REST]))
        notes[-1:] = [Note(pitch, Q, False, True), Note(pitch, Q, True, False)]
    return Measure(tuple(notes))


@st.composite
def _near_copy(draw, m):
    """``m`` transposed, or with one note re-timed or re-tied: a measure
    whose dedup key differs from a transposition of ``m`` in one field, or
    not at all."""
    change = draw(st.sampled_from(["shift", "duration", "ties"]))
    notes = list(m.notes)
    if change == "shift":
        k = draw(st.integers(-3, 3))
        notes = [n if n.is_rest else replace(n, pitch=n.pitch + k) for n in notes]
    else:
        at = draw(st.integers(0, len(notes) - 1))
        n = notes[at]
        if change == "duration":
            notes[at] = replace(n, duration=draw(st.sampled_from(_DURATIONS)))
        else:
            notes[at] = _note(n.pitch, n.duration, draw(st.tuples(st.booleans(), st.booleans())))
    return Measure(tuple(notes))


@st.composite
def _corpora(draw):
    pool = draw(st.lists(_measures(), min_size=1, max_size=3))
    pool += [draw(_near_copy(m)) for m in pool for _ in range(draw(st.integers(0, 2)))]
    pieces = []
    for i in range(draw(st.integers(1, 3))):
        measures = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        pieces.append(Piece(f"p{i}", tuple(measures)))
    return Corpus(pieces=tuple(pieces), meter=Fraction(1))


_SHIFTS = st.one_of(
    st.none(),
    st.lists(st.integers(-8, 8), min_size=1, max_size=5).map(tuple),
    st.sampled_from([(0,), (-2, -1, 0, 1, 2), (1, -3), (5, 5, -60)]),
)


class TestBuildLibraryMatchesReference:
    """Integer dedup keys give the units, origins and bytes of the loop that
    built and compared every transposed candidate."""

    @settings(deadline=None, max_examples=120)
    @given(
        c=_corpora(),
        mode=st.sampled_from([FULL, TRANSPOSE_ONLY]),
        unit_length=st.sampled_from([1, 2, 4]),
        shifts=_SHIFTS,
    )
    def test_same_library(self, tmp_path_factory, c, mode, unit_length, shifts):
        cfg = AugmentConfig(unit_length=unit_length, mode=mode, transpose_shifts=shifts)
        lib = build_library(c, cfg)
        ref = reference_build_library(c, cfg)
        assert lib.units == ref.units
        assert lib.origins == ref.origins
        out = tmp_path_factory.mktemp("libs")
        save_library(lib, out / "new.lib")
        save_library(ref, out / "ref.lib")
        assert (out / "new.lib").read_bytes() == (out / "ref.lib").read_bytes()

    def test_fixture_libraries_are_the_reference(self, fixture_corpus):
        for mode in (FULL, TRANSPOSE_ONLY):
            for shifts in (None, (-2, -1, 0, 1, 2)):
                cfg = AugmentConfig(unit_length=2, mode=mode, transpose_shifts=shifts)
                lib = build_library(fixture_corpus, cfg)
                ref = reference_build_library(fixture_corpus, cfg)
                assert lib.units == ref.units and lib.origins == ref.origins

    def test_all_rest_unit_keeps_every_shift_tag(self):
        rest = Measure((Note(REST, Fraction(1)),))
        c = Corpus(pieces=(Piece("r", (rest, rest)),), meter=Fraction(1))
        cfg = AugmentConfig(unit_length=1, transpose_shifts=(2, -1), mode=TRANSPOSE_ONLY)
        lib = build_library(c, cfg)
        assert len(lib) == 1
        assert [o.transform for o in lib.origins[0]] == ["t-1", "t+2", "t-1", "t+2"]
        assert lib.origins == reference_build_library(c, cfg).origins


# Equal values written differently (2/8 and 1/4, the int 1 and Fraction(1)),
# and few of them, so drawn units are often equal without being identical.
_KEY_DURATIONS = [Q, Fraction(2, 8), H, 1, Fraction(1)]
_KEY_METERS = [1, Fraction(1), Fraction(4, 4), Fraction(3, 4)]


@st.composite
def _key_units(draw):
    meter = draw(st.sampled_from(_KEY_METERS))
    measures = []
    for _ in range(draw(st.sampled_from([1, 2]))):
        notes = [
            _note(
                draw(st.sampled_from([REST, 60, 61])),
                draw(st.sampled_from(_KEY_DURATIONS)),
                draw(st.tuples(st.booleans(), st.booleans())),
            )
            for _ in range(draw(st.integers(1, 2)))
        ]
        measures.append(Measure(tuple(notes), meter))
    return Unit(tuple(measures), Provenance("k", 0))


class TestIndexOf:
    @settings(deadline=None)
    @given(st.lists(_key_units(), min_size=2, max_size=12))
    def test_integer_key_equality_is_content_key_equality(self, units):
        for a in units:
            for b in units:
                same_ints = augment._content_ints(a) == augment._content_ints(b)
                assert same_ints == (a.content_key() == b.content_key())

    @settings(deadline=None)
    @given(st.lists(_key_units(), min_size=1, max_size=12), st.lists(_key_units(), max_size=6))
    def test_index_of_agrees_with_a_content_key_dict(self, units, strangers):
        distinct = list({u.content_key(): u for u in units}.values())
        lib = UnitLibrary(tuple(distinct), tuple((u.provenance,) for u in distinct), 1, 1)
        by_key = {u.content_key(): i for i, u in enumerate(distinct)}
        for probe in units + strangers:
            assert lib.index_of(probe) == by_key.get(probe.content_key())
