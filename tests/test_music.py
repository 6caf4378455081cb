from fractions import Fraction

import pytest

from unitsel.music import (
    REST,
    REST_CLASS,
    DurationError,
    Measure,
    Note,
    Piece,
    Provenance,
    Unit,
    assemble_piece,
    concatenate_units,
    measure_sum,
    pitch_class,
    slice_units,
    validate_piece,
    whole_rest_measure,
)

Q = Fraction(1, 4)


def quarter(p, **kw):
    return Note(p, Q, **kw)


def simple_measure(*pitches):
    return Measure(tuple(quarter(p) for p in pitches))


class TestPitchClass:
    def test_c4_is_class_zero(self):
        assert pitch_class(60) == 0

    def test_c_sharp(self):
        assert pitch_class(61) == 1

    def test_rest_maps_to_distinguished_class(self):
        assert pitch_class(REST) == REST_CLASS

    def test_octave_invariance(self):
        for p in range(0, 116):
            assert pitch_class(p) == pitch_class(p + 12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pitch_class(128)
        with pytest.raises(ValueError):
            pitch_class(-2)


class TestMeasureSum:
    def test_four_quarters(self):
        assert measure_sum(simple_measure(60, 62, 64, 65)) == Fraction(1)

    def test_two_halves(self):
        m = Measure((Note(60, Fraction(1, 2)), Note(62, Fraction(1, 2))))
        assert measure_sum(m) == Fraction(1)

    def test_thirds_sum_exactly(self):
        # rational arithmetic: no floating point drift
        m = Measure(tuple(Note(60, Fraction(1, 3)) for _ in range(3)))
        assert measure_sum(m) == Fraction(1, 1)

    def test_whole_rest_measure_fills_meter(self):
        m = whole_rest_measure(Fraction(3, 4))
        assert measure_sum(m) == Fraction(3, 4)


class TestNoteInvariants:
    def test_rest_cannot_tie(self):
        with pytest.raises(ValueError):
            Note(REST, Q, tie_to_next=True)

    def test_denominator_cap(self):
        Note(60, Fraction(1, 128))  # at the cap is fine
        with pytest.raises(DurationError):
            Note(60, Fraction(1, 256))

    def test_nonpositive_duration(self):
        with pytest.raises(DurationError):
            Note(60, Fraction(0, 1))

    def test_pitch_range(self):
        with pytest.raises(ValueError):
            Note(130, Q)


class TestUnitInvariants:
    def test_allowed_lengths(self):
        prov = Provenance("p", 0)
        m = simple_measure(60, 62, 64, 65)
        for n in (1, 2, 4):
            Unit(measures=(m,) * n, provenance=prov)
        with pytest.raises(ValueError):
            Unit(measures=(m,) * 3, provenance=prov)

    def test_mixed_meters_rejected(self):
        m1 = simple_measure(60, 62, 64, 65)
        m2 = Measure((Note(60, Fraction(3, 4)),), meter=Fraction(3, 4))
        with pytest.raises(ValueError):
            Unit(measures=(m1, m2), provenance=Provenance("p", 0))


class TestValidatePiece:
    def test_valid_piece(self):
        p = Piece("ok", (simple_measure(60, 62, 64, 65),) * 2)
        assert validate_piece(p) == []

    def test_duration_mismatch_located(self):
        short = Measure((quarter(60), quarter(62), quarter(64)))
        p = Piece("bad", (short,))
        violations = validate_piece(p)
        assert len(violations) == 1
        assert "duration-mismatch at m0" in violations[0]

    def test_dangling_tie_at_end(self):
        m = Measure(
            (quarter(60), quarter(62), quarter(64), quarter(65, tie_to_next=True))
        )
        p = Piece("dangle", (m,))
        assert any("dangling-tie" in v for v in validate_piece(p))

    def test_dangling_tie_at_start(self):
        m = Measure(
            (quarter(60, tie_from_prev=True), quarter(62), quarter(64), quarter(65))
        )
        assert any("dangling-tie" in v for v in validate_piece(Piece("d", (m,))))

    def test_tie_flag_mismatch(self):
        m1 = Measure(
            (quarter(60), quarter(62), quarter(64), quarter(65, tie_to_next=True))
        )
        m2 = simple_measure(60, 62, 64, 65)  # first note not tie_from_prev
        assert any("tie-mismatch" in v for v in validate_piece(Piece("x", (m1, m2))))

    def test_tie_pitch_mismatch(self):
        m1 = Measure(
            (quarter(60), quarter(62), quarter(64), quarter(65, tie_to_next=True))
        )
        m2 = Measure(
            (quarter(60, tie_from_prev=True), quarter(62), quarter(64), quarter(65))
        )
        assert any(
            "tie-pitch-mismatch" in v for v in validate_piece(Piece("x", (m1, m2)))
        )

    def test_fixture_corpus_all_valid(self, fixture_corpus):
        for p in fixture_corpus.pieces:
            assert validate_piece(p) == []


class TestConcatenation:
    def unit(self, *pitches, tie_out=False):
        notes = [quarter(p) for p in pitches]
        if tie_out:
            notes[-1] = quarter(pitches[-1], tie_to_next=True)
        return Unit(
            measures=(Measure(tuple(notes)),), provenance=Provenance("src", 0)
        )

    def test_seam_tie_cleared_when_one_sided(self):
        a = self.unit(60, 62, 64, 65, tie_out=True)
        b = self.unit(60, 62, 64, 65)
        piece = concatenate_units([a, b], "joined")
        assert validate_piece(piece) == []
        assert piece.measures[0].notes[-1].tie_to_next is False

    def test_seam_tie_kept_when_both_sides_agree(self):
        a = self.unit(60, 62, 64, 65, tie_out=True)
        b_notes = (quarter(65, tie_from_prev=True), quarter(62), quarter(64), quarter(65))
        b = Unit(measures=(Measure(b_notes),), provenance=Provenance("src", 1))
        piece = concatenate_units([a, b], "joined")
        assert validate_piece(piece) == []
        assert piece.measures[0].notes[-1].tie_to_next is True
        assert piece.measures[1].notes[0].tie_from_prev is True

    def test_boundary_ties_cleared(self):
        notes = (quarter(60, tie_from_prev=True), quarter(62), quarter(64), quarter(65))
        u = Unit(measures=(Measure(notes),), provenance=Provenance("src", 2))
        piece = concatenate_units([u], "solo")
        assert piece.measures[0].notes[0].tie_from_prev is False

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concatenate_units([], "none")
        with pytest.raises(ValueError):
            assemble_piece([], "none")


class TestSliceUnits:
    def test_window_counts(self):
        m = simple_measure(60, 62, 64, 65)
        p = Piece("p", (m,) * 8)
        assert len(slice_units(p, 4)) == 2
        assert len(slice_units(p, 2)) == 4

    def test_provenance_offsets(self):
        m = simple_measure(60, 62, 64, 65)
        p = Piece("p", (m,) * 6)
        units = slice_units(p, 2)
        assert [u.provenance.offset for u in units] == [0, 2, 4]
        assert all(u.provenance.source_id == "p" for u in units)
