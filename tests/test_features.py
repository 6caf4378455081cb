from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from unitsel._util import canonical_json, sha256_hex
from unitsel.augment import FULL, AugmentConfig, build_library
from unitsel.features import (
    FAMILIES,
    FeatureVocabulary,
    _symbol_from_json,
    _symbol_json,
    build_vocab,
    extract,
    extract_matrix,
)
from unitsel.music import (
    REST,
    Measure,
    Note,
    Provenance,
    Unit,
    pitch_class,
)

Q = Fraction(1, 4)
WHOLE = Fraction(1, 1)

# Any symbol of each family: ints and positive durations, not only musical ones.
_INT = st.integers(-(2**40), 2**40)
_FRACTION = st.fractions(min_value=Fraction(1, 10**6), max_value=64)
_SYMBOLS = {
    "note": st.tuples(_INT, _FRACTION),
    "pitch": _INT,
    "dur": _FRACTION,
    "class": _INT,
    "class_dur": st.tuples(_INT, _FRACTION),
    "pitch_bigram": st.tuples(_INT, _INT),
    "dur_bigram": st.tuples(_FRACTION, _FRACTION),
    "class_bigram": st.tuples(_INT, _INT),
}


def unit_of(events, length=1):
    notes = tuple(Note(p, d) for p, d in events)
    return Unit(measures=(Measure(notes),) * length if length == 1 else (Measure(notes),),
                provenance=Provenance("t", 0))


@pytest.fixture
def rest_unit():
    return Unit(measures=(Measure((Note(REST, WHOLE),), WHOLE),), provenance=Provenance("t", 0))


@pytest.fixture
def c4_run():
    return unit_of([(60, Q)] * 4)


class TestBuildVocab:
    def test_whole_rest_library(self, rest_unit):
        vocab = build_vocab([rest_unit])
        assert vocab.family_symbols["pitch"] == (REST,)
        assert vocab.family_symbols["dur"] == (WHOLE,)
        assert vocab.family_symbols["pitch_bigram"] == ()
        assert vocab.family_symbols["dur_bigram"] == ()
        assert vocab.family_symbols["class_bigram"] == ()

    def test_shared_symbols_same_vocab(self, c4_run):
        twin = unit_of([(60, Q)] * 4)
        one = build_vocab([c4_run])
        both = build_vocab([c4_run, twin])
        assert one.family_symbols == both.family_symbols

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_family_sizes_match_brute_force(self, fixture_corpus):
        lib = build_library(
            fixture_corpus, AugmentConfig(unit_length=1, transpose_shifts=(0,))
        )
        vocab = build_vocab(lib)
        # independent enumeration of distinct symbols per family
        pitches, durs, classes = set(), set(), set()
        notes_t, class_dur = set(), set()
        p_bi, d_bi, c_bi = set(), set(), set()
        for u in lib.units:
            ns = u.notes
            for n in ns:
                pitches.add(n.pitch)
                durs.add(n.duration)
                classes.add(pitch_class(n.pitch))
                notes_t.add((n.pitch, n.duration))
                class_dur.add((pitch_class(n.pitch), n.duration))
            for a, b in zip(ns, ns[1:]):
                p_bi.add((a.pitch, b.pitch))
                d_bi.add((a.duration, b.duration))
                c_bi.add((pitch_class(a.pitch), pitch_class(b.pitch)))
        expected = {
            "note": len(notes_t),
            "pitch": len(pitches),
            "dur": len(durs),
            "class": len(classes),
            "class_dur": len(class_dur),
            "pitch_bigram": len(p_bi),
            "dur_bigram": len(d_bi),
            "class_bigram": len(c_bi),
        }
        for fam in FAMILIES:
            assert len(vocab.family_symbols[fam]) == expected[fam], fam

    def test_dimension_formula(self, fixture_corpus):
        lib = build_library(
            fixture_corpus, AugmentConfig(unit_length=1, transpose_shifts=(0,))
        )
        vocab = build_vocab(lib)
        assert vocab.dimension == sum(
            len(vocab.family_symbols[f]) + 1 for f in FAMILIES
        ) + 2


class TestExtract:
    def test_whole_rest_vector(self, rest_unit):
        vocab = build_vocab([rest_unit])
        vec = extract(rest_unit, vocab)
        assert vec[vocab.index("note", (REST, WHOLE))] == 1.0
        assert vec[vocab.index("pitch", REST)] == 1.0
        assert vec[vocab.index("dur", WHOLE)] == 1.0
        assert vec[-2] == 0.0 and vec[-1] == 0.0
        assert vec.sum() == 5.0  # one count in each of the five unigram families
        assert np.any(vec > 0)  # never all-zero

    def test_hand_counts_for_c4_run(self, c4_run):
        vocab = build_vocab([c4_run])
        vec = extract(c4_run, vocab)
        assert vec[vocab.index("pitch", 60)] == 4.0
        assert vec[vocab.index("dur", Q)] == 4.0
        assert vec[vocab.index("pitch_bigram", (60, 60))] == 3.0
        assert vec[vocab.index("class_bigram", (0, 0))] == 3.0

    def test_duration_family_sums_to_note_count(self, fixture_corpus):
        lib = build_library(
            fixture_corpus, AugmentConfig(unit_length=2, transpose_shifts=(0,))
        )
        vocab = build_vocab(lib)
        for u in lib.units[:20]:
            vec = extract(u, vocab)
            lo = vocab._offsets["dur"]
            hi = lo + len(vocab.family_symbols["dur"]) + 1
            assert vec[lo:hi].sum() == len(u.notes)

    def test_bigram_count_is_notes_minus_one(self, fixture_corpus):
        lib = build_library(
            fixture_corpus, AugmentConfig(unit_length=1, transpose_shifts=(0,))
        )
        vocab = build_vocab(lib)
        for u in lib.units[:20]:
            vec = extract(u, vocab)
            lo = vocab._offsets["pitch_bigram"]
            hi = lo + len(vocab.family_symbols["pitch_bigram"]) + 1
            assert vec[lo:hi].sum() == len(u.notes) - 1

    def test_octave_shift_preserves_class_features(self):
        base = unit_of([(60, Q), (64, Q), (67, Q), (64, Q)])
        up = unit_of([(72, Q), (76, Q), (79, Q), (76, Q)])
        vocab = build_vocab([base, up])
        v1, v2 = extract(base, vocab), extract(up, vocab)
        for fam in ("class", "class_dur", "class_bigram", "dur", "dur_bigram"):
            lo = vocab._offsets[fam]
            hi = lo + len(vocab.family_symbols[fam]) + 1
            np.testing.assert_array_equal(v1[lo:hi], v2[lo:hi])
        lo = vocab._offsets["pitch"]
        hi = lo + len(vocab.family_symbols["pitch"]) + 1
        assert not np.array_equal(v1[lo:hi], v2[lo:hi])

    def test_extract_is_pure(self, c4_run):
        vocab = build_vocab([c4_run])
        np.testing.assert_array_equal(extract(c4_run, vocab), extract(c4_run, vocab))

    def test_unseen_symbols_hit_family_oov(self, c4_run):
        vocab = build_vocab([c4_run])
        other = unit_of([(61, Q)] * 4)
        vec = extract(other, vocab)
        assert vec[vocab.oov_index("pitch")] == 4.0
        assert vec[vocab.oov_index("note")] == 4.0
        assert vec[vocab.oov_index("pitch_bigram")] == 3.0
        assert vec[vocab.index("dur", Q)] == 4.0  # duration was in vocab

    def test_tie_flags(self):
        notes = (
            Note(60, Q, tie_from_prev=True),
            Note(62, Q),
            Note(64, Q),
            Note(65, Q, tie_to_next=True),
        )
        u = Unit(measures=(Measure(notes),), provenance=Provenance("t", 0))
        vocab = build_vocab([u])
        vec = extract(u, vocab)
        assert vec[-2] == 1.0 and vec[-1] == 1.0


class TestSnapshot:
    def test_round_trip_and_hash(self, fixture_corpus):
        lib = build_library(
            fixture_corpus, AugmentConfig(unit_length=1, transpose_shifts=(0,))
        )
        vocab = build_vocab(lib)
        again = FeatureVocabulary.from_snapshot(vocab.snapshot())
        assert again.family_symbols == vocab.family_symbols
        assert again.hash_hex() == vocab.hash_hex()
        u = lib.units[0]
        np.testing.assert_array_equal(extract(u, vocab), extract(u, again))

    def test_snapshot_bytes_are_pinned(self, fixture_corpus):
        # every archive embeds this snapshot: a codec change that reorders or
        # rewrites its entries changes the bytes of every archive
        lib = build_library(
            fixture_corpus,
            AugmentConfig(unit_length=1, transpose_shifts=(-2, -1, 0, 1, 2), mode=FULL),
        )
        snap = build_vocab(lib).snapshot()
        assert sha256_hex(canonical_json(snap)) == (
            "13ab7b1ea7b92c9ae4d2df1eaa93ec6e9f959151c31581e19492c1037976919c"
        )

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(FAMILIES).flatmap(lambda f: st.tuples(st.just(f), _SYMBOLS[f])))
    def test_symbol_round_trip(self, family_and_symbol):
        family, sym = family_and_symbol
        assert _symbol_from_json(family, _symbol_json(family, sym)) == sym

    @settings(deadline=None, max_examples=50)
    @given(
        st.fixed_dictionaries({f: st.lists(_SYMBOLS[f], max_size=6, unique=True) for f in FAMILIES})
    )
    def test_snapshot_round_trip(self, families):
        snap = FeatureVocabulary(families).snapshot()
        assert FeatureVocabulary.from_snapshot(snap).snapshot() == snap

    @pytest.mark.parametrize(
        "family,raw",
        [
            ("note", [60]),
            ("note", [60, 1, 4, 1]),
            ("note", [True, 1, 4]),
            ("note", [60.0, 1, 4]),
            ("pitch", [60]),
            ("pitch", True),
            ("pitch", 60.5),
            ("dur", 4),
            ("dur", [1, "4"]),
            ("class_dur", [0, 1, None]),
            ("pitch_bigram", {"a": 1}),
            ("dur_bigram", [1, 4, 1]),
            ("class_bigram", "01"),
        ],
    )
    def test_entry_that_is_not_exactly_integers_is_refused(self, family, raw):
        with pytest.raises(ValueError, match=f"'{family}' vocabulary entry"):
            _symbol_from_json(family, raw)

    def test_matrix_matches_rows(self, fixture_corpus):
        lib = build_library(
            fixture_corpus, AugmentConfig(unit_length=1, transpose_shifts=(0,))
        )
        vocab = build_vocab(lib)
        mat = extract_matrix(lib.units[:5], vocab)
        for i, u in enumerate(lib.units[:5]):
            np.testing.assert_array_equal(mat[i], extract(u, vocab))


# --- equivalence with the per-unit reference featuriser ---------------------
#
# The reference below is the straightforward per-unit featuriser: list every
# symbol of a unit by family, then look each one up. ``extract_matrix`` and
# ``build_vocab`` must agree with it exactly, whatever the mix of units.


def _ref_unit_events(u: Unit) -> dict[str, list]:
    notes = u.notes
    events: dict[str, list] = {
        "note": [(n.pitch, n.duration) for n in notes],
        "pitch": [n.pitch for n in notes],
        "dur": [n.duration for n in notes],
        "class": [pitch_class(n.pitch) for n in notes],
        "class_dur": [(pitch_class(n.pitch), n.duration) for n in notes],
        "pitch_bigram": [],
        "dur_bigram": [],
        "class_bigram": [],
    }
    for a, b in zip(notes, notes[1:]):
        events["pitch_bigram"].append((a.pitch, b.pitch))
        events["dur_bigram"].append((a.duration, b.duration))
        events["class_bigram"].append((pitch_class(a.pitch), pitch_class(b.pitch)))
    return events


def _ref_build_vocab(units) -> FeatureVocabulary:
    seen: dict[str, set] = {fam: set() for fam in FAMILIES}
    for u in units:
        for fam, events in _ref_unit_events(u).items():
            seen[fam].update(events)
    return FeatureVocabulary({fam: sorted(seen[fam]) for fam in FAMILIES})


def _ref_extract(u: Unit, vocab: FeatureVocabulary) -> np.ndarray:
    offset, index = 0, {}
    for fam in FAMILIES:
        syms = vocab.family_symbols[fam]
        local = {s: i for i, s in enumerate(syms)}
        index[fam] = (offset, local, len(syms))
        offset += len(syms) + 1
    vec = np.zeros(vocab.dimension)
    for fam, events in _ref_unit_events(u).items():
        base, local, oov = index[fam]
        for sym in events:
            vec[base + local.get(sym, oov)] += 1.0
    vec[-2] = 1.0 if u.notes[0].tie_from_prev else 0.0
    vec[-1] = 1.0 if u.notes[-1].tie_to_next else 0.0
    return vec


@pytest.fixture(scope="module")
def loaded_units(fixture_corpus, tmp_path_factory):
    """Units read back from a saved library, so equal notes are one object."""
    from unitsel.corpus import load_library, save_library

    path = tmp_path_factory.mktemp("lib") / "fixture.lib"
    save_library(
        build_library(fixture_corpus, AugmentConfig(unit_length=2, transpose_shifts=(0,))),
        path,
    )
    return load_library(path).units


# A small alphabet, so that notes and pairs repeat and a vocabulary built
# from a few units leaves many symbols out of vocabulary.
_PITCHES = st.sampled_from([REST, 48, 60, 61, 67, 72, 127])
_DURS = st.sampled_from([Q, Fraction(1, 8), Fraction(3, 8), Fraction(1, 2), WHOLE])


@st.composite
def _notes(draw):
    pitch, dur = draw(_PITCHES), draw(_DURS)
    if pitch == REST:
        return Note(pitch, dur)
    return Note(pitch, dur, tie_from_prev=draw(st.booleans()), tie_to_next=draw(st.booleans()))


@st.composite
def _unit_mixes(draw, loaded):
    """Fresh units (one-note ones among them, notes drawn from a shared pool
    so one Note object recurs), loaded units and their transpositions."""
    from unitsel.augment import transpose

    pool = draw(st.lists(_notes(), min_size=1, max_size=6))
    pick = st.integers(0, len(pool) - 1).map(lambda i: pool[i])
    measure = st.lists(pick, min_size=1, max_size=4).map(lambda ns: Measure(tuple(ns)))
    fresh = st.builds(
        lambda ms: Unit(measures=tuple(ms), provenance=Provenance("h", 0)),
        st.sampled_from([1, 2, 4]).flatmap(lambda k: st.lists(measure, min_size=k, max_size=k)),
    )
    from_lib = st.integers(0, len(loaded) - 1).map(lambda i: loaded[i])
    moved = st.tuples(from_lib, st.integers(-3, 3)).map(lambda a: transpose(*a))
    units = draw(st.lists(st.one_of(fresh, from_lib, moved), min_size=1, max_size=8))
    return [u for u in units if u is not None] or [loaded[0]]


class TestMatchesReference:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matrix_and_vocab_match_reference(self, loaded_units, data):
        units = data.draw(_unit_mixes(loaded_units))
        train = units[: data.draw(st.integers(1, len(units)))]
        vocab = build_vocab(train)
        assert vocab.snapshot() == _ref_build_vocab(train).snapshot()
        expected = np.array([_ref_extract(u, vocab) for u in units])
        got = extract_matrix(units, vocab)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        assert np.array_equal(extract(units[-1], vocab), expected[-1])

    def test_one_note_units_and_barline_bigrams(self):
        one = unit_of([(60, Q)])
        a, b = Note(60, Q), Note(62, Fraction(3, 4))
        across = Unit(
            measures=(Measure((a, b)), Measure((b, a))), provenance=Provenance("t", 0)
        )
        units = [one, across, one]
        vocab = build_vocab(units)
        assert vocab.snapshot() == _ref_build_vocab(units).snapshot()
        # the barline pair (b, b) is counted; no pair joins two units
        assert (62, 62) in vocab.family_symbols["pitch_bigram"]
        assert (60, 60) not in vocab.family_symbols["pitch_bigram"]
        assert np.array_equal(
            extract_matrix(units, vocab), np.array([_ref_extract(u, vocab) for u in units])
        )

    def test_empty_input_gives_no_rows(self, c4_run):
        vocab = build_vocab([c4_run])
        assert extract_matrix([], vocab).shape == (0, vocab.dimension)
