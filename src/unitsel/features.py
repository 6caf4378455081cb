"""Bag-of-words featurization of units.

Eight count families (note tuples, pitches, durations, pitch classes,
class-duration tuples, and the pitch/duration/class bigrams) plus two tie
flags. Family vocabularies are corpus-derived; every family carries one
out-of-vocabulary slot so held-out material never fails extraction.
Bigrams run across barlines inside a unit but never across units.

Symbols are looked up by an all-integer key (a duration is its numerator
and denominator), the same lists of ints the vocabulary snapshot stores,
so counting never hashes a Fraction.
"""

from __future__ import annotations

import copy
import threading
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._util import canonical_json, exact_ints, sha256_hex
from .music import Unit, pitch_class

# Each family's symbol parts (one or two): an int, or a Fraction that keys
# and snapshots write as numerator and denominator. One part is no 1-tuple.
_PARTS = {
    "note": (int, Fraction),
    "pitch": (int,),
    "dur": (Fraction,),
    "class": (int,),
    "class_dur": (int, Fraction),
    "pitch_bigram": (int, int),
    "dur_bigram": (Fraction, Fraction),
    "class_bigram": (int, int),
}
FAMILIES = tuple(_PARTS)

# The families counted once per note, and once per adjacent pair of notes.
NOTE_FAMILIES = FAMILIES[:5]
PAIR_FAMILIES = FAMILIES[5:]

N_TIE_FLAGS = 2


def _part_ints(part, value) -> tuple[int, ...]:
    return (value,) if part is int else (value.numerator, value.denominator)


def _symbol_key(family: str, sym):
    """The hashable all-integer form of a symbol: the tuple of its integers,
    or the integer alone in a one-int family (``pitch``, ``class``)."""
    parts = _PARTS[family]
    if len(parts) == 1:
        return sym if parts[0] is int else _part_ints(Fraction, sym)
    return _part_ints(parts[0], sym[0]) + _part_ints(parts[1], sym[1])


def _symbol_json(family: str, sym) -> list | int:
    key = _symbol_key(family, sym)
    return key if type(key) is int else list(key)


def _symbol_of_key(family: str, key):
    """The symbol whose key (or snapshot entry) is ``key``, unchecked."""
    parts = _PARTS[family]
    if len(parts) == 1:
        return key if parts[0] is int else Fraction(key[0], key[1])
    first = key[0] if parts[0] is int else Fraction(key[0], key[1])
    return (first, key[-1] if parts[1] is int else Fraction(key[-2], key[-1]))


def _symbol_from_json(family: str, raw):
    """The symbol of a snapshot entry. Anything but exactly the family's
    integers (``true`` and ``1.0`` are none) is a ValueError."""
    parts = _PARTS[family]
    what = f"a {family!r} vocabulary entry"
    if parts == (int,):
        if type(raw) is not int:
            raise ValueError(f"{what} must be an integer, got {raw!r}")
        return raw
    return _symbol_of_key(family, exact_ints(raw, what, len(parts) + parts.count(Fraction)))


class Vocabulary:
    _hash_hex: str | None = None

    def hash_hex(self) -> str:
        """sha256 of the canonical snapshot, computed once: a vocabulary (the
        feature or the note vocabulary) is never changed after construction."""
        if self._hash_hex is None:
            self._hash_hex = sha256_hex(canonical_json(self.snapshot()))
        return self._hash_hex


class FeatureVocabulary(Vocabulary):
    """Dense disjoint index space over the eight families plus tie flags.

    Each family block ends with its OOV slot; the last two dimensions are
    the first-note and last-note tie flags.
    """

    def __init__(self, family_symbols: dict[str, Sequence]):
        self.family_symbols = {
            fam: tuple(family_symbols.get(fam, ())) for fam in FAMILIES
        }
        self._columns: dict[str, dict] = {}
        self._offsets: dict[str, int] = {}
        offset = 0
        for fam in FAMILIES:
            syms = self.family_symbols[fam]
            self._columns[fam] = {
                _symbol_key(fam, sym): offset + i for i, sym in enumerate(syms)
            }
            if len(self._columns[fam]) != len(syms):
                raise ValueError(f"duplicate {fam!r} vocabulary entries")
            self._offsets[fam] = offset
            offset += len(syms) + 1  # +1 for the family OOV slot
        self.dimension = offset + N_TIE_FLAGS

    def family_size(self, family: str) -> int:
        return len(self.family_symbols[family])

    def index(self, family: str, symbol) -> int:
        """Global index of a symbol; unseen symbols map to the family OOV slot."""
        return self._columns[family].get(
            _symbol_key(family, symbol), self.oov_index(family)
        )

    def columns(self, families: Sequence[str], keys: list[tuple]) -> np.ndarray:
        """Global indices of symbol keys: row ``r`` holds the index of
        ``keys[r][j]`` in ``families[j]`` (OOV slot when unseen)."""
        lookups = [
            (self._columns[fam].get, self.oov_index(fam)) for fam in families
        ]
        cols = [get(key, oov) for row in keys for (get, oov), key in zip(lookups, row)]
        return np.array(cols, dtype=np.intp).reshape(-1, len(families))

    def oov_index(self, family: str) -> int:
        return self._offsets[family] + len(self.family_symbols[family])

    def snapshot(self) -> dict:
        return {
            "type": "features",
            "families": {
                fam: [_symbol_json(fam, s) for s in self.family_symbols[fam]]
                for fam in FAMILIES
            },
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "FeatureVocabulary":
        if snap.get("type") != "features":
            raise ValueError("not a feature-vocabulary snapshot")
        return cls(
            {
                fam: [_symbol_from_json(fam, raw) for raw in snap["families"][fam]]
                for fam in FAMILIES
            }
        )


def _note_keys(note: tuple) -> tuple:
    """Keys of a (pitch, numerator, denominator) note in NOTE_FAMILIES."""
    pitch, num, den = note
    cls = pitch_class(pitch)
    return (note, pitch, (num, den), cls, (cls, num, den))


def _pair_keys(a: tuple, b: tuple) -> tuple:
    """Keys of two adjacent (pitch, numerator, denominator) notes in PAIR_FAMILIES."""
    return ((a[0], b[0]), (*a[1:], *b[1:]), (pitch_class(a[0]), pitch_class(b[0])))


class NoteTable:
    """The notes of some units as small integer ids over their distinct values.

    ``ids`` holds one id per note, units concatenated in order, and unit
    ``i`` owns ``ids[starts[i]:starts[i + 1]]``; id ``k`` stands for
    ``distinct[k]``, a (pitch, numerator, denominator) triple. Notes are
    matched by object identity first, so a library whose notes are shared
    (see ``corpus.load_library``) reads each distinct note's value once.
    ``pair_at`` lists the positions ``i`` whose pair ``(i, i + 1)`` lies
    inside one unit, ``pairs`` the distinct pairs among them and
    ``pair_of`` the pair at each such position. ``ties`` holds each unit's
    first-note ``tie_from_prev`` and last-note ``tie_to_next``.

    A ``UnitLibrary`` keeps one table (``UnitLibrary.note_table``);
    ``rows`` cuts it into the slices that ``extract_matrix`` counts, and
    the slices share the table's column lookups (``columns``).
    """

    def __init__(self, units: Iterable[Unit]):
        # the list keeps every note alive, so no id() is reused meanwhile
        units = list(units)
        by_object: dict[int, int] = {}
        by_value: dict[tuple, int] = {}
        ids: list[int] = []
        starts = [0]
        ties = []
        for u in units:
            for m in u.measures:
                for n in m.notes:
                    k = by_object.get(id(n))
                    if k is None:
                        d = n.duration
                        k = by_value.setdefault(
                            (n.pitch, d.numerator, d.denominator), len(by_value)
                        )
                        by_object[id(n)] = k
                    ids.append(k)
            starts.append(len(ids))
            first, last = u.measures[0].notes[0], u.measures[-1].notes[-1]
            ties.append((first.tie_from_prev, last.tie_to_next))
        self.distinct = list(by_value)
        self.ids = np.array(ids, dtype=np.intp)
        self.starts = np.array(starts, dtype=np.intp)
        self.ties = np.array(ties, dtype=float).reshape(-1, N_TIE_FLAGS)
        inner = np.ones(max(len(ids) - 1, 0), dtype=bool)
        inner[self.starts[1:-1] - 1] = False
        self.pair_at = np.flatnonzero(inner)
        n_distinct = max(len(self.distinct), 1)
        codes = self.ids[self.pair_at] * n_distinct + self.ids[self.pair_at + 1]
        codes, self.pair_of = np.unique(codes, return_inverse=True)
        self.pairs = [
            (self.distinct[a], self.distinct[b])
            for a, b in zip(*np.divmod(codes, n_distinct))
        ]
        self._columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.starts) - 1

    def rows(self, start: int, stop: int) -> "NoteTable":
        """The table of units ``start:stop``: views of this table's arrays,
        with its distinct notes, pairs and column lookups shared."""
        part = copy.copy(self)
        a, b = self.starts[start], self.starts[stop]
        lo, hi = np.searchsorted(self.pair_at, (a, b))
        part.ids = self.ids[a:b]
        part.starts = self.starts[start : stop + 1] - a
        part.ties = self.ties[start:stop]
        part.pair_at = self.pair_at[lo:hi] - a
        part.pair_of = self.pair_of[lo:hi]
        return part

    def columns(self, vocab: "FeatureVocabulary") -> tuple[np.ndarray, np.ndarray]:
        """The global columns of each distinct note (in ``NOTE_FAMILIES``)
        and each distinct pair (in ``PAIR_FAMILIES``) under ``vocab``,
        looked up once per vocabulary for the table and all its slices."""
        key = vocab.hash_hex()
        with self._lock:
            cols = self._columns.get(key)
            if cols is None:
                cols = self._columns[key] = (
                    vocab.columns(NOTE_FAMILIES, self.note_keys()),
                    vocab.columns(PAIR_FAMILIES, self.pair_keys()),
                )
        return cols

    def note_keys(self) -> list[tuple]:
        return [_note_keys(v) for v in self.distinct]

    def pair_keys(self) -> list[tuple]:
        return [_pair_keys(a, b) for a, b in self.pairs]


def build_vocab(units: Iterable[Unit]) -> FeatureVocabulary:
    """Index every symbol occurring in the given units (a UnitLibrary works,
    and lends its note table)."""
    table = _table_of(getattr(units, "note_table", units))
    if len(table) == 0:
        raise ValueError("cannot build a vocabulary from an empty library")
    families: dict[str, list] = {}
    for fams, rows in (
        (NOTE_FAMILIES, table.note_keys()),
        (PAIR_FAMILIES, table.pair_keys()),
    ):
        for j, fam in enumerate(fams):
            families[fam] = sorted(
                _symbol_of_key(fam, key) for key in {row[j] for row in rows}
            )
    return FeatureVocabulary(families)


def _table_of(units: Iterable[Unit] | NoteTable) -> NoteTable:
    return units if isinstance(units, NoteTable) else NoteTable(units)


def _count_rows(
    units: Iterable[Unit] | NoteTable, vocab: FeatureVocabulary
) -> np.ndarray:
    """Feature rows of the units: the family columns of every note and of
    every inner pair are counted into one flat view of the output.

    ``extract`` calls this, not ``extract_matrix``, so that a tracer wrapped
    around ``extract_matrix`` counts only the batch calls.
    """
    table = _table_of(units)
    note_cols, pair_cols = table.columns(vocab)
    dim = vocab.dimension
    out = np.zeros((len(table), dim))
    flat = out.reshape(-1)
    row = np.repeat(np.arange(len(table), dtype=np.intp) * dim, np.diff(table.starts))
    np.add.at(flat, (row[:, None] + note_cols[table.ids]).ravel(), 1.0)
    np.add.at(flat, (row[table.pair_at, None] + pair_cols[table.pair_of]).ravel(), 1.0)
    out[:, -N_TIE_FLAGS:] = table.ties
    return out


def extract(u: Unit, vocab: FeatureVocabulary) -> np.ndarray:
    """Count vector of a unit under the vocabulary (never all-zero)."""
    return _count_rows([u], vocab)[0]


def extract_matrix(
    units: Sequence[Unit] | NoteTable, vocab: FeatureVocabulary
) -> np.ndarray:
    """Feature rows for many units, given as units or as a note table (a
    library's ``note_table`` or a slice of it): shape (units, vocab.dimension).
    Either way the rows are the same bits: every entry is a count."""
    return _count_rows(units, vocab)
