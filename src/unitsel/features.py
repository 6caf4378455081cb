"""Bag-of-words featurization of units.

Eight count families (note tuples, pitches, durations, pitch classes,
class-duration tuples, and the pitch/duration/class bigrams) plus two tie
flags. Family vocabularies are corpus-derived; every family carries one
out-of-vocabulary slot so held-out material never fails extraction.
Bigrams run across barlines inside a unit but never across units.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._util import canonical_json, sha256_hex
from .music import Unit, pitch_class

FAMILIES = (
    "note",
    "pitch",
    "dur",
    "class",
    "class_dur",
    "pitch_bigram",
    "dur_bigram",
    "class_bigram",
)

N_TIE_FLAGS = 2


def _unit_events(u: Unit) -> dict[str, list]:
    """All countable symbols of a unit, keyed by family."""
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


def _frac_json(d: Fraction) -> list[int]:
    return [d.numerator, d.denominator]


def _symbol_json(family: str, sym) -> list | int:
    if family == "note":
        return [sym[0], *_frac_json(sym[1])]
    if family == "pitch" or family == "class":
        return sym
    if family == "dur":
        return _frac_json(sym)
    if family == "class_dur":
        return [sym[0], *_frac_json(sym[1])]
    if family == "pitch_bigram" or family == "class_bigram":
        return [sym[0], sym[1]]
    if family == "dur_bigram":
        return [*_frac_json(sym[0]), *_frac_json(sym[1])]
    raise ValueError(f"unknown family {family!r}")


def _symbol_from_json(family: str, raw):
    if family == "note":
        return (raw[0], Fraction(raw[1], raw[2]))
    if family == "pitch" or family == "class":
        return raw
    if family == "dur":
        return Fraction(raw[0], raw[1])
    if family == "class_dur":
        return (raw[0], Fraction(raw[1], raw[2]))
    if family == "pitch_bigram" or family == "class_bigram":
        return (raw[0], raw[1])
    if family == "dur_bigram":
        return (Fraction(raw[0], raw[1]), Fraction(raw[2], raw[3]))
    raise ValueError(f"unknown family {family!r}")


class FeatureVocabulary:
    """Dense disjoint index space over the eight families plus tie flags.

    Each family block ends with its OOV slot; the last two dimensions are
    the first-note and last-note tie flags.
    """

    def __init__(self, family_symbols: dict[str, Sequence]):
        self.family_symbols = {
            fam: tuple(family_symbols.get(fam, ())) for fam in FAMILIES
        }
        self._maps: dict[str, dict] = {}
        self._offsets: dict[str, int] = {}
        offset = 0
        for fam in FAMILIES:
            syms = self.family_symbols[fam]
            self._maps[fam] = {sym: i for i, sym in enumerate(syms)}
            self._offsets[fam] = offset
            offset += len(syms) + 1  # +1 for the family OOV slot
        self.dimension = offset + N_TIE_FLAGS
        self._hash_hex: str | None = None

    def family_size(self, family: str) -> int:
        return len(self.family_symbols[family])

    def index(self, family: str, symbol) -> int:
        """Global index of a symbol; unseen symbols map to the family OOV slot."""
        local = self._maps[family].get(symbol)
        if local is None:
            local = len(self.family_symbols[family])
        return self._offsets[family] + local

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

    def hash_hex(self) -> str:
        """sha256 of the canonical snapshot, computed once: a vocabulary is
        never changed after construction."""
        if self._hash_hex is None:
            self._hash_hex = sha256_hex(canonical_json(self.snapshot()))
        return self._hash_hex


def build_vocab(units: Iterable[Unit]) -> FeatureVocabulary:
    """Index every symbol occurring in the given units (a UnitLibrary works)."""
    units = getattr(units, "units", units)
    seen: dict[str, set] = {fam: set() for fam in FAMILIES}
    count = 0
    for u in units:
        count += 1
        for fam, events in _unit_events(u).items():
            seen[fam].update(events)
    if count == 0:
        raise ValueError("cannot build a vocabulary from an empty library")
    return FeatureVocabulary({fam: sorted(seen[fam]) for fam in FAMILIES})


def extract(u: Unit, vocab: FeatureVocabulary) -> np.ndarray:
    """Count vector of a unit under the vocabulary (never all-zero)."""
    vec = np.zeros(vocab.dimension)
    for fam, events in _unit_events(u).items():
        for sym in events:
            vec[vocab.index(fam, sym)] += 1.0
    notes = u.notes
    vec[-2] = 1.0 if notes[0].tie_from_prev else 0.0
    vec[-1] = 1.0 if notes[-1].tie_to_next else 0.0
    return vec


def extract_matrix(
    units: Sequence[Unit], vocab: FeatureVocabulary
) -> np.ndarray:
    """Feature rows for many units: shape (len(units), vocab.dimension)."""
    out = np.zeros((len(units), vocab.dimension))
    for i, u in enumerate(units):
        out[i] = extract(u, vocab)
    return out
