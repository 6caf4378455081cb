"""Corpus and model persistence.

Corpus files are UTF-8 with one JSON piece per line; rests use pitch -1
and durations are [numerator, denominator] pairs. Model archives carry a
``UNITSEL-MODEL`` magic header and hex-encoded float64 weights so that
save -> load -> save is byte-identical. Unit libraries persist the same
way under a ``UNITSEL-LIB`` header. ``_util.json_lines`` reads every file
and ``_util.write_lines`` writes it; the loaders check their records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from ._util import canonical_json, decode_json, exact_ints, json_lines, sha256_hex, write_lines
from .features import FeatureVocabulary, extract
from .music import (
    Measure,
    Note,
    Piece,
    Provenance,
    Unit,
    validate_piece,
)
from .nn import stream_rng

FORMAT_VERSION = 1
ARCHIVE_MAGIC = f"UNITSEL-MODEL {FORMAT_VERSION}"
LIBRARY_MAGIC = f"UNITSEL-LIB {FORMAT_VERSION}"

MODEL_KINDS = ("autoencoder", "dssm", "lstm")


class CorpusFormatError(ValueError):
    """The file is not parseable as a corpus."""


class CorpusValidationError(ValueError):
    """Pieces parsed but violate model invariants; diagnostics attached."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class ArchiveError(ValueError):
    """A model or library archive is unreadable, tampered, or unsupported."""


@dataclass(frozen=True)
class Corpus:
    pieces: tuple[Piece, ...]
    meter: Fraction

    def __post_init__(self) -> None:
        ids = [p.id for p in self.pieces]
        if len(set(ids)) != len(ids):
            raise ValueError("piece ids must be unique")
        object.__setattr__(self, "pieces", tuple(self.pieces))


def _fraction_from_pair(pair, what: str) -> Fraction:
    try:
        num, den = exact_ints(pair, what, 2)
    except ValueError as exc:
        raise CorpusFormatError(str(exc)) from None
    if num <= 0 or den <= 0:
        raise CorpusFormatError(f"{what} must be a positive rational, got {pair!r}")
    return Fraction(num, den)


def _interned_note(n, cache: dict) -> Note:
    """The note of a corpus-line object, shared with equal notes in ``cache``.

    ``pitch`` and both ``dur`` entries are exact ``int``s and the tie flags
    ``bool``s (or absent); anything else, ``60.7``, ``"60"`` and ``true``
    included, is a CorpusFormatError naming the field, not a conversion.
    Exact types also keep the key sound, since ``(1.0, 2) == (1, 2)``.
    """
    if type(n) is not dict:
        raise CorpusFormatError(f"a note must be an object, got {n!r}")
    pitch = n.get("pitch")
    dur = n.get("dur")
    tie_prev = n.get("tie_prev", False)
    tie_next = n.get("tie_next", False)
    # the rule of exact_ints, written inline: this runs once per note of a file
    if type(pitch) is not int:
        fault = "pitch must be an integer"
    elif (
        type(dur) is not list or len(dur) != 2 or type(dur[0]) is not int or type(dur[1]) is not int
    ):
        fault = "dur must be a list of 2 integers"
    elif type(tie_prev) is not bool or type(tie_next) is not bool:
        fault = "tie_prev and tie_next must be true or false"
    else:
        key = (pitch, dur[0], dur[1], tie_prev, tie_next)
        note = cache.get(key)
        if note is None:
            note = cache[key] = Note(pitch, _fraction_from_pair(dur, "dur"), tie_prev, tie_next)
        return note
    raise CorpusFormatError(f"{fault}, got note {n!r}")


def _measures_from_list(raw, meter: Fraction, cache: dict) -> tuple[Measure, ...]:
    """The measures of a corpus-line object; see ``piece_from_dict``."""
    measures = []
    try:
        for m in raw:
            notes = tuple(_interned_note(n, cache) for n in m.get("notes", []))
            measures.append(Measure(notes=notes, meter=meter))
    except (AttributeError, TypeError) as exc:
        raise CorpusFormatError(
            f"'measures' must be a list of objects with a list of 'notes' ({exc!r})"
        ) from exc
    return tuple(measures)


def piece_from_dict(obj: dict, note_cache: dict) -> Piece:
    """Build a piece from its corpus-line object.

    A wrong shape or type is a CorpusFormatError; values that parse but
    break a model invariant (an empty measure, a pitch outside MIDI range)
    raise a plain ValueError, which ``load_corpus`` reports as a diagnostic.
    Equal notes share one frozen ``Note`` through ``note_cache``, a dict
    the caller keeps for the whole file (empty at first).
    """
    if not isinstance(obj, dict) or "id" not in obj or "measures" not in obj:
        raise CorpusFormatError("piece object needs 'id' and 'measures'")
    meter = _fraction_from_pair(obj.get("meter", [1, 1]), "meter")
    measures = _measures_from_list(obj["measures"], meter, note_cache)
    return Piece(id=str(obj["id"]), measures=measures)


def piece_to_dict(p: Piece) -> dict:
    meter = p.measures[0].meter if p.measures else Fraction(1)
    return {
        "id": p.id,
        "meter": [meter.numerator, meter.denominator],
        "measures": [
            {
                "notes": [
                    {
                        "pitch": n.pitch,
                        "dur": [n.duration.numerator, n.duration.denominator],
                        "tie_prev": n.tie_from_prev,
                        "tie_next": n.tie_to_next,
                    }
                    for n in m.notes
                ]
            }
            for m in p.measures
        ],
    }


def load_corpus(path) -> Corpus:
    """Parse and validate a corpus file; any invalid piece fails the load.

    Raises CorpusFormatError for malformed files and CorpusValidationError
    (with one diagnostic per problem, naming piece and measure) when pieces
    parse but break invariants.
    """
    pieces: list[Piece] = []
    ids: set[str] = set()
    diagnostics: list[str] = []
    notes: dict = {}
    for lineno, obj, _ in json_lines(path, CorpusFormatError):
        try:
            piece = piece_from_dict(obj, notes)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
        except ValueError as exc:
            diagnostics.append(f"piece {obj.get('id', f'line {lineno}')}: {exc}")
            continue
        for violation in validate_piece(piece):
            diagnostics.append(f"piece {piece.id}: {violation}")
        if piece.id in ids:
            diagnostics.append(f"piece {piece.id}: duplicate piece id at line {lineno}")
        ids.add(piece.id)
        pieces.append(piece)
    if not pieces and not diagnostics:  # every JSON line gives one or the other
        raise CorpusFormatError(f"{path}: empty corpus file")
    if diagnostics:
        raise CorpusValidationError(diagnostics)
    meters = {p.measures[0].meter for p in pieces if p.measures}
    if len(meters) > 1:
        raise CorpusValidationError(
            [f"mixed meters in corpus: {sorted(str(m) for m in meters)}"]
        )
    meter = meters.pop() if meters else Fraction(1)
    return Corpus(pieces=tuple(pieces), meter=meter)


def save_corpus(c: Corpus, path) -> None:
    write_lines(path, (canonical_json(piece_to_dict(p)) for p in c.pieces))


def split_corpus(c: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic by-piece split; fractions honored to the nearest piece.

    Never splits a piece across the partition, and both sides keep at
    least one piece.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(c.pieces)
    if n < 2:
        raise ValueError("need at least 2 pieces to split")
    order = stream_rng(seed, "split").permutation(n)
    n_train = int(np.floor(train_fraction * n + 0.5))
    n_train = max(1, min(n - 1, n_train))
    train_idx = sorted(order[:n_train])
    test_idx = sorted(order[n_train:])
    return (
        Corpus(pieces=tuple(c.pieces[i] for i in train_idx), meter=c.meter),
        Corpus(pieces=tuple(c.pieces[i] for i in test_idx), meter=c.meter),
    )


@dataclass
class ModelArchive:
    """Serializable snapshot of a trained model.

    Weights are kept as named float64 arrays; the vocabulary snapshot is
    the exact featurizer state used at training time, hash-checked on load.
    ``verified_hash`` keeps the hash ``load_model`` checked for ``from_archive``.
    Every archive is written at ``FORMAT_VERSION``, the one version read.
    """

    kind: str
    hyperparameters: dict
    layer_dims: list[int]
    weights: list[tuple[str, np.ndarray]]
    vocabulary: dict
    verified_hash: str | None = field(default=None, init=False, repr=False, compare=False)

    def vocab_hash(self) -> str:
        return sha256_hex(canonical_json(self.vocabulary))

    def weight(self, name: str) -> np.ndarray:
        for wname, arr in self.weights:
            if wname == name:
                return arr
        raise ArchiveError(f"archive has no weight named {name!r}")


class ArchivedModel:
    """Base of the model classes: each model declared once, and the archive codec.

    A subclass sets ``kind``, ``hyperparameters`` (each integer
    hyperparameter's name and default, in archive order), the attribute
    names of its layers in forward order (``layer_names``), the name of its
    training curve (``curve``) and the class of its ``vocab``
    (``vocab_class``). ``layer_dims``, the one list of its layers, gives
    from the vocabulary and the hyperparameters, without building anything,
    each layer's class, input and output dimensions and other constructor
    arguments (a dense layer's activation). A fresh model's layers hold
    ``initial_params`` drawn in that order from the caller's ``rng``; a loaded
    model's hold the archive's arrays, shape-checked first, and draw
    nothing. Both go through ``_assemble``. ``layer_dims`` also refuses a
    hyperparameter value the model cannot use, on construction and on load.
    """

    def __init__(self, vocab, *, rng: np.random.Generator, **hyperparameters):
        for h in hyperparameters.keys() - self.hyperparameters:
            raise TypeError(f"{type(self).__name__} has no hyperparameter {h!r}")
        hp = {**self.hyperparameters, **hyperparameters}
        dims = self.layer_dims(vocab, **hp)
        self._assemble(vocab, hp, dims, [c.initial_params(rng, i, o) for c, i, o, *_ in dims])

    def _assemble(self, vocab, hp: dict, dims: list, params: list[tuple]) -> None:
        """Set the vocabulary and hyperparameters, build each layer of
        ``dims`` around its arrays in ``params``, and start an empty curve."""
        self.vocab = vocab
        vars(self).update(hp)
        for name, (layer_class, _, _, *args), arrays in zip(self.layer_names, dims, params):
            setattr(self, name, layer_class(*arrays, *args))
        setattr(self, self.curve, [])

    @property
    def vocab_hash(self) -> str:
        return self.vocab.hash_hex()

    @property
    def layers(self) -> list:
        return [getattr(self, name) for name in self.layer_names]

    @property
    def params(self) -> list[np.ndarray]:
        return [getattr(layer, p) for layer in self.layers for p in layer.param_names]

    def to_archive(self) -> ModelArchive:
        layers = self.layers
        return ModelArchive(
            kind=self.kind,
            hyperparameters={h: getattr(self, h) for h in self.hyperparameters},
            layer_dims=[layers[0].in_dim] + [layer.out_dim for layer in layers],
            weights=[
                (f"{name}.{p}", getattr(layer, p))
                for name, layer in zip(self.layer_names, layers)
                for p in layer.param_names
            ],
            vocabulary=self.vocab.snapshot(),
        )

    @classmethod
    def from_archive(cls, archive: ModelArchive):
        """Rebuild the model; any mismatch with this class is an ArchiveError."""
        if archive.kind != cls.kind:
            raise ArchiveError(
                f"archive holds a {archive.kind} model, expected {cls.kind}"
            )
        try:
            vocab = cls.vocab_class.from_snapshot(archive.vocabulary)
            hp = {h: archive.hyperparameters[h] for h in cls.hyperparameters}
            for h, value in hp.items():
                # exact integers only: 1.5 is refused, not truncated, and
                # JSON's 1e999 (a float infinity) is refused too
                if type(value) is not int or value < 1:
                    raise ValueError(
                        f"hyperparameter {h!r} is {value!r}, expected a positive integer"
                    )
            dims = cls.layer_dims(vocab, **hp)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ArchiveError(
                f"{cls.kind} archive has bad vocabulary or hyperparameters ({exc!r})"
            ) from exc
        # not canonical: an unreduced duration, say
        if vocab.hash_hex() != (archive.verified_hash or archive.vocab_hash()):
            raise ArchiveError(f"{cls.kind} archive vocabulary is not in canonical form")
        # every shape is compared before the model is built, so a huge
        # hyperparameter is refused before anything is allocated from it
        params = []
        for name, (layer_class, in_dim, out_dim, *_) in zip(cls.layer_names, dims):
            shapes = layer_class.param_shapes(in_dim, out_dim)
            params.append([])
            for p, expected in zip(layer_class.param_names, shapes):
                arr = archive.weight(f"{name}.{p}")
                if arr.shape != expected:
                    raise ArchiveError(
                        f"archive weight {name}.{p} has shape {arr.shape}, "
                        f"expected {expected}"
                    )
                params[-1].append(arr)
        implied = [dims[0][1], *(d[2] for d in dims)]  # as to_archive writes them
        if list(archive.layer_dims) != implied:
            raise ArchiveError(
                f"{cls.kind} archive has layer_dims {list(archive.layer_dims)}, expected {implied}"
            )
        model = cls.__new__(cls)
        model._assemble(vocab, hp, dims, params)
        return model


class FeatureModel(ArchivedModel):
    """An archived model over feature rows: the autoencoder and the relevance model."""

    vocab_class = FeatureVocabulary

    def encode_unit(self, u: Unit) -> np.ndarray:
        return self.encode_features(extract(u, self.vocab)[None, :])[0]


def save_model(archive: ModelArchive, path) -> None:
    """Write the archive as its header line and canonical JSON payload.

    Each weight's hex string is spliced into the text, not passed through
    the JSON encoder: hex is plain ASCII that JSON writes as is, ``"data"``
    sorts first in a weight entry and ``"weights"`` last in the payload, so
    the bytes are those of ``canonical_json`` over the whole payload.
    """
    if archive.kind not in MODEL_KINDS:
        raise ArchiveError(f"unknown model kind {archive.kind!r}")
    head = canonical_json(
        {
            "format_version": FORMAT_VERSION,
            "kind": archive.kind,
            "hyperparameters": archive.hyperparameters,
            "layer_dims": list(archive.layer_dims),
            "vocabulary": archive.vocabulary,
            "vocab_hash": archive.vocab_hash(),
        }
    )
    weights = ",".join(
        '{"data":"'
        + arr.astype("<f8").tobytes().hex()
        + '",'
        + canonical_json({"name": name, "shape": list(arr.shape)})[1:]
        for name, arr in archive.weights
    )
    write_lines(path, [ARCHIVE_MAGIC, f"{head[:-1]},\"weights\":[{weights}]}}"])


def load_model(path) -> ModelArchive:
    """Read a model archive; every malformed or tampered file is an ArchiveError."""
    payloads = [value for _, value, _ in json_lines(path, ArchiveError, ARCHIVE_MAGIC)]
    payload = payloads[0] if len(payloads) == 1 else None
    if not isinstance(payload, dict) or payload.get("format_version") != FORMAT_VERSION:
        raise ArchiveError(f"{path}: expected one payload object of version {FORMAT_VERSION}")
    kind = payload.get("kind")
    if kind not in MODEL_KINDS:
        raise ArchiveError(f"{path}: unknown model kind {kind!r}")
    try:
        weights: list[tuple[str, np.ndarray]] = []
        for entry in payload["weights"]:
            shape = tuple(exact_ints(entry["shape"], f"shape of weight {entry['name']!r}"))
            raw = bytes.fromhex(entry["data"])
            expected = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
            if len(raw) != expected:
                raise ArchiveError(
                    f"{path}: weight {entry['name']!r} has {len(raw)} bytes, "
                    f"shape {shape} needs {expected}"
                )
            arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise ArchiveError(f"{path}: weight {entry['name']!r} holds non-finite values")
            weights.append((str(entry["name"]), arr))
        archive = ModelArchive(
            kind=kind,
            hyperparameters=dict(payload["hyperparameters"]),
            layer_dims=exact_ints(payload["layer_dims"], "layer_dims"),
            weights=weights,
            vocabulary=dict(payload["vocabulary"]),
        )
        vocab_hash = payload["vocab_hash"]
    except ArchiveError:
        raise
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ArchiveError(f"{path}: malformed archive payload ({exc!r})") from exc
    if archive.vocab_hash() != vocab_hash:
        raise ArchiveError(f"{path}: vocabulary hash mismatch (archive tampered?)")
    archive.verified_hash = vocab_hash
    return archive


def _unit_to_dict(u: Unit, origins: tuple[Provenance, ...]) -> dict:
    return {
        "measures": piece_to_dict(Piece(id="", measures=u.measures))["measures"],
        "origins": [[o.source_id, o.offset, o.transform] for o in origins],
    }


def save_library(lib, path) -> None:
    """Persist a UnitLibrary (one unit per line, provenance included)."""
    meter = lib.meter
    header = canonical_json(
        {
            "unit_length": lib.unit_length,
            "meter": [meter.numerator, meter.denominator],
            "count": len(lib.units),
        }
    )
    units = (canonical_json(_unit_to_dict(u, o)) for u, o in zip(lib.units, lib.origins))
    write_lines(path, [LIBRARY_MAGIC, header, *units])


def _is_origin(o) -> bool:
    """An origin entry's shape: ``[source_id, offset, transform]`` as str, int, str."""
    return (
        type(o) is list
        and len(o) == 3
        and type(o[0]) is str
        and type(o[1]) is int
        and type(o[2]) is str
    )


def _own_provenance(origins) -> Provenance:
    """The first of a unit line's origins, once every entry is shape-checked."""
    if type(origins) is list and origins and all(map(_is_origin, origins)):
        return Provenance(*origins[0])
    raise ValueError(
        f"origins must be a non-empty list of [str, int, str] entries "
        f"(source id, measure offset, transform), got {origins!r}"
    )


def _deferred_origins(units: tuple[Unit, ...], lines: list[str | None]):
    """Every unit's origins: its own provenance, then the other entries of
    its unit line (None when it has no others), decoded again. Every entry
    was shape-checked when the line was loaded."""
    return tuple(
        (u.provenance,)
        if line is None
        else (
            u.provenance,
            *(Provenance(*o) for o in decode_json(line, ArchiveError, "unit line")["origins"][1:]),
        )
        for u, line in zip(units, lines)
    )


def load_library(path):
    """Read a unit library; every malformed file is an ArchiveError naming it."""
    from .augment import UnitLibrary  # local import to avoid a cycle

    records = json_lines(path, ArchiveError, LIBRARY_MAGIC)
    first = next(records, None)
    if first is None:
        raise ArchiveError(f"{path}: missing library header line")
    lineno, header, _ = first
    try:
        meter = _fraction_from_pair(header["meter"], "meter")
        unit_length, count = exact_ints(
            [header["unit_length"], header["count"]], "[unit_length, count]"
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveError(f"{path}:{lineno}: malformed library header ({exc!r})") from exc
    units: list[Unit] = []
    more_origins: list[str | None] = []  # the unit line, when it has several
    notes: dict = {}
    for lineno, obj, line in records:
        try:
            measures = _measures_from_list(obj["measures"], meter, notes)
            origins = obj["origins"]
            unit = Unit(measures=measures, provenance=_own_provenance(origins))
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(
                f"{path}:{lineno}: malformed library unit ({exc!r})"
            ) from exc
        if len(unit.measures) != unit_length:
            raise ArchiveError(
                f"{path}:{lineno}: unit has {len(unit.measures)} measures, "
                f"header says {unit_length}"
            )
        units.append(unit)
        more_origins.append(line if len(origins) > 1 else None)
    if len(units) != count:
        raise ArchiveError(
            f"{path}: header says {count} units, file has {len(units)}"
        )
    loaded = tuple(units)
    return UnitLibrary(
        units=loaded,
        origins=partial(_deferred_origins, loaded, more_origins),
        unit_length=unit_length,
        meter=meter,
    )
