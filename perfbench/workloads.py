"""The benchmark's three workloads: train, generate and score.

Each workload is a closed loop with one client. Its inputs come from
``tests/toygen.py``, seeded by the workload seed; the pipeline itself
(split, training, generation) runs with the README walkthrough's seed 7
and hyperparameters. ``prepare`` builds, in a separate process and
untimed, every model and library the workload consumes; ``setup`` is what
each CLI command pays before its first result (loading inputs and
archives, embedding the library); a round is one fixed mix of requests.

Every request is checked (valid pieces, picks inside their shortlist,
finite losses, sane ranks) and its output is hashed, so repeated requests
must reproduce the warm-up output bit for bit.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import unitsel
from unitsel import augment, autoencoder, corpus, dssm, engine, evaluation, features, lm
from unitsel.music import validate_piece
from unitsel.nn import TrainConfig, stream_rng

ROOT = Path(__file__).resolve().parent.parent
PIPELINE_SEED = 7  # the README walkthrough's --seed
TRAIN_FRACTION = 0.6
SHIFTS = (-2, -1, 0, 1, 2)
UNITS_PER_REQUEST = 4
NOTE_MEASURES_PER_REQUEST = 4
PREP_EPOCHS = 1  # models consumed by generate/score; their speed, not quality, matters

# Epochs per training request, so that each of the four train requests
# takes a comparable share of a round (about 0.5-1.7 s each).
AE_EPOCHS = 1
DSSM_EPOCHS = 3
LM_EPOCHS = 1


def _load_toygen():
    spec = importlib.util.spec_from_file_location("toygen", ROOT / "tests" / "toygen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ae_config(epochs: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, seed=PIPELINE_SEED)


def _dssm_config(epochs: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, seed=PIPELINE_SEED, learning_rate=0.2)


def _lm_config(epochs: int) -> TrainConfig:
    return TrainConfig(
        epochs=epochs, seed=PIPELINE_SEED, learning_rate=1.0, dropout_keep=0.8
    )


def _sequence_material(train, unit_length: int):
    """Transposition-only material for the sequence models, as the CLI builds it."""
    cfg = augment.AugmentConfig(
        unit_length=unit_length, transpose_shifts=SHIFTS, mode=augment.TRANSPOSE_ONLY
    )
    tcorp = augment.transpose_corpus(train, cfg)
    pairs = dssm.make_training_pairs(tcorp, unit_length)
    note_vocab = lm.build_note_vocab(tcorp)
    streams = [lm.tokenize(p, note_vocab) for p in tcorp.pieces]
    return cfg, tcorp, pairs, note_vocab, streams


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _piece_json(p) -> str:
    return json.dumps(corpus.piece_to_dict(p), sort_keys=True)


def _sample_library(lib, size: int, label: str):
    """A fixed-size sample of a library, in library order.

    Selection and training cost grow with the library, whose size after
    deduplication varies from seed to seed; a fixed size keeps every seed
    equally expensive."""
    if len(lib) <= size:
        return lib
    keep = sorted(stream_rng(PIPELINE_SEED, label).choice(len(lib), size=size, replace=False))
    return augment.UnitLibrary(
        units=tuple(lib.units[i] for i in keep),
        origins=tuple(lib.origins[i] for i in keep),
        unit_length=lib.unit_length,
        meter=lib.meter,
    )


def _first_note_oov_share(lib, note_vocab) -> float:
    firsts = [lm.tokenize_unit(u, note_vocab)[0] for u in lib.units]
    return sum(t == lm.OOV for t in firsts) / len(firsts)


@dataclass
class Request:
    kind: str
    key: str  # identifies the input; equal keys must give equal outputs
    call: Callable[[], object]


class Train:
    """build-lib, train-ae, train-dssm and train-lm with the README settings.

    The corpus has 24 pieces of 12 measures (twice the fixture), so that the
    library (1.2k-1.4k units) and the feature vocabulary vary little between
    seeds; the autoencoder trains on a fixed-size sample of the library."""

    name = "train"
    expected_spans = (
        "augment.build_library",
        "autoencoder.train_autoencoder",
        "autoencoder.autoencoder_batch_loss",
        "autoencoder.AutoencoderModel.reconstruct_features",
        "dssm.train_dssm",
        "dssm.dssm_batch_loss",
        "dssm.DssmModel.encode_features",
        "lm.train_lm",
        "lm.lm_batch_loss",
        "lm.LmModel.step_distributions",
        "nn.DenseLayer.forward",
        "nn.DenseLayer.backward",
        "nn.LstmLayer.step",
        "nn.LstmLayer.backward_step",
        "nn.cosine_softmax_grads",
        "nn.sgd_step",
        "features.extract_matrix",
        "corpus.load_library",
        "corpus.save_model",
    )
    lib_cfg = augment.AugmentConfig(unit_length=1, mode=augment.FULL, transpose_shifts=SHIFTS)
    n_pieces = 24
    ae_units = 640
    nominal: dict[str, int] = {}

    def __init__(self, work: Path):
        self.work = work

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        pieces = _load_toygen().make_toy_corpus(Train.n_pieces, seed=seed)
        train, _ = corpus.split_corpus(pieces, TRAIN_FRACTION, PIPELINE_SEED)
        corpus.save_corpus(train, work / "train.cor")
        lib = augment.build_library(train, Train.lib_cfg)
        corpus.save_library(_sample_library(lib, Train.ae_units, "ae-library"), work / "library.lib")

    def setup(self) -> None:
        self.train = corpus.load_corpus(self.work / "train.cor")
        self.lib = corpus.load_library(self.work / "library.lib")
        self.ae_vocab = features.build_vocab(self.lib)
        cfg, tcorp, self.pairs, self.note_vocab, self.streams = _sequence_material(
            self.train, 1
        )
        self.dssm_vocab = features.build_vocab(augment.build_library(tcorp, cfg))
        self.tokens = sum(len(s) for s in self.streams)

    def _build_lib(self):
        return augment.build_library(self.train, self.lib_cfg)

    def _train_ae(self):
        model = autoencoder.train_autoencoder(self.lib, self.ae_vocab, _ae_config(AE_EPOCHS))
        corpus.save_model(model.to_archive(), self.work / "ae.model")
        self.ae_model = model
        return model

    def _train_dssm(self):
        model = dssm.train_dssm(self.pairs, self.dssm_vocab, _dssm_config(DSSM_EPOCHS))
        corpus.save_model(model.to_archive(), self.work / "dssm.model")
        return model

    def _train_lm(self):
        model = lm.train_lm(self.streams, self.note_vocab, _lm_config(LM_EPOCHS), hidden=128)
        corpus.save_model(model.to_archive(), self.work / "lstm.model")
        return model

    def round(self, index: int) -> list[Request]:
        return [
            Request("build_lib", "build_lib", self._build_lib),
            Request("train_ae", "train_ae", self._train_ae),
            Request("train_dssm", "train_dssm", self._train_dssm),
            Request("train_lm", "train_lm", self._train_lm),
        ]

    def items(self, kind: str, out) -> int:
        if kind == "build_lib":
            return len(out)
        if kind == "train_ae":
            return len(self.lib) * AE_EPOCHS
        if kind == "train_dssm":
            return len(self.pairs) * DSSM_EPOCHS
        return self.tokens * LM_EPOCHS

    def check(self, kind: str, out) -> list[str]:
        if kind == "build_lib":
            if any(out.index_of(u) is None for u in self.lib.units):
                return ["rebuilt library lacks units of the prepared one"]
            return []
        curve = out.perplexity_curve if kind == "train_lm" else out.loss_curve
        if not curve or not all(math.isfinite(v) for v in curve):
            return [f"{kind}: non-finite or missing training loss {curve}"]
        return []

    def digest(self, kind: str, out) -> str:
        if kind == "build_lib":
            path = self.work / "rebuilt.lib"
            corpus.save_library(out, path)
        else:
            path = self.work / {"train_ae": "ae.model", "train_dssm": "dssm.model",
                                "train_lm": "lstm.model"}[kind]
        return _sha(path.read_bytes())

    def sweep_inputs(self):
        return self.ae_model, self.lib

    def first_note_oov_share(self) -> float:
        return _first_note_oov_share(self.lib, self.note_vocab)


class Generate:
    """continue_piece (both modes, audit on) and continue_piece_notes requests
    against a full-coverage library of a fixed size."""

    name = "generate"
    expected_spans = (
        "corpus.load_library",
        "corpus.load_model",
        "autoencoder.embed_library",
        "features.extract_matrix",
        "engine.continue_piece",
        "engine.continue_piece_notes",
        "engine.rank_candidates",
        "engine.combined_order",
        "autoencoder.library_similarities",
        "nn.cosine_rows",
        "lm.first_note_costs",
        "lm.LmModel.step_distributions",
        "nn.LstmLayer.step",
        "nn.DenseLayer.forward",
        "dssm.DssmModel.encode_features",
        "_util.chunked_map",
    )

    # A selection step costs time in proportion to the library size, and the
    # full-coverage library of a 12-piece corpus ranges from about 6k to 11k
    # units across seeds. A 24-piece corpus gives 10k-12k units, of which a
    # fixed-size sample (near the fixture's 8,913) is kept.
    n_pieces = 24
    library_units = 9000
    pieces_per_round = 3
    nominal = {"generate_notes": 18}  # notes added by a 4-measure request

    def __init__(self, work: Path):
        self.work = work

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        pieces = _load_toygen().make_toy_corpus(Generate.n_pieces, seed=seed)
        train, test = corpus.split_corpus(pieces, TRAIN_FRACTION, PIPELINE_SEED)
        full = augment.build_library(train, augment.AugmentConfig(unit_length=1, mode=augment.FULL))
        full = _sample_library(full, Generate.library_units, "library-sample")
        corpus.save_library(full, work / "library.lib")
        cfg, tcorp, pairs, note_vocab, streams = _sequence_material(train, 1)
        vocab = features.build_vocab(augment.build_library(tcorp, cfg))
        relevance = dssm.train_dssm(pairs, vocab, _dssm_config(PREP_EPOCHS))
        corpus.save_model(relevance.to_archive(), work / "dssm.model")
        notes = lm.train_lm(streams, note_vocab, _lm_config(PREP_EPOCHS), hidden=128)
        corpus.save_model(notes.to_archive(), work / "lstm.model")
        corpus.save_corpus(test, work / "seeds.cor")

    def setup(self) -> None:
        self.seeds = corpus.load_corpus(self.work / "seeds.cor").pieces
        lib = corpus.load_library(self.work / "library.lib")
        self.dssm = unitsel.load_trained(self.work / "dssm.model")
        self.lm = unitsel.load_trained(self.work / "lstm.model")
        self.elib = autoencoder.embed_library(self.dssm, lib, threads=1)

    def _generate(self, piece, mode):
        cfg = engine.GenerationConfig(
            unit_length=1, n_units=UNITS_PER_REQUEST, mode=mode, seed=PIPELINE_SEED
        )
        audit: list = []
        out = engine.continue_piece(
            piece, UNITS_PER_REQUEST, self.elib, self.dssm, self.lm, cfg,
            threads=1, audit=audit,
        )
        return piece, out, mode, audit

    def _notes(self, piece, mode):
        cfg = engine.GenerationConfig(mode=mode, seed=PIPELINE_SEED)
        out = engine.continue_piece_notes(piece, NOTE_MEASURES_PER_REQUEST, self.lm, cfg)
        return piece, out, mode, None

    def _request(self, kind: str, piece, mode: str) -> Request:
        call = self._generate if kind == "generate" else self._notes
        return Request(kind, f"{kind}/{piece.id}/{mode}", lambda: call(piece, mode))

    def items(self, kind: str, out) -> int:
        seed, piece, _, _ = out
        if kind == "generate":
            return UNITS_PER_REQUEST
        return len(piece.notes) - len(seed.notes)

    def round(self, index: int) -> list[Request]:
        """Both unit-selection modes on three seed pieces, then one note-level
        request whose mode alternates each time the seeds wrap around.

        Six selection requests per round give the 100 samples per run that
        a 90th percentile needs (ten beyond it)."""
        n = len(self.seeds)
        pieces = [self.seeds[(self.pieces_per_round * index + k) % n]
                  for k in range(self.pieces_per_round)]
        note_mode = (engine.DETERMINISTIC, engine.SAMPLED)[
            (self.pieces_per_round * index // n) % 2
        ]
        requests = [
            self._request("generate", piece, mode)
            for piece in pieces
            for mode in (engine.DETERMINISTIC, engine.SAMPLED)
        ]
        requests.append(self._request("generate_notes", pieces[0], note_mode))
        return requests

    def check(self, kind: str, out) -> list[str]:
        seed, piece, mode, audit = out
        problems = [f"{piece.id}: {v}" for v in validate_piece(piece)]
        added = len(piece.measures) - len(seed.measures)
        want = UNITS_PER_REQUEST if kind == "generate" else NOTE_MEASURES_PER_REQUEST
        if added != want:
            problems.append(f"{piece.id}: {added} measures added, expected {want}")
        if kind == "generate":
            if len(audit) != UNITS_PER_REQUEST:
                problems.append(f"{piece.id}: {len(audit)} audit records")
            for record in audit:
                short = [c["index"] for c in record["shortlist"]]
                if record["selected"] not in short:
                    problems.append(f"{piece.id} step {record['step']}: pick outside shortlist")
                elif mode == engine.DETERMINISTIC and record["selected"] != short[0]:
                    problems.append(f"{piece.id} step {record['step']}: pick is not the head")
        return problems

    def digest(self, kind: str, out) -> str:
        _, piece, _, audit = out
        text = _piece_json(piece) + json.dumps(audit, sort_keys=True)
        return _sha(text.encode("utf-8"))

    def sweep_inputs(self):
        return self.dssm, self.elib.library

    def first_note_oov_share(self) -> float:
        return _first_note_oov_share(self.elib.library, self.lm.vocab)


class Score:
    """next_unit_ranking under all four regimes, rank_at_50 and reconstruct on
    a criterion-4-shaped corpus: small pools, batched LSTM scoring."""

    name = "score"
    expected_spans = (
        "corpus.load_library",
        "corpus.load_model",
        "autoencoder.embed_library",
        "features.extract_matrix",
        "evaluation.next_unit_ranking.lstm",
        "evaluation.next_unit_ranking.dssm",
        "evaluation.next_unit_ranking.dssm_lstm",
        "evaluation.next_unit_ranking.random",
        "engine.combined_order",
        "autoencoder.rank_at_50",
        "autoencoder.reconstruct",
        "autoencoder.library_similarities",
        "nn.cosine_rows",
        "lm.LmModel.step_distributions",
        "nn.LstmLayer.step",
        "nn.DenseLayer.forward",
        "dssm.DssmModel.encode_features",
        "_util.chunked_map",
    )
    cfg = augment.AugmentConfig(
        unit_length=2, transpose_shifts=SHIFTS, mode=augment.TRANSPOSE_ONLY
    )
    max_probes = 600
    nominal: dict[str, int] = {}

    def __init__(self, work: Path):
        self.work = work

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        pieces = _load_toygen().make_toy_corpus(48, n_measures=16, seed=seed)
        train, test = corpus.split_corpus(pieces, TRAIN_FRACTION, PIPELINE_SEED)
        lib = augment.build_library(train, Score.cfg)
        corpus.save_library(lib, work / "library.lib")
        vocab = features.build_vocab(lib)
        _, _, pairs, note_vocab, streams = _sequence_material(train, 2)
        relevance = dssm.train_dssm(pairs, vocab, _dssm_config(PREP_EPOCHS))
        corpus.save_model(relevance.to_archive(), work / "dssm.model")
        notes = lm.train_lm(streams, note_vocab, _lm_config(PREP_EPOCHS), hidden=64)
        corpus.save_model(notes.to_archive(), work / "lstm.model")
        ae = autoencoder.train_autoencoder(lib, vocab, _ae_config(PREP_EPOCHS))
        corpus.save_model(ae.to_archive(), work / "autoencoder.model")
        corpus.save_corpus(augment.transpose_corpus(test, Score.cfg), work / "probes.cor")
        corpus.save_corpus(test, work / "test.cor")

    def setup(self) -> None:
        lib = corpus.load_library(self.work / "library.lib")
        self.dssm = unitsel.load_trained(self.work / "dssm.model")
        self.lm = unitsel.load_trained(self.work / "lstm.model")
        self.ae = unitsel.load_trained(self.work / "autoencoder.model")
        self.elib = autoencoder.embed_library(self.dssm, lib, threads=1)
        self.ae_elib = autoencoder.embed_library(self.ae, lib, threads=1)
        probes = dssm.make_training_pairs(
            corpus.load_corpus(self.work / "probes.cor"), 2, strict=False
        )
        if len(probes) > self.max_probes:
            sel = stream_rng(PIPELINE_SEED, "nextunit-probes").choice(
                len(probes), size=self.max_probes, replace=False
            )
            probes = [probes[i] for i in sorted(sel)]
        self.probes = probes
        self.test = corpus.load_corpus(self.work / "test.cor").pieces

    def _rank(self, regime: str):
        return evaluation.next_unit_ranking(
            self.probes, self.elib, self.dssm, self.lm, regime, PIPELINE_SEED, threads=1
        )

    def _rank50(self):
        probes = list(self.ae_elib.library.units)
        return autoencoder.rank_at_50(self.ae, self.ae_elib, probes, PIPELINE_SEED)

    def _reconstruct(self):
        return [autoencoder.reconstruct(p, self.ae_elib, self.ae, threads=1) for p in self.test]

    def round(self, index: int) -> list[Request]:
        requests = [
            Request(f"nextunit:{regime}", regime, lambda r=regime: self._rank(r))
            for regime in evaluation.REGIME_ORDER
        ]
        requests.append(Request("rank50", "rank50", self._rank50))
        requests.append(Request("reconstruct", "reconstruct", self._reconstruct))
        return requests

    def items(self, kind: str, out) -> int:
        if kind.startswith("nextunit"):
            return len(self.probes)
        if kind == "rank50":
            return len(self.ae_elib)
        return sum(len(p.measures) // 2 for p in out)

    def check(self, kind: str, out) -> list[str]:
        if kind.startswith("nextunit"):
            ok = out.probe_count == len(self.probes) and 1.0 <= out.mean_rank <= 50.0
            return [] if ok else [f"implausible ranking row {out}"]
        if kind == "rank50":
            mean_rank, accuracy = out
            ok = 1.0 <= mean_rank <= 50.0 and 0.0 <= accuracy <= 1.0
            return [] if ok else [f"implausible rank@50 result {out}"]
        problems = []
        for source, piece in zip(self.test, out):
            problems += [f"{piece.id}: {v}" for v in validate_piece(piece)]
            if len(piece.measures) != len(source.measures):
                problems.append(f"{piece.id}: length changed")
        return problems

    def digest(self, kind: str, out) -> str:
        if kind.startswith("nextunit"):
            text = json.dumps(asdict(out), sort_keys=True)
        elif kind == "rank50":
            text = json.dumps(list(out))
        else:
            text = "\n".join(_piece_json(p) for p in out)
        return _sha(text.encode("utf-8"))

    def sweep_inputs(self):
        return self.dssm, self.elib.library

    def first_note_oov_share(self) -> float:
        return _first_note_oov_share(self.elib.library, self.lm.vocab)


WORKLOADS = {w.name: w for w in (Train, Generate, Score)}
