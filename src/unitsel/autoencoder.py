"""Measure/unit autoencoder and music reconstruction by unit selection.

The encoder compresses a unit's count vector to a 128-length embedding;
the decoder mirrors it back. Training drives the reconstruction to be
more cosine-similar to its own input than reconstructions of random other
units are (softmax over the true candidate plus k negatives). The
negatives come from the batch, a slice of a fresh random permutation of
the library: case i takes the batch's next k rows, wrapping around. So
each case still sees k distinct random other units, but the negatives are
no longer independent across cases, and the tower runs each batch row once
however many cases use it. The ``ae-negatives`` stream is drawn only to
pad a batch of k cases or fewer.
Reconstruction of music then replaces each query unit with the library
unit whose embedding is nearest by cosine similarity -- a target cost
only, no join cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._util import chunked_map
from .augment import UnitLibrary
from .corpus import FeatureModel
from .features import FeatureVocabulary, extract_matrix
from .lm import NoteVocabulary, first_tokens
from .music import Piece, Unit, concatenate_units, slice_units
from .nn import (
    DenseLayer,
    TrainConfig,
    cosine_rows,
    dense_stack_output,
    in_batch_negatives,
    pool_cosines,
    probe_pools,
    rank_order,
    relevance_batch_loss,
    row_norms,
    stream_rng,
    train_relevance,
    truth_ranks,
)

POOL_SIZE = 50  # the paper's ranking pool: the truth plus 49 distractors


class AutoencoderModel(FeatureModel):
    """Hourglass dense stack; all layers leaky-rectified."""

    kind = "autoencoder"
    hyperparameters = {"hidden": 512, "embedding": 128}
    layer_names = ("enc1", "enc2", "dec1", "dec2")
    curve = "loss_curve"

    @staticmethod
    def layer_dims(vocab, hidden, embedding):
        d = vocab.dimension
        dims = [(d, hidden), (hidden, embedding), (embedding, hidden), (hidden, d)]
        return [(DenseLayer, *io, "leaky_relu") for io in dims]

    def encode_features(self, x: np.ndarray) -> np.ndarray:
        """Deterministic embedding of feature rows (dropout off)."""
        return dense_stack_output([self.enc1, self.enc2], x)

    def reconstruct_features(self, x: np.ndarray) -> np.ndarray:
        return dense_stack_output([self.dec1, self.dec2], self.encode_features(x))


def _cases(x: np.ndarray, batch_idx: np.ndarray, negatives: np.ndarray):
    """Tower inputs of the loss pass (each example, then its negatives) as
    one ``(x, rows)`` part, and raw queries."""
    return [(x, np.concatenate([batch_idx, negatives.reshape(-1)]))], x[batch_idx]


def autoencoder_batch_loss(
    model: AutoencoderModel,
    x: np.ndarray,
    batch_idx: np.ndarray,
    negatives: np.ndarray,
    masks=None,
) -> tuple[float, list[np.ndarray]]:
    """Mean relevance loss of a batch and gradients for all parameters.

    ``negatives`` is (batch, k) row indices into ``x``; candidate vectors
    are the model's reconstructions of the example itself (truth) and of
    the negative rows. Each distinct row of ``batch_idx`` and ``negatives``
    runs through the tower once, in ascending order, so ``masks`` has one
    row per distinct row. Gradient flows through every reconstruction, and
    a row that is a candidate of several cases gets the sum of theirs.
    """
    rows, slots = np.unique(np.column_stack([batch_idx, negatives]), return_inverse=True)
    cand_rows = slots.reshape(len(batch_idx), -1)
    return relevance_batch_loss(model.layers, x[rows], cand_rows, x[batch_idx], masks)


def train_autoencoder(
    lib: UnitLibrary,
    vocab: FeatureVocabulary,
    cfg: TrainConfig,
    hidden: int = AutoencoderModel.hyperparameters["hidden"],
    embedding: int = AutoencoderModel.hyperparameters["embedding"],
) -> AutoencoderModel:
    """SGD training of the relevance-reconstruction objective (see
    :func:`unitsel.nn.train_relevance` for the epoch loop and loss curve).

    Each case's negatives are other rows of its own batch
    (:func:`unitsel.nn.in_batch_negatives`), so the tower runs each batch
    row once, not once per case that uses it."""
    n = len(lib.units)
    k = cfg.negatives
    if n < k + 1:
        raise ValueError(f"library of {n} units too small for {k} negatives")
    x = extract_matrix(lib.note_table, vocab)
    model = AutoencoderModel(
        vocab, hidden=hidden, embedding=embedding, rng=stream_rng(cfg.seed, "ae-init")
    )
    train_relevance(
        model, n, cfg, "ae", partial(_cases, x),
        partial(autoencoder_batch_loss, model, x), model.reconstruct_features,
        # a batch of more than k rows runs each once; a shorter one is padded to k + 1
        lambda rng, idx: (in_batch_negatives(rng, idx, n, k), max(len(idx), k + 1)),
    )
    return model


@dataclass
class EmbeddedLibrary:
    """A unit library with precomputed embeddings from one frozen model.

    It is also the selection index: the per-library work of a selection
    step is done once here. ``norms`` caches each embedding row's norm
    (computed 256 rows at a time), and ``first_tokens`` caches the
    first-note token ids of every unit per note vocabulary.
    """

    library: UnitLibrary
    embeddings: np.ndarray
    vocab_hash: str
    kind: str
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    _first_ids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.norms = row_norms(self.embeddings)

    def __len__(self) -> int:
        return len(self.library.units)

    def first_tokens(self, vocab: NoteVocabulary) -> np.ndarray:
        """Every unit's first-note token id under ``vocab`` (read-only),
        computed once per vocabulary."""
        key = vocab.hash_hex()
        ids = self._first_ids.get(key)
        if ids is None:
            ids = first_tokens(self.library.units, vocab)
            ids.flags.writeable = False
            self._first_ids[key] = ids
        return ids


def embed_library(model, lib: UnitLibrary, threads: int = 1) -> EmbeddedLibrary:
    """Embed every unit with a frozen model; parallel over fixed chunks.

    Each chunk counts its rows from the library's one note table, whose
    column lookups are shared by every chunk and by every later call with
    the same feature vocabulary.

    A unit that embeds to a zero-norm vector has no cosine similarity to
    anything, so it is rejected here (ValueError naming the first such unit)
    rather than failing every later query against the library.
    """
    units = lib.units
    if not units:
        raise ValueError("the library has no units to embed")

    table = lib.note_table

    def emb_chunk(start: int, stop: int) -> np.ndarray:
        return model.encode_features(extract_matrix(table.rows(start, stop), model.vocab))

    elib = EmbeddedLibrary(
        library=lib,
        embeddings=np.vstack(chunked_map(emb_chunk, len(units), threads)),
        vocab_hash=model.vocab_hash,
        kind=model.kind,
    )
    zero = np.flatnonzero(elib.norms == 0.0)
    if len(zero):
        i = int(zero[0])
        prov = units[i].provenance
        raise ValueError(
            f"library unit {i} (piece {prov.source_id!r}, measure {prov.offset}, "
            f"transform {prov.transform!r}) embeds to a zero-norm vector; "
            f"the {model.kind} model cannot rank it"
        )
    return elib


_MODEL_NAMES = {"autoencoder": "autoencoder", "dssm": "relevance model"}


def require_index(elib: EmbeddedLibrary, model, kind: str) -> None:
    """Refuse a library index that ``model`` cannot rank: the model and the
    model that embedded the library must both be of ``kind`` and share one
    feature vocabulary."""
    if model.kind != kind or elib.kind != kind or elib.vocab_hash != model.vocab_hash:
        raise ValueError(
            f"library must be embedded with the given {_MODEL_NAMES[kind]} "
            "(same kind and vocabulary)"
        )


def library_similarities(
    query_emb: np.ndarray, elib: EmbeddedLibrary, threads: int = 1
) -> np.ndarray:
    """Cosine similarity of one embedding against the whole library.

    One ``cosine_rows`` call with the library's cached row norms.
    ``threads`` is accepted because the benchmark passes it; it has no effect.
    """
    return cosine_rows(query_emb, elib.embeddings, elib.norms)


def select_nearest(query_emb: np.ndarray, elib: EmbeddedLibrary) -> tuple[Unit, float]:
    """The library unit nearest by cosine similarity and that similarity;
    ties go to the first in library order."""
    if len(elib) == 0:
        raise ValueError("empty library")
    sims = library_similarities(query_emb, elib)
    i = int(rank_order(-sims, top=1)[0])
    return elib.library.units[i], float(sims[i])


def reconstruct(
    p: Piece, elib: EmbeddedLibrary, model: AutoencoderModel, threads: int = 1
) -> Piece:
    """Replace each unit of the piece by its nearest library unit.
    ``threads`` is accepted because the benchmark passes it; it has no effect."""
    require_index(elib, model, AutoencoderModel.kind)
    length = elib.library.unit_length
    if len(p.measures) % length != 0:
        raise ValueError(
            f"piece {p.id} has {len(p.measures)} measures, "
            f"not divisible by unit length {length}"
        )
    queries = slice_units(p, length)
    q_emb = model.encode_features(extract_matrix(queries, model.vocab))
    chosen = []
    for row in q_emb:
        chosen.append(select_nearest(row, elib)[0])
    return concatenate_units(chosen, piece_id=f"{p.id}-recon")


def interpolate(
    a: Unit,
    b: Unit,
    alpha: float,
    elib: EmbeddedLibrary,
    model: AutoencoderModel,
) -> Unit:
    """Select the unit nearest to the blend (1-alpha)*enc(a) + alpha*enc(b)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    require_index(elib, model, AutoencoderModel.kind)
    blended = (1.0 - alpha) * model.encode_unit(a) + alpha * model.encode_unit(b)
    if np.linalg.norm(blended) == 0.0:
        raise ValueError("degenerate interpolation: blended embedding is zero")
    return select_nearest(blended, elib)[0]


def rank_at_50(
    model: AutoencoderModel,
    elib: EmbeddedLibrary,
    probes: list[Unit],
    seed: int,
) -> tuple[float, float]:
    """Identity-retrieval ranking: each probe against itself plus 49 random
    distractors. Returns (mean_rank, top1_accuracy). Ties (collisions)
    break by seeded random jitter.
    """
    require_index(elib, model, AutoencoderModel.kind)
    n = len(elib)
    if n < POOL_SIZE:
        raise ValueError(f"library of {n} units is smaller than the pool ({POOL_SIZE})")
    if not probes:
        raise ValueError("no probes given")
    q_emb = model.encode_features(extract_matrix(probes, model.vocab))
    truth_idx = [elib.library.index_of(probe) for probe in probes]
    if None in truth_idx:
        raise ValueError(f"probe {truth_idx.index(None)} is not in the library")
    draws, jitter, _ = probe_pools(seed, "rank50", truth_idx, n, POOL_SIZE)
    sims = pool_cosines(q_emb, elib.embeddings[truth_idx], elib.embeddings, draws)
    ranks = truth_ranks(-sims, jitter)
    return float(ranks.mean()), float(np.mean(ranks == 1))


def collision_rate(elib: EmbeddedLibrary, threads: int = 1) -> float:
    """Collisions per 100k units.

    A unit collides when some distinct unit's embedding has cosine
    similarity >= 1 - 1e-9 with it.
    """
    n = len(elib)
    if n < 2:
        return 0.0
    norms = elib.norms
    if np.any(norms == 0.0):
        raise ValueError("zero-norm embedding in library")
    unit_vecs = elib.embeddings / norms[:, None]

    def collide_chunk(start: int, stop: int) -> int:
        sims = unit_vecs[start:stop] @ unit_vecs.T
        rows = np.arange(start, stop)
        sims[np.arange(stop - start), rows] = -np.inf  # ignore self
        return int(np.sum(sims.max(axis=1) >= 1.0 - 1e-9))

    collisions = sum(chunked_map(collide_chunk, n, threads))
    return collisions * 100_000.0 / n
