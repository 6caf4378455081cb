"""Semantic-relevance model over consecutive units.

One weight-shared tower (two 128-wide rectified hidden layers and a
128-length linear embedding head) maps a unit's count vector into a space
where cosine similarity expresses how plausibly two units are adjacent.
Training maximizes the softmax probability of the true successor's
embedding against sampled negative successors, so gradient flows through
the query tower and every candidate tower alike.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .corpus import Corpus, FeatureModel
from .features import FeatureVocabulary, extract_matrix
from .music import Unit, slice_units
from .nn import (
    DenseLayer,
    TrainConfig,
    candidate_rows,
    dense_stack_output,
    relevance_batch_loss,
    sample_negatives,
    stack_rows,
    stream_rng,
    train_relevance,
)


class DssmModel(FeatureModel):
    kind = "dssm"
    hyperparameters = {"width": 128, "embedding": 128}
    layer_names = ("h1", "h2", "out")
    curve = "loss_curve"

    @staticmethod
    def layer_dims(vocab, width, embedding):
        return [
            (DenseLayer, vocab.dimension, width, "relu"),
            (DenseLayer, width, width, "relu"),
            (DenseLayer, width, embedding, "linear"),
        ]

    def encode_features(self, x: np.ndarray) -> np.ndarray:
        return dense_stack_output(self.layers, x)


def make_training_pairs(
    c: Corpus, unit_length: int, strict: bool = True
) -> list[tuple[Unit, Unit]]:
    """Adjacent non-overlapping unit pairs per piece; pairs never cross pieces.

    With strict=True a piece shorter than two units raises; otherwise such
    pieces are skipped (useful when scoring held-out material).
    """
    pairs: list[tuple[Unit, Unit]] = []
    for p in c.pieces:
        units = slice_units(p, unit_length)
        if len(units) < 2:
            if strict:
                raise ValueError(
                    f"piece {p.id} is shorter than 2 units of {unit_length} measures"
                )
            continue
        pairs.extend(zip(units, units[1:]))
    return pairs


def _cases(prev_x, next_x, batch_idx, negatives):
    """Tower inputs as ``(x, rows)`` parts: predecessors (queries), then
    true successors and negative successors; no raw queries."""
    succ = np.concatenate([batch_idx, negatives.reshape(-1)])
    return [(prev_x, batch_idx), (next_x, succ)], None


def dssm_batch_loss(
    model: DssmModel,
    prev_x: np.ndarray,
    next_x: np.ndarray,
    batch_idx: np.ndarray,
    negatives: np.ndarray,
    masks=None,
) -> tuple[float, list[np.ndarray]]:
    """Mean successor-relevance loss of a batch with parameter gradients.

    Candidates are the true successor plus negative successors drawn from
    other pairs; the query is the predecessor's embedding (it receives
    gradient too, through the shared tower).
    """
    parts, _ = _cases(prev_x, next_x, batch_idx, negatives)
    stack = stack_rows(parts)
    cand_rows = candidate_rows(len(stack), len(batch_idx), query_in_tower=True)
    return relevance_batch_loss(model.layers, stack, cand_rows, None, masks)


def train_dssm(
    pairs: list[tuple[Unit, Unit]],
    vocab: FeatureVocabulary,
    cfg: TrainConfig,
    width: int = DssmModel.hyperparameters["width"],
    embedding: int = DssmModel.hyperparameters["embedding"],
) -> DssmModel:
    """SGD on the consecutive-unit objective (see
    :func:`unitsel.nn.train_relevance`); a zero learning rate yields a flat
    loss curve."""
    n = len(pairs)
    if n < cfg.negatives + 1:
        raise ValueError(f"{n} pairs too few for {cfg.negatives} negatives")
    prev_x = extract_matrix([a for a, _ in pairs], vocab)
    next_x = extract_matrix([b for _, b in pairs], vocab)
    model = DssmModel(
        vocab, width=width, embedding=embedding, rng=stream_rng(cfg.seed, "dssm-init")
    )
    k = cfg.negatives
    train_relevance(
        model, n, cfg, "dssm", partial(_cases, prev_x, next_x),
        partial(dssm_batch_loss, model, prev_x, next_x), model.encode_features,
        # independent negatives; every query and candidate is its own tower row
        lambda rng, idx: (sample_negatives(rng, idx, n, k), len(idx) * (k + 2)),
    )
    return model
