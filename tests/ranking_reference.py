"""Per-probe reference loops of the two pool evaluations.

``evaluation.next_unit_ranking`` and ``autoencoder.rank_at_50`` draw and
rank every probe's pool as arrays and count the truth's rank. These are the
loops they replaced: one probe at a time, each pool sorted by
``rank_order``, the truth found by ``np.where``. They also find units and
tokens by the ``Fraction``-valued lookups that the integer keys of
``UnitLibrary.index_of`` and ``NoteVocabulary.encode_notes`` replaced. The
tests compare the two.
"""

import numpy as np

from unitsel.autoencoder import POOL_SIZE
from unitsel.engine import GenerationConfig, combined_order
from unitsel.evaluation import RankingRow
from unitsel.features import extract_matrix
from unitsel.lm import context_window, note_distributions
from unitsel.nn import cosine_rows, draw_pool, rank_order, stream_rng


def _content_index(lib):
    """``UnitLibrary.index_of`` as a dict over each unit's measures."""
    index = {u.measures: i for i, u in enumerate(lib.units)}
    return lambda u: index.get(u.measures)


def _tokens(notes, vocab):
    return [vocab.encode((n.pitch, n.duration)) for n in notes]


def reference_next_unit_ranking(test_pairs, elib, dssm_model, lm_model, regime, seed):
    """``next_unit_ranking`` on valid inputs, one probe at a time."""
    needs_dssm = regime in ("dssm", "dssm+lstm")
    needs_lstm = regime in ("lstm", "dssm+lstm")
    prevs = [a for a, _ in test_pairs]
    truths = [b for _, b in test_pairs]
    n = len(test_pairs)
    n_lib = len(elib)
    index_of = _content_index(elib.library)
    if needs_dssm:
        prev_emb = dssm_model.encode_features(extract_matrix(prevs, dssm_model.vocab))
        truth_emb = dssm_model.encode_features(extract_matrix(truths, dssm_model.vocab))
    if needs_lstm:
        contexts = np.stack([context_window(_tokens(p.notes, lm_model.vocab)) for p in prevs])
        dists = note_distributions(contexts, lm_model)
        lib_first = np.array(_tokens([u.notes[0] for u in elib.library.units], lm_model.vocab))
        truth_first = _tokens([u.notes[0] for u in truths], lm_model.vocab)

    ranks = np.empty(n)
    for i in range(n):
        rng = stream_rng(seed, "nextunit", i)
        draw = draw_pool(rng, n_lib, index_of(truths[i]), POOL_SIZE - 1)
        jitter = rng.random(POOL_SIZE)
        if needs_dssm:
            cand_emb = np.concatenate([truth_emb[i][None, :], elib.embeddings[draw]], axis=0)
            sims = cosine_rows(prev_emb[i], cand_emb)
        if needs_lstm:
            firsts = np.concatenate([[truth_first[i]], lib_first[draw]])
            costs = -np.log(dists[i][firsts])
        if regime == "dssm":
            order = rank_order(-sims, jitter)
        elif regime == "lstm":
            order = rank_order(costs, jitter)
        elif regime == "dssm+lstm":
            order = combined_order(
                sims, lambda idxs: costs[idxs], GenerationConfig.shortlist_fraction, jitter
            ).order
        else:
            order = rank_order(-rng.random(POOL_SIZE))
        ranks[i] = int(np.where(order == 0)[0][0]) + 1

    return RankingRow(
        regime=regime,
        unit_length=elib.library.unit_length,
        accuracy=float(np.mean(ranks == 1)),
        mean_rank=float(ranks.mean()),
        probe_count=n,
        seed=seed,
    )


def reference_rank_at_50(model, elib, probes, seed):
    """``rank_at_50`` on valid inputs, one probe at a time."""
    n = len(elib)
    q_emb = model.encode_features(extract_matrix(probes, model.vocab))
    index_of = _content_index(elib.library)
    ranks = np.empty(len(probes))
    for i, probe in enumerate(probes):
        truth_idx = index_of(probe)
        rng = stream_rng(seed, "rank50", i)
        pool = np.concatenate([[truth_idx], draw_pool(rng, n, truth_idx, POOL_SIZE - 1)])
        sims = cosine_rows(q_emb[i], elib.embeddings[pool])
        order = rank_order(-sims, rng.random(POOL_SIZE))
        ranks[i] = int(np.where(order == 0)[0][0]) + 1
    return float(ranks.mean()), float(np.mean(ranks == 1))
