"""Next-unit ranking evaluation and report files.

Each probe is a (context unit, true successor) pair from held-out pieces.
The truth is ranked among itself plus 49 library distractors under one of
three regimes: join cost alone (lstm), semantic relevance alone (dssm),
or the combined two-stage procedure (dssm+lstm, shortlist of ceil(5% of
50) = 3). A seeded random scorer is available as a calibration control.
Score ties break by seeded random jitter so a constant scorer averages to
the uniform expectation instead of favouring the truth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._util import decode_json, read_text, write_json
from .autoencoder import POOL_SIZE, EmbeddedLibrary, require_index
from .dssm import DssmModel
from .engine import combined_order
from .features import extract_matrix
from .lm import LmModel, context_window, first_tokens, note_distributions, tokenize
from .music import Unit
from .nn import cosine_rows, draw_pool, rank_order, stream_rng

REGIME_LSTM = "lstm"
REGIME_DSSM = "dssm"
REGIME_COMBINED = "dssm+lstm"
REGIME_RANDOM = "random"

REGIME_ORDER = (REGIME_LSTM, REGIME_DSSM, REGIME_COMBINED, REGIME_RANDOM)

SHORTLIST_FRACTION = 0.05


@dataclass(frozen=True)
class RankingRow:
    regime: str
    unit_length: int
    accuracy: float
    mean_rank: float
    probe_count: int
    seed: int


def next_unit_ranking(
    test_pairs: Sequence[tuple[Unit, Unit]],
    elib: EmbeddedLibrary,
    dssm_model: DssmModel | None,
    lm_model: LmModel | None,
    regime: str,
    seed: int,
    threads: int = 1,
) -> RankingRow:
    """Rank each probe's true successor among seeded random distractors.

    Distractor draws exclude the truth unit and are reproducible by seed;
    re-running with the same inputs gives identical numbers. A zero-norm
    context or truth embedding is a ValueError, as in ``nn.cosine_rows``.
    """
    if regime not in REGIME_ORDER:
        raise ValueError(f"unknown regime {regime!r}")
    n_lib = len(elib)
    if n_lib < POOL_SIZE:
        raise ValueError(
            f"library has {n_lib} units; need at least {POOL_SIZE} candidates"
        )
    if not test_pairs:
        raise ValueError("no probe pairs")
    needs_dssm = regime in (REGIME_DSSM, REGIME_COMBINED)
    needs_lstm = regime in (REGIME_LSTM, REGIME_COMBINED)
    if needs_dssm:
        if dssm_model is None:
            raise ValueError(f"regime {regime} needs a relevance model")
        require_index(elib, dssm_model, DssmModel.kind)
    if needs_lstm and lm_model is None:
        raise ValueError(f"regime {regime} needs a note language model")

    prevs = [a for a, _ in test_pairs]
    truths = [b for _, b in test_pairs]
    n = len(test_pairs)

    if needs_dssm:
        prev_emb = dssm_model.encode_features(
            extract_matrix(prevs, dssm_model.vocab)
        )
        truth_emb = dssm_model.encode_features(
            extract_matrix(truths, dssm_model.vocab)
        )
    if needs_lstm:
        contexts = np.stack(
            [
                context_window(tokenize(p, lm_model.vocab), lm_model.context_len)
                for p in prevs
            ]
        )
        dists = note_distributions(contexts, lm_model, threads)
        lib_first = elib.first_tokens(lm_model.vocab)
        truth_first = first_tokens(truths, lm_model.vocab)

    unit_len = elib.library.unit_length
    ranks = np.empty(n)
    for i in range(n):
        rng = stream_rng(seed, "nextunit", i)
        draw = draw_pool(rng, n_lib, elib.library.index_of(truths[i]), POOL_SIZE - 1)
        jitter = rng.random(POOL_SIZE)

        if needs_dssm:
            cand_emb = np.concatenate(
                [truth_emb[i][None, :], elib.embeddings[draw]], axis=0
            )
            sims = cosine_rows(prev_emb[i], cand_emb)
        if needs_lstm:
            firsts = np.concatenate([[truth_first[i]], lib_first[draw]])
            costs = -np.log(dists[i][firsts])

        if regime == REGIME_DSSM:
            order = rank_order(-sims, jitter)
        elif regime == REGIME_LSTM:
            order = rank_order(costs, jitter)
        elif regime == REGIME_COMBINED:
            ranking = combined_order(
                sims, lambda idxs: costs[idxs], SHORTLIST_FRACTION, jitter
            )
            order = ranking.order
        else:
            order = rank_order(-rng.random(POOL_SIZE))
        ranks[i] = int(np.where(order == 0)[0][0]) + 1

    return RankingRow(
        regime=regime,
        unit_length=unit_len,
        accuracy=float(np.mean(ranks == 1)),
        mean_rank=float(ranks.mean()),
        probe_count=n,
        seed=seed,
    )


def _fmt_cell(row: RankingRow | None) -> tuple[str, str, str, str]:
    if row is None:
        return ("—", "—", "—", "—")
    return (
        f"{100.0 * row.accuracy:.1f}%",
        f"{row.mean_rank:.2f}",
        str(row.probe_count),
        str(row.seed),
    )


def report(rows: Sequence[RankingRow], path) -> str:
    """Write the regime-by-unit-length grid: text at ``path``, values at
    ``path``.json. Returns the text. Missing grid cells render as an
    em-dash placeholder."""
    if not rows:
        raise ValueError("no rows to report")
    path = Path(path)
    by_key = {(r.regime, r.unit_length): r for r in rows}
    lengths = sorted({r.unit_length for r in rows}, reverse=True)
    regimes = [rg for rg in REGIME_ORDER if any(r.regime == rg for r in rows)]
    header = f"{'regime':<12}{'measures':<10}{'acc@50':<10}{'mean_rank@50':<14}{'probes':<8}{'seed':<6}"
    lines = [header, "-" * len(header)]
    for length in lengths:
        for regime in regimes:
            acc, mr, probes, seed = _fmt_cell(by_key.get((regime, length)))
            lines.append(
                f"{regime:<12}{length:<10}{acc:<10}{mr:<14}{probes:<8}{seed:<6}"
            )
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    write_json([asdict(r) for r in rows], str(path) + ".json")
    return text


def load_report(json_path) -> list[RankingRow]:
    """Read back the machine-readable report with identical values."""
    data = decode_json(read_text(json_path, ValueError), ValueError, str(json_path))
    return [RankingRow(**entry) for entry in data]
