"""Generation by ranked unit selection, plus the note-level baseline.

Selection is a four-step ranking: score every library unit's semantic
relevance to the current unit, keep the top fraction (5% by default),
re-rank that shortlist by join cost, then re-rank it again by the sum of
the two ranks and take the head. Only ranks are combined, never raw
scores, so any strictly monotone rescaling of either score leaves the
choice unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .autoencoder import EmbeddedLibrary, library_similarities, require_index
from .dssm import DssmModel
from .lm import (
    OOV,
    PAD,
    LmModel,
    context_window,
    first_note_costs,
    note_distribution,
    tokenize,
)
from .music import (
    REST,
    Measure,
    Note,
    Piece,
    Provenance,
    Unit,
    assemble_piece,
)
from .nn import rank_order, stream_rng

DETERMINISTIC = "deterministic"
SAMPLED = "sampled"


@dataclass(frozen=True)
class GenerationConfig:
    """Selection settings. No code reads ``unit_length`` or ``n_units``; they
    stay because the benchmark sets them."""

    unit_length: int = 1
    n_units: int = 4
    shortlist_fraction: float = 0.05
    mode: str = DETERMINISTIC
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.shortlist_fraction <= 1.0:
            raise ValueError("shortlist_fraction must be in (0, 1]")
        if self.mode not in (DETERMINISTIC, SAMPLED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


def shortlist_size(n: int, fraction: float) -> int:
    """Shortlist length for a pool of ``n`` candidates: ceil(fraction*n), at least 1."""
    return max(1, math.ceil(fraction * n))


@dataclass
class CombinedRanking:
    """Result of the two-stage procedure over one candidate pool.

    ``order`` lists candidate indices best-first: the shortlist sorted by
    combined key, then everything else in semantic order. Ranks are
    1-based; concat_rank and combined are 0 outside the shortlist. A
    head-only ranking (``combined_order(..., top=)``) has only the shortlist
    in ``order``, and its semantic_rank is 0 outside the shortlist too.
    """

    order: np.ndarray
    semantic_rank: np.ndarray
    shortlist: np.ndarray
    concat_rank: np.ndarray
    combined: np.ndarray
    costs: np.ndarray


def combined_order(
    sims: np.ndarray,
    cost_fn,
    fraction: float,
    jitter: np.ndarray | None = None,
    top: int | None = None,
) -> CombinedRanking:
    """Rank a candidate pool by the combined semantic/join procedure.

    ``cost_fn(indices)`` returns join costs for the shortlisted indices
    only. ``jitter`` (optional, same length as sims) breaks score ties in
    the semantic stage; by default ties break by candidate index. Join and
    combined ties break by semantic rank (see ``nn.rank_order``). A caller
    that reads no more than the first ``top`` entries, with ``top`` at most
    the shortlist size, gets a head-only ranking: only the shortlist is
    sorted, and every field it holds equals the full ranking's.
    """
    n = len(sims)
    if n == 0:
        raise ValueError("empty candidate pool")
    k = shortlist_size(n, fraction)
    sem_order = rank_order(-sims, jitter, top=k if top is not None and top <= k else None)
    sem_rank = np.zeros(n, dtype=np.int64)
    sem_rank[sem_order] = np.arange(1, len(sem_order) + 1)
    # the shortlist is in semantic order, so index order within it is semantic rank
    shortlist = sem_order[:k]
    costs_short = np.asarray(cost_fn(shortlist), dtype=float)
    all_costs = np.full(n, np.nan)
    all_costs[shortlist] = costs_short
    concat_rank = np.zeros(n, dtype=np.int64)
    concat_rank[shortlist[rank_order(costs_short)]] = np.arange(1, k + 1)
    combined = np.zeros(n, dtype=np.int64)
    combined[shortlist] = sem_rank[shortlist] + concat_rank[shortlist]
    head = shortlist[rank_order(combined[shortlist])]
    order = np.concatenate([head, sem_order[k:]])
    return CombinedRanking(
        order=order,
        semantic_rank=sem_rank,
        shortlist=shortlist,
        concat_rank=concat_rank,
        combined=combined,
        costs=all_costs,
    )


@dataclass
class RankedCandidate:
    index: int
    unit: Unit
    relevance: float
    semantic_rank: int
    concat_rank: int | None = None
    combined_key: int | None = None
    concat_cost: float | None = None


def rank_candidates(
    seed_unit: Unit,
    prev_tokens: list[int],
    elib: EmbeddedLibrary,
    dssm_model: DssmModel,
    lm_model: LmModel,
    cfg: GenerationConfig,
    *,
    top: int | None = None,
) -> list[RankedCandidate]:
    """Library ranking for one selection step, best candidate first.

    All tie-breaks are deterministic: semantic ties by library order, join
    ties by semantic rank then library order. ``top`` keeps only the first
    ``top`` entries of the ordering; with ``top`` equal to the shortlist
    size that is exactly the shortlist, sorted by combined key. None
    returns the full ranking.
    """
    if len(elib) == 0:
        raise ValueError("empty library")
    if top is not None and top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    require_index(elib, dssm_model, DssmModel.kind)
    q = dssm_model.encode_unit(seed_unit)
    sims = library_similarities(q, elib)
    units = elib.library.units
    first_ids = elib.first_tokens(lm_model.vocab)

    def shortlist_costs(indices: np.ndarray) -> np.ndarray:
        return first_note_costs(prev_tokens, first_ids[indices], lm_model)

    ranking = combined_order(sims, shortlist_costs, cfg.shortlist_fraction, top=top)
    order = ranking.order[:top]
    # the ordering starts with the whole shortlist, so only its head has join fields
    head = order[: len(ranking.shortlist)]
    joins = zip(
        ranking.concat_rank[head].tolist(),
        ranking.combined[head].tolist(),
        ranking.costs[head].tolist(),
    )
    return [
        RankedCandidate(i, units[i], relevance, sem_rank, *join)
        for i, relevance, sem_rank, join in zip_longest(
            order.tolist(),
            sims[order].tolist(),
            ranking.semantic_rank[order].tolist(),
            joins,
            fillvalue=(None, None, None),
        )
    ]


def _pick(
    shortlist: list[RankedCandidate], cfg: GenerationConfig, step: int
) -> RankedCandidate:
    if cfg.mode == DETERMINISTIC:
        return shortlist[0]
    keys = np.array([rc.combined_key for rc in shortlist], dtype=float)
    weights = np.exp(-(keys - keys.min()) / cfg.temperature)
    weights /= weights.sum()
    rng = stream_rng(cfg.seed, "generate-pick", step)
    return shortlist[int(rng.choice(len(shortlist), p=weights))]


def generate(
    seed: Unit,
    n_units: int,
    elib: EmbeddedLibrary,
    dssm_model: DssmModel,
    lm_model: LmModel,
    cfg: GenerationConfig,
    audit: list | None = None,
) -> Piece:
    """Iteratively select and append ``n_units`` units after the seed.

    This is ``continue_piece`` on the one-unit piece of the seed, returned
    under the id ``"generated"``.
    """
    if len(seed.measures) != elib.library.unit_length:
        raise ValueError(
            f"seed has {len(seed.measures)} measures, library units have "
            f"{elib.library.unit_length}"
        )
    piece = continue_piece(
        Piece("generated", seed.measures), n_units, elib, dssm_model, lm_model, cfg, audit=audit
    )
    return replace(piece, id="generated")


def continue_piece(
    piece: Piece,
    n_units: int,
    elib: EmbeddedLibrary,
    dssm_model: DssmModel,
    lm_model: LmModel,
    cfg: GenerationConfig,
    threads: int = 1,
    audit: list | None = None,
) -> Piece:
    """Extend a whole piece by ``n_units`` selected units.

    The piece's last unit seeds the selection; the note context handed to
    the join cost is the last 36 tokens of everything emitted so far,
    crossing unit boundaries. Pass ``audit`` to collect one record per
    step with the shortlist and both ranks. ``threads`` is accepted because
    the benchmark passes it; it has no effect.
    """
    length = elib.library.unit_length
    if len(piece.measures) < length:
        raise ValueError(
            f"seed piece needs at least {length} measures, has {len(piece.measures)}"
        )
    meter = elib.library.meter
    other = next((m.meter for m in piece.measures if m.meter != meter), None)
    if other is not None:
        raise ValueError(f"seed piece has meter {other}, library units have {meter}")
    current = Unit(
        measures=tuple(piece.measures[-length:]),
        provenance=Provenance(piece.id, len(piece.measures) - length),
    )
    context = tokenize(piece, lm_model.vocab)
    measures = list(piece.measures)
    k = shortlist_size(len(elib), cfg.shortlist_fraction)
    for step in range(n_units):
        shortlist = rank_candidates(current, context, elib, dssm_model, lm_model, cfg, top=k)
        pick = _pick(shortlist, cfg, step)
        if audit is not None:
            audit.append(
                {
                    "step": step,
                    "selected": pick.index,
                    "shortlist": [
                        {
                            "index": rc.index,
                            "semantic_rank": rc.semantic_rank,
                            "concat_rank": rc.concat_rank,
                            "combined": rc.combined_key,
                            "relevance": rc.relevance,
                            "concat_cost": rc.concat_cost,
                        }
                        for rc in shortlist
                    ],
                }
            )
        current = pick.unit
        measures.extend(current.measures)
        context.extend(tokenize(current, lm_model.vocab))
    return assemble_piece(measures, f"{piece.id}+{n_units}u")


def _symbols_to_measures(
    symbols: list[tuple[int, Fraction]], meter: Fraction, n_measures: int
) -> list[Measure]:
    """Pack (pitch, duration) events into exactly n_measures measures.

    Events crossing a barline are split and tied (rests split untied); the
    final event is truncated so the last measure completes exactly.
    """
    budget = meter * n_measures
    acc = Fraction(0)
    trimmed: list[tuple[int, Fraction]] = []
    for pitch, dur in symbols:
        take = min(dur, budget - acc)
        if take <= 0:
            break
        trimmed.append((pitch, take))
        acc += take
    if acc != budget:
        raise ValueError("not enough events to fill the requested measures")
    measures: list[Measure] = []
    current: list[Note] = []
    fill = Fraction(0)
    for pitch, dur in trimmed:
        remaining = dur
        first = True
        while remaining > 0:
            take = min(remaining, meter - fill)
            crosses = remaining > take
            current.append(
                Note(
                    pitch,
                    take,
                    tie_from_prev=(not first) and pitch != REST,
                    tie_to_next=crosses and pitch != REST,
                )
            )
            fill += take
            remaining -= take
            first = False
            if fill == meter:
                measures.append(Measure(tuple(current), meter))
                current = []
                fill = Fraction(0)
    return measures


def generate_note_level(
    seed: Unit,
    n_measures: int,
    lm_model: LmModel,
    cfg: GenerationConfig,
) -> Piece:
    """Seed plus ``n_measures`` of note-by-note generation.

    This is ``continue_piece_notes`` on the one-unit piece of the seed,
    returned under the id ``"generated-notes"``.
    """
    piece = continue_piece_notes(Piece("generated-notes", seed.measures), n_measures, lm_model, cfg)
    return replace(piece, id="generated-notes")


def temperature_weights(dist: np.ndarray, temperature: float) -> np.ndarray:
    """Sampling probabilities proportional to ``dist ** (1 / temperature)``.

    Computed in log space, shifted by the largest log-probability, so the
    most likely token keeps weight 1 at any temperature instead of every
    weight underflowing to zero; zero entries keep weight zero. As the
    temperature falls the result tends to the greedy pick.
    """
    with np.errstate(divide="ignore", over="ignore"):
        logp = np.log(dist)
        weights = np.exp((logp - logp.max()) / temperature)
    return weights / weights.sum()


def continue_piece_notes(
    piece: Piece,
    n_measures: int,
    lm_model: LmModel,
    cfg: GenerationConfig,
) -> Piece:
    """Extend a whole piece note by note; the full piece primes the context.

    PAD and OOV are masked out of the predictive distribution, so the
    greedy choice is always a real note; sampled mode applies temperature
    to the masked distribution.
    """
    if n_measures < 1:
        raise ValueError("n_measures must be >= 1")
    if not piece.measures:
        raise ValueError("seed piece is empty")
    vocab = lm_model.vocab
    context = tokenize(piece, vocab)
    meter = piece.measures[0].meter
    target = meter * n_measures
    acc = Fraction(0)
    symbols: list[tuple[int, Fraction]] = []
    step = 0
    while acc < target:
        dist = note_distribution(context_window(context), lm_model)
        dist = dist.copy()
        dist[PAD] = 0.0
        dist[OOV] = 0.0
        if cfg.mode == DETERMINISTIC:
            tok = int(np.argmax(dist))
        else:
            p = temperature_weights(dist, cfg.temperature)
            rng = stream_rng(cfg.seed, "generate-notes", step)
            tok = int(rng.choice(len(p), p=p))
        pitch, dur = vocab.decode(tok)
        symbols.append((pitch, dur))
        context.append(tok)
        acc += dur
        step += 1
    generated = _symbols_to_measures(symbols, meter, n_measures)
    return assemble_piece(list(piece.measures) + generated, f"{piece.id}+{n_measures}m")
