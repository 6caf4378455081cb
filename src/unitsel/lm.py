"""Note-level LSTM language model and the join cost.

Tokens are (pitch, duration) symbols; barlines are invisible to the token
stream. The model is two stacked LSTM layers over one-hot inputs (fed to
the first layer as token ids) with a linear projection to the vocabulary,
trained teacher-forced on windows of 36 tokens (each window's targets are
its inputs shifted by one). Scoring contexts shorter than 36 tokens are
left-padded with the PAD token, which is excluded from the training loss.

The join cost between two units is the negative log-probability of the
incoming unit's first note given the running 36-token context.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._util import chunked_map
from .corpus import ArchivedModel
from .features import Vocabulary, _symbol_from_json, _symbol_json
from .music import Note, Piece, Unit
from .nn import (
    DenseLayer,
    LstmLayer,
    TrainConfig,
    sgd_epochs,
    softmax,
    stream_rng,
)

PAD = 0
OOV = 1
CONTEXT_LEN = 36
# Rows on which a batch's shared PAD prefix runs (``step_distributions``).
# Not one row: at batch one BLAS takes its matrix-vector path, and at a few
# rows its small-matrix kernel, and either can give a row other last bits
# than the same row of a larger batch (README, "Notes on numerics"). Sixteen
# kept the full batch's bits at every hidden size checked, 4 to 128; eight
# did not at hidden 32.
PAD_PREFIX_ROWS = 16

NoteSymbol = tuple[int, Fraction]


class NoteVocabulary(Vocabulary):
    """Maps (pitch, duration) symbols to dense token ids; 0=PAD, 1=OOV."""

    def __init__(self, symbols: Sequence[NoteSymbol]):
        self.symbols = tuple(symbols)
        self._map = {s: i + 2 for i, s in enumerate(self.symbols)}
        if len(self._map) != len(self.symbols):
            raise ValueError("duplicate note symbols")
        self._by_ints: dict[tuple[int, int, int], int] | None = None

    @property
    def size(self) -> int:
        return len(self.symbols) + 2

    def encode(self, symbol: NoteSymbol) -> int:
        return self._map.get(symbol, OOV)

    def encode_notes(self, notes: Iterable[Note]) -> list[int]:
        """``encode((n.pitch, n.duration))`` of each note, looked up by
        (pitch, numerator, denominator) in a map built on first use:
        integers hash much faster than a ``Fraction``."""
        if self._by_ints is None:
            self._by_ints = {
                (pitch, d.numerator, d.denominator): token
                for (pitch, d), token in self._map.items()
            }
        get = self._by_ints.get
        return [
            get((n.pitch, n.duration.numerator, n.duration.denominator), OOV) for n in notes
        ]

    def decode(self, token: int) -> NoteSymbol:
        if token < 2 or token >= self.size:
            raise ValueError(f"token {token} has no note symbol")
        return self.symbols[token - 2]

    def snapshot(self) -> dict:
        return {
            "type": "notes",
            "symbols": [_symbol_json("note", s) for s in self.symbols],
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "NoteVocabulary":
        if snap.get("type") != "notes":
            raise ValueError("not a note-vocabulary snapshot")
        return cls([_symbol_from_json("note", raw) for raw in snap["symbols"]])


def build_note_vocab(pieces: Sequence[Piece]) -> NoteVocabulary:
    pieces = getattr(pieces, "pieces", pieces)
    seen: set[NoteSymbol] = set()
    for p in pieces:
        for n in p.notes:
            seen.add((n.pitch, n.duration))
    if not seen:
        raise ValueError("no notes to build a vocabulary from")
    return NoteVocabulary(sorted(seen))


def tokenize(p: Piece | Unit, vocab: NoteVocabulary) -> list[int]:
    """One token per notated note of a piece or unit, in order; unseen
    symbols become OOV."""
    return vocab.encode_notes(p.notes)


# Kept because perfbench and acceptance criterion 7 call it;
# test_benchmark_calls_still_bind checks the benchmark's call.
tokenize_unit = tokenize


def context_window(history: Sequence[int]) -> np.ndarray:
    """The last ``CONTEXT_LEN`` tokens of a history, left-padded with PAD."""
    tail = list(history)[-CONTEXT_LEN:]
    return np.array([PAD] * (CONTEXT_LEN - len(tail)) + tail, dtype=np.int64)


class LmModel(ArchivedModel):
    kind = "lstm"
    hyperparameters = {"hidden": 128, "context_len": CONTEXT_LEN}
    layer_names = ("lstm1", "lstm2", "out")
    curve = "perplexity_curve"
    vocab_class = NoteVocabulary

    @staticmethod
    def layer_dims(vocab, hidden, context_len):
        # not a weight shape, so nothing else bounds it; training writes only
        # CONTEXT_LEN, and scoring refuses a window of any other length
        if context_len != CONTEXT_LEN:
            raise ValueError(f"context_len is {context_len}, expected {CONTEXT_LEN}")
        return [
            (LstmLayer, vocab.size, hidden),
            (LstmLayer, hidden, hidden),
            (DenseLayer, hidden, vocab.size, "linear"),
        ]

    def step_distributions(
        self, x_tokens: np.ndarray, last_only: bool = False
    ) -> np.ndarray:
        """Per-step next-token distributions for a batch of token windows.

        x_tokens: (batch, T) ints -> (batch, T, vocab) probabilities, or with
        ``last_only`` the (batch, vocab) distributions after the final step,
        equal bit for bit to ``[:, -1, :]`` of the full result.

        With ``last_only``, the leading steps at which every row reads PAD
        give every row the same state. A batch of more than
        ``PAD_PREFIX_ROWS`` rows runs those steps once on that many PAD rows
        and copies the first row's state to the whole batch; only the later
        steps run at full batch, and the final step always does.
        """
        b, t = x_tokens.shape
        if last_only and t == 0:
            raise ValueError("last_only needs at least one timestep")
        lead = leading_pad_steps(x_tokens) if last_only and b > PAD_PREFIX_ROWS else 0
        if lead:
            state = self._zero_state(PAD_PREFIX_ROWS)
            pads = np.full(PAD_PREFIX_ROWS, PAD, dtype=np.int64)
            for _ in range(lead):
                state = self._step(pads, state)
            state = tuple(np.repeat(s[:1], b, axis=0) for s in state)
        else:
            state = self._zero_state(b)
        probs = None if last_only else np.empty((b, t, self.vocab.size))
        for step in range(lead, t):
            state = self._step(x_tokens[:, step], state)
            if not last_only:
                probs[:, step, :] = softmax(self.out.forward(state[2])[0])
        return softmax(self.out.forward(state[2])[0]) if last_only else probs

    def _zero_state(self, batch: int) -> tuple[np.ndarray, ...]:
        return self.lstm1.zero_state(batch) + self.lstm2.zero_state(batch)

    def _step(self, tokens: np.ndarray, state: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """Both LSTM layers over one column of token ids: (h1, c1, h2, c2)."""
        h1, c1, h2, c2 = state
        h1, c1, _ = self.lstm1.step(tokens, h1, c1)
        h2, c2, _ = self.lstm2.step(h1, h2, c2)
        return h1, c1, h2, c2


def leading_pad_steps(x_tokens: np.ndarray) -> int:
    """Leading steps at which every window reads PAD, at most T - 1."""
    t = x_tokens.shape[1]
    real = np.flatnonzero((x_tokens != PAD).any(axis=0))
    return min(int(real[0]) if len(real) else t, t - 1)


def make_windows(streams: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forcing windows: inputs and next-token targets, PAD-masked.

    Each stream is prefixed with PAD (so the first real token is predicted
    from an empty context) and cut into non-overlapping windows of
    ``CONTEXT_LEN`` tokens; a short final window is right-padded and the
    padded targets are ignored by the loss (targets equal to PAD are
    unsupervised).
    """
    xs, ys = [], []
    for toks in streams:
        toks = list(toks)
        if not toks:
            continue
        s = [PAD] + toks
        inputs, targets = s[:-1], s[1:]
        for start in range(0, len(inputs), CONTEXT_LEN):
            xw = inputs[start : start + CONTEXT_LEN]
            yw = targets[start : start + CONTEXT_LEN]
            pad = CONTEXT_LEN - len(xw)
            xs.append(xw + [PAD] * pad)
            ys.append(yw + [PAD] * pad)
    if not xs:
        raise ValueError("empty token stream")
    return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)


def lm_batch_loss(
    model: LmModel,
    x: np.ndarray,
    y: np.ndarray,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Mean next-token log-loss over supervised positions, with gradients.

    ``masks`` are dropout masks for the two hidden-state feeds (shared
    across timesteps); None disables dropout.
    """
    b, t = x.shape
    v = model.vocab.size
    if masks is None:
        masks = (np.ones((b, model.hidden)), np.ones((b, model.hidden)))
    m1, m2 = masks
    supervised = (y != PAD).astype(float)
    total = supervised.sum()
    if total == 0:
        raise ValueError("batch has no supervised positions")
    h1, c1, h2, c2 = model._zero_state(b)
    caches = []
    probs_steps = np.empty((b, t, v))
    for step in range(t):
        h1, c1, cache1 = model.lstm1.step(x[:, step], h1, c1)
        h1d = h1 * m1
        h2, c2, cache2 = model.lstm2.step(h1d, h2, c2)
        h2d = h2 * m2
        logits, cache_out = model.out.forward(h2d)
        probs_steps[:, step, :] = softmax(logits)
        caches.append((cache1, cache2, cache_out))
    rows = np.arange(b)
    nll = 0.0
    for step in range(t):
        p_true = probs_steps[rows, step, y[:, step]]
        nll -= float(np.sum(np.log(p_true) * supervised[:, step]))
    loss = nll / total

    grads = [np.zeros_like(p) for p in model.params]  # lstm1, lstm2, out
    dh1_carry, dc1_carry, dh2_carry, dc2_carry = model._zero_state(b)
    for step in reversed(range(t)):
        cache1, cache2, cache_out = caches[step]
        dlogits = probs_steps[:, step, :].copy()
        dlogits[rows, y[:, step]] -= 1.0
        dlogits *= (supervised[:, step] / total)[:, None]
        dh2d, *out_grads = model.out.backward(dlogits, cache_out)
        dh2 = dh2d * m2 + dh2_carry
        dh1d, dh2_carry, dc2_carry, *grads2 = model.lstm2.backward_step(dh2, dc2_carry, cache2)
        dh1 = dh1d * m1 + dh1_carry
        _, dh1_carry, dc1_carry, *grads1 = model.lstm1.backward_step(dh1, dc1_carry, cache1)
        for acc, grad in zip(grads, grads1 + grads2 + out_grads):
            acc += grad
    return loss, grads


def _eval_perplexity(model: LmModel, x: np.ndarray, y: np.ndarray) -> float:
    supervised_total = 0.0
    nll_total = 0.0
    for start in range(0, len(x), 256):
        xb = x[start : start + 256]
        yb = y[start : start + 256]
        probs = model.step_distributions(xb)
        sup = yb != PAD
        p_true = np.take_along_axis(probs, yb[:, :, None], axis=2)[:, :, 0]
        nll_total -= float(np.sum(np.log(p_true[sup])))
        supervised_total += float(sup.sum())
    return float(np.exp(nll_total / supervised_total))


def train_lm(
    streams: Sequence[Sequence[int]],
    vocab: NoteVocabulary,
    cfg: TrainConfig,
    hidden: int = LmModel.hyperparameters["hidden"],
) -> LmModel:
    """Teacher-forced training over sliding windows; deterministic by seed
    (see :func:`unitsel.nn.sgd_epochs` for the epoch loop).

    The recorded curve is evaluation perplexity (dropout off) after each
    epoch.
    """
    if not any(len(s) >= 2 for s in streams):
        raise ValueError("need at least one token sequence of length >= 2")
    x, y = make_windows(streams)
    model = LmModel(vocab, hidden=hidden, rng=stream_rng(cfg.seed, "lm-init"))
    # no negatives, and one dropout row per window, shared across timesteps
    sgd_epochs(
        model, len(x), cfg, "lm",
        lambda idx, _, masks: lm_batch_loss(model, x[idx], y[idx], masks),
        lambda _, idx: (None, len(idx)),
        lambda: model.perplexity_curve.append(_eval_perplexity(model, x, y)),
    )
    return model


def note_distribution(ctx: Sequence[int], model: LmModel) -> np.ndarray:
    """Next-note distribution after a full context window of 36 tokens."""
    ctx = np.asarray(ctx, dtype=np.int64)
    if ctx.shape != (model.context_len,):
        raise ValueError(f"context must have exactly {model.context_len} tokens")
    if np.any(ctx < 0) or np.any(ctx >= model.vocab.size):
        raise ValueError("context contains tokens outside the vocabulary")
    return model.step_distributions(ctx[None, :], last_only=True)[0]


def note_distributions(
    contexts: np.ndarray, model: LmModel, threads: int = 1
) -> np.ndarray:
    """Final-step distributions for many contexts; fixed-chunk parallel.

    Each distinct context runs once, in the order of its first occurrence,
    and its distribution is copied to every repeat; a batch without repeats
    runs exactly as given.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    _, first, inverse = np.unique(
        contexts, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    distinct = contexts[first[order]]
    slot = np.argsort(order)  # a sorted-unique row's place in ``distinct``

    def chunk(start: int, stop: int) -> np.ndarray:
        return model.step_distributions(distinct[start:stop], last_only=True)

    return np.vstack(chunked_map(chunk, len(distinct), threads))[slot[inverse.reshape(-1)]]


def first_tokens(units: Sequence[Unit], vocab: NoteVocabulary) -> np.ndarray:
    """Token id of each unit's first note (OOV when outside the vocabulary)."""
    firsts = (u.measures[0].notes[0] for u in units)
    return np.array(vocab.encode_notes(firsts), dtype=np.int64)


def first_note_costs(
    prev_context: Sequence[int], units: Sequence[Unit] | np.ndarray, model: LmModel
) -> np.ndarray:
    """Join costs of many candidate units for one context.

    A unit's cost is ``-log`` of its first note's probability under
    ``note_distribution(context_window(prev_context), model)``, which is
    computed once for all of them. ``units`` may also be an integer array
    of the units' first-note token ids, as ``first_tokens`` returns.
    """
    ids = units if isinstance(units, np.ndarray) else first_tokens(units, model.vocab)
    dist = note_distribution(context_window(prev_context), model)
    return -np.log(dist[ids])
