"""Minimal neural toolkit with manual backpropagation.

Dense layers (linear / rectified / leaky-rectified) and dense stacks, an
LSTM cell (each layer built around its weight arrays; ``initial_params``
draws fresh ones), the cosine-softmax relevance loss, the one SGD epoch
loop of the autoencoder, relevance model and note-LSTM trainers, inverted
dropout, plain SGD and a central finite-difference gradient checker, and
the pool draws, pool cosines and counted truth ranks of the two ranking
evaluations. Everything is float64 numpy; forward passes on frozen
parameters are pure and thread-safe.

Randomness is reproducible: every stochastic choice draws from a stream
generator derived from one master seed via splitmix64 (see
:func:`stream_rng`), so training is bit-deterministic given
(seed, config, corpus).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._util import CHUNK

_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def derive_seed(master: int, *stream: int | str) -> int:
    """Fold a master seed and stream labels through splitmix64.

    String labels are digested to 8 bytes first so the result does not
    depend on the interpreter's hash randomization.
    """
    z = _splitmix64(master & _M64)
    for part in stream:
        if isinstance(part, str):
            part = _label_digest(part)
        z = _splitmix64(z ^ (int(part) & _M64))
    return z


@lru_cache(maxsize=256)
def _label_digest(label: str) -> int:
    """The first 8 bytes of a label's sha256, little-endian; the code uses
    a few dozen labels, so each is digested once."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


def stream_rng(master: int, *stream: int | str) -> np.random.Generator:
    """Named random stream: independent generator per (seed, labels) tuple."""
    return np.random.default_rng(derive_seed(master, *stream))


@dataclass
class TrainConfig:
    """Knobs shared by all trainers.

    ``dropout_keep`` is the keep probability on hidden layers (inverted
    scaling, so inference needs no rescaling); ``negatives`` is the number
    of random counterexamples per training case in the relevance losses.
    """

    learning_rate: float = 0.005
    dropout_keep: float = 0.5
    negatives: int = 4
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout_keep must be in (0, 1]")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


LEAKY_ALPHA = 0.001  # slope of leaky_relu below zero


class DenseLayer:
    """Fully connected layer y = act(x W^T + b) with explicit backward."""

    param_names = ("w", "b")

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str = "linear"):
        if activation not in ("linear", "relu", "leaky_relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.out_dim, self.in_dim = w.shape
        self.activation = activation
        self.w = w
        self.b = b

    @staticmethod
    def initial_params(rng: np.random.Generator, in_dim: int, out_dim: int) -> tuple:
        """Fresh ``w`` (Glorot-uniform) and ``b`` (zeros)."""
        return glorot_uniform(rng, out_dim, in_dim), np.zeros(out_dim)

    @staticmethod
    def param_shapes(in_dim: int, out_dim: int) -> tuple[tuple[int, ...], ...]:
        """Shapes of ``w`` and ``b`` for these dimensions."""
        return (out_dim, in_dim), (out_dim,)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """x: (batch, in_dim) -> (y, cache)."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected (batch, {self.in_dim}), got {x.shape}")
        z = x @ self.w.T + self.b
        if self.activation == "linear":
            y = z
        elif self.activation == "relu":
            y = np.maximum(z, 0.0)
        else:
            y = np.where(z > 0.0, z, LEAKY_ALPHA * z)
        return y, (x, z)

    def backward(
        self, dy: np.ndarray, cache: tuple, input_grad: bool = True
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """Returns (dx, dw, db) for upstream gradient dy; dx is None when
        ``input_grad`` is False (an input that is data, not a layer)."""
        x, z = cache
        if self.activation == "linear":
            dz = dy
        elif self.activation == "relu":
            dz = dy * (z > 0.0)
        else:
            dz = dy * np.where(z > 0.0, 1.0, LEAKY_ALPHA)
        dw = dz.T @ x
        db = dz.sum(axis=0)
        dx = dz @ self.w if input_grad else None
        return dx, dw, db


class LstmLayer:
    """Single LSTM cell; gates packed as [input, forget, candidate, output]."""

    param_names = ("w", "u", "b")

    def __init__(self, w: np.ndarray, u: np.ndarray, b: np.ndarray):
        self.in_dim = w.shape[1]
        self.hidden = self.out_dim = u.shape[1]
        self.w = w
        self.u = u
        self.b = b

    @staticmethod
    def initial_params(rng: np.random.Generator, in_dim: int, hidden: int) -> tuple:
        """Fresh ``w``, then ``u`` (Glorot-uniform), and ``b``: zero but for
        the forget gate's 1, so early training does not wipe state."""
        w = glorot_uniform(rng, 4 * hidden, in_dim)
        u = glorot_uniform(rng, 4 * hidden, hidden)
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0
        return w, u, b

    @staticmethod
    def param_shapes(in_dim: int, hidden: int) -> tuple[tuple[int, ...], ...]:
        """Shapes of ``w``, ``u`` and ``b`` for these dimensions."""
        return (4 * hidden, in_dim), (4 * hidden, hidden), (4 * hidden,)

    def zero_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((batch, self.hidden)), np.zeros((batch, self.hidden))

    def step(
        self, x: np.ndarray, h: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """One timestep. h, c: (batch, hidden); x: (batch, in_dim) input rows,
        or (batch,) token ids for a one-hot input.

        The projection of token ids is the row gather ``w.T[x]``, which
        equals the one-hot product bit for bit. The four gates are views of
        one (batch, 4*hidden) block: the sigmoid runs over all of it and the
        candidate slot is overwritten with its tanh.
        """
        a = (self.w.T[x] if x.ndim == 1 else x @ self.w.T) + h @ self.u.T + self.b
        hh = self.hidden
        gates = _sigmoid(a)
        gates[:, 2 * hh : 3 * hh] = np.tanh(a[:, 2 * hh : 3 * hh])
        i, f, g, o = (gates[:, k * hh : (k + 1) * hh] for k in range(4))
        c2 = f * c + i * g
        h2 = o * np.tanh(c2)
        cache = (x, h, c, i, f, g, o, c2)
        return h2, c2, cache

    def backward_step(
        self, dh: np.ndarray, dc: np.ndarray, cache: tuple
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Backprop one timestep: returns (dx, dh_prev, dc_prev, dw, du, db).

        On token ids ``dx`` is None, and ``dw`` adds each row's gate
        gradient into its token's column in batch order.
        """
        x, h, c, i, f, g, o, c2 = cache
        tanh_c2 = np.tanh(c2)
        do = dh * tanh_c2
        dc_total = dc + dh * o * (1.0 - tanh_c2 * tanh_c2)
        di = dc_total * g
        df = dc_total * c
        dg = dc_total * i
        dc_prev = dc_total * f
        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        if x.ndim == 1:
            # np.add.at adds in the same order, but about 3x slower at the
            # training shape (32 rows of 512 gate gradients)
            dx = None
            dw = np.zeros_like(self.w)
            for row, token in enumerate(x.tolist()):
                dw[:, token] += da[row]
        else:
            dx = da @ self.w
            dw = da.T @ x
        dh_prev = da @ self.u
        du = da.T @ h
        db = da.sum(axis=0)
        return dx, dh_prev, dc_prev, dw, du, db


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e) for z >= 0 and e/(1+e) below, with
    e = exp(-|z|) <= 1 (NaN stays NaN)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def dropout_mask(rng: np.random.Generator, shape: tuple, keep: float) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/keep."""
    if keep >= 1.0:
        return np.ones(shape)
    return (rng.random(shape) < keep) / keep


class ZeroNormError(ValueError):
    """A vector has zero norm, so its cosine similarity is undefined."""


def row_norms(mat: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(mat, axis=1)``, taken CHUNK rows at a time so that
    no temporary of the whole matrix is made."""
    norms = np.empty(len(mat))
    for start in range(0, len(mat), CHUNK):
        norms[start : start + CHUNK] = np.linalg.norm(mat[start : start + CHUNK], axis=1)
    return norms


def cosine_rows(
    q: np.ndarray, mat: np.ndarray, norms: np.ndarray | None = None
) -> np.ndarray:
    """Cosine similarity of one query against every row of a matrix.

    ``norms`` are the rows' norms (``row_norms(mat)``) when the caller has
    them cached. The product is taken CHUNK rows at a time: how BLAS
    splits one larger product among its threads can move the last bit of
    a row, and fixed blocks give the same bits for any thread count.
    """
    nq = np.linalg.norm(q)
    if norms is None:
        norms = row_norms(mat)
    if nq == 0.0 or np.any(norms == 0.0):
        raise ZeroNormError("cosine similarity undefined for zero-norm vector")
    dots = np.empty(len(mat))
    for start in range(0, len(mat), CHUNK):
        np.matmul(mat[start : start + CHUNK], q, out=dots[start : start + CHUNK])
    return dots / (norms * nq)


def rank_order(
    key: np.ndarray, jitter: np.ndarray | None = None, top: int | None = None
) -> np.ndarray:
    """Indices by ascending key, ties broken by jitter, then by index.

    This is the one tie policy of selection and evaluation; pass ``-score``
    to rank best-first. ``np.lexsort`` is stable, so equal (key, jitter)
    pairs keep index order. With ``top``, the result is exactly
    ``rank_order(key, jitter)[:top]``, but only the head is sorted: a
    partition finds the ``top``-th key, and only the keys not above it
    (every tie at that boundary, and NaN) go to ``lexsort``.
    """
    keys = (key,) if jitter is None else (jitter, key)
    if top is None or not 1 <= top < len(key):
        return np.lexsort(keys)[:top]
    key = np.asarray(key)
    kth = np.partition(key, top - 1)[top - 1]
    keep = np.flatnonzero(~(key > kth))
    return keep[np.lexsort(tuple(np.asarray(k)[keep] for k in keys))][:top]


def draw_pool(rng: np.random.Generator, n: int, truth: int | None, size: int) -> np.ndarray:
    """``size`` distinct indices from range(n), never ``truth`` (None excludes nothing)."""
    if truth is None:
        return rng.choice(n, size=size, replace=False)
    draw = rng.choice(n - 1, size=size, replace=False)
    draw[draw >= truth] += 1
    return draw


def probe_pools(
    master: int, label: str, truths: Sequence[int | None], n: int, size: int, extra: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The random draws of a ranking evaluation, one stream per probe.

    Probe ``i`` draws from ``stream_rng(master, label, i)``, in this order:
    ``size - 1`` distractors from range(n) by :func:`draw_pool` (never
    ``truths[i]``), ``size`` tie-break jitter values and, with ``extra``,
    ``size`` more uniform values. Returns ``(draws, jitter, extras)``, one
    row per probe; ``extras`` is None without ``extra``.
    """
    draws = np.empty((len(truths), size - 1), dtype=np.int64)
    jitter = np.empty((len(truths), size))
    extras = np.empty((len(truths), size)) if extra else None
    for i, truth in enumerate(truths):
        rng = stream_rng(master, label, i)
        draws[i] = draw_pool(rng, n, truth, size - 1)
        jitter[i] = rng.random(size)
        if extra:
            extras[i] = rng.random(size)
    return draws, jitter, extras


def pool_cosines(
    queries: np.ndarray, truth_rows: np.ndarray, library: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Cosine of each query against its pool, the truth's row first and
    then the library rows ``draws[i]``: one row per probe.

    Each probe is one :func:`cosine_rows` call on its own pool; one product
    over all pools at once moves the last bits of some similarities.
    """
    sims = np.empty((len(draws), draws.shape[1] + 1))
    pool = np.empty((draws.shape[1] + 1, library.shape[1]))
    for i, draw in enumerate(draws):
        pool[0] = truth_rows[i]
        np.take(library, draw, axis=0, out=pool[1:])
        sims[i] = cosine_rows(queries[i], pool)
    return sims


def _sorts_before(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a < b`` in ``np.lexsort``'s order, which puts NaN after every number."""
    return (a < b) | (np.isnan(b) & ~np.isnan(a))


def _sorts_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a == b`` in ``np.lexsort``'s order, in which NaNs tie."""
    return (a == b) | (np.isnan(a) & np.isnan(b))


def truth_ranks(key: np.ndarray, jitter: np.ndarray | None = None) -> np.ndarray:
    """Each row's 1-based rank of its column 0 under :func:`rank_order`:
    ascending key, ties by jitter, then by index.

    The rank is counted, not sorted: one plus the entries that sort before
    column 0, which are those with a smaller key and those with an equal key
    and smaller jitter (no entry precedes index 0 on index). NaN keys and
    jitter sort last and tie with each other, as in ``np.lexsort``.
    """
    key = np.asarray(key)
    ahead = _sorts_before(key, key[:, :1])
    if jitter is not None:
        jitter = np.asarray(jitter)
        ahead |= _sorts_equal(key, key[:, :1]) & _sorts_before(jitter, jitter[:, :1])
    return 1 + np.count_nonzero(ahead, axis=1)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _cosine_softmax(q: np.ndarray, cands: np.ndarray, truth: np.ndarray) -> tuple:
    """Losses, probabilities, similarities and norms of the batched
    cosine-softmax loss (see :func:`cosine_softmax_grads`); the losses
    alone cost no gradient."""
    qn = np.linalg.norm(q, axis=1)
    cn = np.linalg.norm(cands, axis=2)
    if np.any(qn == 0.0) or np.any(cn == 0.0):
        raise ZeroNormError("cosine similarity undefined for zero-norm vector")
    dots = np.einsum("be,bke->bk", q, cands)
    sims = dots / (qn[:, None] * cn)
    probs = softmax(sims)
    losses = -np.log(probs[np.arange(len(q)), truth])
    return losses, probs, sims, qn, cn


def cosine_softmax_grads(
    q: np.ndarray,
    cands: np.ndarray,
    truth: np.ndarray,
    grad_query: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Batched cosine-softmax loss with gradients.

    q: (B, E) queries; cands: (B, K, E) candidate vectors; truth: (B,) index
    of the positive candidate per row. Returns (losses, probs, dq, dcands);
    dq is None when grad_query is False (queries that are raw data).
    """
    losses, probs, sims, qn, cn = _cosine_softmax(q, cands, truth)
    dsims = probs.copy()
    dsims[np.arange(len(q)), truth] -= 1.0
    # d sim / d cand = q/(|q||c|) - sim * c/|c|^2
    dcands = dsims[:, :, None] * (
        q[:, None, :] / (qn[:, None, None] * cn[:, :, None])
        - sims[:, :, None] * cands / (cn**2)[:, :, None]
    )
    dq = None
    if grad_query:
        # d sim / d q = c/(|q||c|) - sim * q/|q|^2
        per_cand = cands / (qn[:, None, None] * cn[:, :, None]) - (
            sims / (qn**2)[:, None]
        )[:, :, None] * q[:, None, :]
        dq = np.einsum("bk,bke->be", dsims, per_cand)
    return losses, probs, dq, dcands


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
    """Plain gradient descent, p <- p - lr * g, in place; the same bits as
    ``p -= lr * g``.

    The gradients are consumed: each is scaled by ``lr`` in place, so no
    temporary of a weight's size is made. Every shape is checked before
    anything is written, so a refused call changes no array.
    """
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    for p, g in zip(params, grads):
        np.multiply(g, lr, out=g)
        p -= g


def dense_stack_forward(
    layers: list[DenseLayer], x: np.ndarray, masks=None
) -> tuple[np.ndarray, list[tuple]]:
    """Forward through a stack of dense layers; ``masks[i]`` (dropout)
    multiplies the output of every layer but the last. None disables dropout.
    """
    caches = []
    for i, layer in enumerate(layers):
        x, cache = layer.forward(x)
        caches.append(cache)
        if masks is not None and i < len(masks):
            x = x * masks[i]
    return x, caches


def dense_stack_output(layers: list[DenseLayer], x: np.ndarray) -> np.ndarray:
    """The stack's output with dropout off, the same bits as
    ``dense_stack_forward(layers, x)[0]``; each layer's cache is dropped
    as soon as the next layer has its input, not kept for a backward pass."""
    for layer in layers:
        x = layer.forward(x)[0]
    return x


def dense_stack_backward(
    layers: list[DenseLayer], dy: np.ndarray, caches: list[tuple], masks=None
) -> list[np.ndarray]:
    """Gradients of every layer parameter, in forward order. The stack's
    input is data, so the first layer computes no input gradient."""
    grads: list[np.ndarray] = []
    for i in reversed(range(len(layers))):
        if masks is not None and i < len(masks):
            dy = dy * masks[i]
        dy, dw, db = layers[i].backward(dy, caches[i], input_grad=i > 0)
        grads[:0] = [dw, db]
    return grads


def sample_negatives(
    rng: np.random.Generator, idx: np.ndarray, n_total: int, k: int
) -> np.ndarray:
    """k uniform draws per row from [0, n_total) excluding the row itself."""
    negs = rng.integers(0, n_total - 1, size=(len(idx), k))
    negs[negs >= idx[:, None]] += 1
    return negs


def in_batch_negatives(
    rng: np.random.Generator, idx: np.ndarray, n_total: int, k: int
) -> np.ndarray:
    """k negatives per case from the batch itself: case i of a ring of
    ``r`` rows takes the ring's rows i+1 ... i+k (mod r).

    The ring is the batch, whose rows are distinct. A batch of ``k`` cases
    or fewer is too small to give each case ``k`` others, so its ring is
    first padded with ``k + 1 - len(idx)`` distinct rows of [0, n_total)
    outside the batch, drawn from ``rng``; a larger batch draws nothing.
    """
    ring = idx
    if len(idx) <= k:
        outside = np.delete(np.arange(n_total), idx)
        ring = np.concatenate([idx, rng.choice(outside, size=k + 1 - len(idx), replace=False)])
    return ring[(np.arange(len(idx))[:, None] + np.arange(1, k + 1)) % len(ring)]


def stack_rows(parts) -> np.ndarray:
    """The tower inputs ``x[rows]`` of every ``(x, rows)`` part, in order."""
    if len(parts) == 1:
        x, rows = parts[0]
        return x[rows]
    return np.concatenate([x[rows] for x, rows in parts])


def candidate_rows(n_rows: int, b: int, query_in_tower: bool) -> np.ndarray:
    """Each case's candidate rows, truth first, as a (b, 1 + k) array, in a
    tower stack of ``n_rows`` laid out as [b queries], b truths, then k
    negatives per case, case-major."""
    first = b if query_in_tower else 0
    truths = np.arange(first, first + b)
    negs = np.arange(first + b, n_rows).reshape(b, -1)
    return np.column_stack([truths, negs])


def _dropout_zeroed(layer: DenseLayer, cache: tuple, dropped: np.ndarray) -> np.ndarray:
    """Rows that had a non-zero output of ``layer`` (forward ``cache``) and
    are all zero after dropout (``dropped``)."""
    z = cache[1]
    live = z > 0.0 if layer.activation == "relu" else z != 0.0
    return live.any(axis=1) & ~dropped.any(axis=1)


def relevance_batch_loss(
    layers: list[DenseLayer],
    stack: np.ndarray,
    cand_rows: np.ndarray,
    raw_query: np.ndarray | None = None,
    masks=None,
) -> tuple[float, list[np.ndarray]]:
    """Mean cosine-softmax relevance loss of ``b`` cases with the gradient of
    every layer parameter.

    ``stack`` holds the tower inputs, and ``cand_rows`` (b, 1 + k) the rows
    of the tower output that are each case's candidates, truth first. The
    queries are the first b tower rows, unless ``raw_query`` gives them as
    fixed vectors, which get no gradient. Gradient flows through every
    tower output; a row that is a candidate of several cases gets the sum
    of their gradients, added in case order.
    """
    out, caches = dense_stack_forward(layers, stack, masks)
    b = len(cand_rows)
    q = out[:b] if raw_query is None else raw_query
    try:
        losses, _, dq, dcands = cosine_softmax_grads(
            q, out[cand_rows], np.zeros(b, dtype=int), grad_query=raw_query is None
        )
    except ZeroNormError as exc:
        zero = np.linalg.norm(out, axis=1) == 0.0
        if masks and any(
            _dropout_zeroed(layers[i], caches[i], caches[i + 1][0])[zero].any()
            for i in range(len(masks))
        ):
            raise ZeroNormError(
                f"{exc}: dropout zeroed a whole row of a hidden layer; "
                "a wider tower or a higher dropout_keep avoids it"
            ) from exc
        raise
    # sum each tower element's gradient over the candidate slots that read it
    width = out.shape[1]
    slots = (cand_rows[:, :, None] * width + np.arange(width)).ravel()
    dout = np.bincount(slots, weights=dcands.ravel(), minlength=out.size).reshape(out.shape)
    if dq is not None:
        dout[:b] += dq
    dout /= b
    return float(losses.mean()), dense_stack_backward(layers, dout, caches, masks)


def _distinct_row_losses(
    encode, parts, b: int, raw_query: np.ndarray | None
) -> np.ndarray:
    """Per-case losses with dropout off. Each distinct row of each
    ``(x, rows)`` part is encoded once and the outputs are gathered into
    the [queries], truths, negatives layout of :func:`stack_rows`."""
    inputs, inverse, offset = [], [], 0
    for x, rows in parts:
        distinct, inv = np.unique(rows, return_inverse=True)
        inputs.append(x[distinct])
        inverse.append(inv + offset)
        offset += len(distinct)
    out = encode(inputs[0] if len(inputs) == 1 else np.concatenate(inputs))
    del inputs  # free the inputs before the loss allocates its temporaries
    inverse = np.concatenate(inverse)
    cand_rows = candidate_rows(len(inverse), b, raw_query is None)
    q = out[inverse[:b]] if raw_query is None else raw_query
    return _cosine_softmax(q, out[inverse[cand_rows]], np.zeros(b, dtype=int))[0]


def sgd_epochs(model, n: int, cfg: TrainConfig, label: str, batch_loss, sample, end_epoch) -> None:
    """The one training loop: ``cfg.epochs`` epochs of minibatch SGD over
    ``n`` cases, shuffled each epoch by the ``{label}-shuffle`` stream.

    Each batch's negatives and tower row count come from ``sample(rng,
    idx)`` with the ``{label}-negatives`` stream (``negs`` is None for a
    model without them); then from ``{label}-dropout`` one mask of that many
    rows for each hidden layer (``model.layers[:-1]``). :func:`sgd_step`
    applies the gradients of ``batch_loss(idx, negs, masks)``, and
    ``end_epoch()`` runs after each epoch. A zero-norm output is a
    :class:`ZeroNormError` naming the epoch and batch (from 1) or loss pass.
    """
    for epoch in range(cfg.epochs):
        order = stream_rng(cfg.seed, f"{label}-shuffle", epoch).permutation(n)
        neg_rng = stream_rng(cfg.seed, f"{label}-negatives", epoch)
        drop_rng = stream_rng(cfg.seed, f"{label}-dropout", epoch)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            negs, rows = sample(neg_rng, idx)
            masks = [
                dropout_mask(drop_rng, (rows, layer.out_dim), cfg.dropout_keep)
                for layer in model.layers[:-1]
            ]
            try:
                _, grads = batch_loss(idx, negs, masks)
            except ZeroNormError as exc:
                batch = start // cfg.batch_size + 1
                raise ZeroNormError(f"epoch {epoch + 1}, batch {batch}: {exc}") from exc
            sgd_step(model.params, grads, cfg.learning_rate)
        try:
            end_epoch()
        except ZeroNormError as exc:
            raise ZeroNormError(f"epoch {epoch + 1}, loss pass: {exc}") from exc


def train_relevance(
    model,
    n: int,
    cfg: TrainConfig,
    label: str,
    cases,
    batch_loss,
    encode,
    sample,
) -> None:
    """:func:`sgd_epochs` of a relevance model over ``n`` cases, with
    ``cfg.negatives`` negatives per case drawn afresh each epoch by
    ``sample(rng, idx)``, which also gives the batch's tower row count.

    ``cases(idx, negs)`` gives the tower inputs as ``(x, rows)`` parts
    (see :func:`stack_rows`) and the raw queries (None when they run
    through the tower), and ``batch_loss(idx, negs, masks)`` one batch's
    loss and gradients. The loss appended to ``model.loss_curve`` after
    each epoch comes from ``encode`` with dropout off and one fixed set of
    independent negatives, so the curve is comparable across epochs; it is
    taken over 512 cases at a time, encoding each distinct input row once.
    """
    eval_negs = sample_negatives(
        stream_rng(cfg.seed, f"{label}-eval-negatives"), np.arange(n), n, cfg.negatives
    )

    def loss_pass() -> None:
        total = 0.0
        for start in range(0, n, 512):
            idx = np.arange(start, min(start + 512, n))
            parts, raw_query = cases(idx, eval_negs[idx])
            total += float(_distinct_row_losses(encode, parts, len(idx), raw_query).sum())
        model.loss_curve.append(total / n)

    sgd_epochs(model, n, cfg, label, batch_loss, sample, loss_pass)


def grad_check(
    params: list[np.ndarray], grads: list[np.ndarray], loss_fn, rng: np.random.Generator
) -> float:
    """Max relative error between analytic grads and central differences.

    ``loss_fn`` re-evaluates the loss from the current parameter values
    (which are perturbed in place and restored). Of each array, every
    coordinate is checked when it has at most 24, otherwise 24 drawn from
    ``rng`` without replacement. Relative error uses
    |num - ana| / max(|num|, |ana|, 1e-6): a gradient off by a factor of
    two reports ~0.5, while the 1e-6 floor keeps difference-quotient
    roundoff on effectively-zero coordinates from registering as error.

    Each coordinate is measured at three step sizes (1e-5, 1e-5/8 and
    1e-5/64) and the smallest error is kept: a rectifier kink that happens
    to sit inside one step window corrupts that difference quotient but
    not the smaller ones, whereas a genuinely wrong gradient disagrees at
    every scale.
    """

    def rel_error_at(flat_p, k, analytic, step) -> float:
        orig = flat_p[k]
        flat_p[k] = orig + step
        lp = loss_fn()
        flat_p[k] = orig - step
        lm = loss_fn()
        flat_p[k] = orig
        numeric = (lp - lm) / (2.0 * step)
        denom = max(abs(numeric), abs(analytic), 1e-6)
        return abs(numeric - analytic) / denom

    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        n = flat_p.size
        if n <= 24:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=24, replace=False)
        for k in coords:
            err = min(
                rel_error_at(flat_p, k, flat_g[k], 1e-5 * scale)
                for scale in (1.0, 0.125, 0.015625)
            )
            worst = max(worst, err)
    return worst
