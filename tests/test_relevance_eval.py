"""The relevance trainers' per-epoch loss pass and first-layer backward.

The loss pass encodes each distinct tower-input row of a 512-case chunk
once and gathers the outputs; these tests hold it to a copy of the pass
that encoded every row of every case, with ``==`` on the loss curves.
The first dense layer computes no input gradient; its weight gradients
must not change.
"""

import numpy as np
import pytest

from unitsel.augment import (
    FULL,
    TRANSPOSE_ONLY,
    AugmentConfig,
    UnitLibrary,
    build_library,
    transpose_corpus,
)
from unitsel.autoencoder import train_autoencoder
from unitsel.dssm import make_training_pairs, train_dssm
from unitsel.features import build_vocab, extract_matrix
from unitsel.nn import (
    DenseLayer,
    TrainConfig,
    cosine_softmax_grads,
    dense_stack_backward,
    dense_stack_forward,
    dropout_mask,
    sample_negatives,
    stream_rng,
)


def every_row_loss(model, n, cfg, label, stack_of, encode):
    """The loss pass as it was: the whole stack of every 512-case chunk is
    encoded, then the gradient-computing loss gives the losses."""
    eval_negs = sample_negatives(
        stream_rng(cfg.seed, f"{label}-eval-negatives"), np.arange(n), n, cfg.negatives
    )
    total = 0.0
    for start in range(0, n, 512):
        idx = np.arange(start, min(start + 512, n))
        stack, raw_query = stack_of(idx, eval_negs[idx])
        out = encode(stack)
        b = len(idx)
        q, cand_rows = (out[:b], out[b:]) if raw_query is None else (raw_query, out)
        negs = cand_rows[b:].reshape(b, -1, cand_rows.shape[1])
        cands = np.concatenate([cand_rows[:b][:, None, :], negs], axis=1)
        losses, _, _, _ = cosine_softmax_grads(
            q, cands, np.zeros(b, dtype=int), grad_query=raw_query is None
        )
        total += float(losses.sum())
    return total / n


@pytest.fixture(scope="module")
def ae_library(fixture_corpus):
    cfg = AugmentConfig(unit_length=1, mode=FULL, transpose_shifts=(-1, 0, 1))
    return build_library(fixture_corpus, cfg)


@pytest.fixture(scope="module")
def dssm_material(fixture_corpus):
    cfg = AugmentConfig(
        unit_length=1, mode=TRANSPOSE_ONLY, transpose_shifts=tuple(range(-3, 4))
    )
    tcorp = transpose_corpus(fixture_corpus, cfg)
    return make_training_pairs(tcorp, 1), build_vocab(build_library(tcorp, cfg))


def _head(lib: UnitLibrary, size: int) -> UnitLibrary:
    return UnitLibrary(
        units=lib.units[:size],
        origins=lib.origins[:size],
        unit_length=lib.unit_length,
        meter=lib.meter,
    )


@pytest.mark.parametrize("size", [300, None], ids=["n<512", "n>512"])
@pytest.mark.parametrize("keep", [0.5, 1.0])
def test_ae_loss_curve_equals_every_row_pass(ae_library, size, keep):
    lib = ae_library if size is None else _head(ae_library, size)
    assert (len(lib) > 512) == (size is None)
    vocab = build_vocab(lib)
    x = extract_matrix(lib.units, vocab)

    def stack_of(idx, negs):
        return x[np.concatenate([idx, negs.reshape(-1)])], x[idx]

    curve = []
    for epochs in (1, 2):
        cfg = TrainConfig(epochs=epochs, seed=3, dropout_keep=keep)
        model = train_autoencoder(lib, vocab, cfg, hidden=24, embedding=8)
        curve.append(
            every_row_loss(model, len(lib), cfg, "ae", stack_of, model.reconstruct_features)
        )
    assert model.loss_curve == curve


@pytest.mark.parametrize("size", [300, None], ids=["n<512", "n>512"])
@pytest.mark.parametrize("keep", [0.5, 1.0])
def test_dssm_loss_curve_equals_every_row_pass(dssm_material, size, keep):
    pairs, vocab = dssm_material
    pairs = pairs if size is None else pairs[:size]
    assert (len(pairs) > 512) == (size is None)
    prev_x = extract_matrix([a for a, _ in pairs], vocab)
    next_x = extract_matrix([b for _, b in pairs], vocab)

    def stack_of(idx, negs):
        return np.concatenate([prev_x[idx], next_x[idx], next_x[negs.reshape(-1)]]), None

    curve = []
    for epochs in (1, 2):
        cfg = TrainConfig(epochs=epochs, seed=3, learning_rate=0.2, dropout_keep=keep)
        model = train_dssm(pairs, vocab, cfg, width=48, embedding=16)
        curve.append(
            every_row_loss(model, len(pairs), cfg, "dssm", stack_of, model.encode_features)
        )
    assert model.loss_curve == curve


class TestFirstLayerBackward:
    def test_skipping_the_input_gradient_keeps_dw_and_db(self):
        rng = stream_rng(4, "dense-backward")
        for activation in ("linear", "relu", "leaky_relu"):
            layer = DenseLayer(*DenseLayer.initial_params(rng, 37, 19), activation)
            x = rng.normal(size=(23, 37))
            dy = rng.normal(size=(23, 19))
            _, cache = layer.forward(x)
            dx, dw, db = layer.backward(dy, cache)
            none, dw2, db2 = layer.backward(dy, cache, input_grad=False)
            assert none is None and dx.shape == x.shape
            assert np.array_equal(dw, dw2) and np.array_equal(db, db2)

    def test_stack_gradients_equal_a_full_backward(self):
        rng = stream_rng(5, "dense-stack")
        layers = [
            DenseLayer(*DenseLayer.initial_params(rng, 41, 16), "relu"),
            DenseLayer(*DenseLayer.initial_params(rng, 16, 16), "relu"),
            DenseLayer(*DenseLayer.initial_params(rng, 16, 8), "linear"),
        ]
        x = rng.random((30, 41))
        masks = [dropout_mask(rng, (30, 16), 0.5) for _ in layers[:-1]]
        out, caches = dense_stack_forward(layers, x, masks)
        dy = rng.normal(size=out.shape)
        expected = []
        d = dy
        for i in reversed(range(len(layers))):
            if i < len(masks):
                d = d * masks[i]
            d, dw, db = layers[i].backward(d, caches[i])
            expected[:0] = [dw, db]
        got = dense_stack_backward(layers, dy, caches, masks)
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
