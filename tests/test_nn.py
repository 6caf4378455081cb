import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unitsel.autoencoder import AutoencoderModel, autoencoder_batch_loss
from unitsel.dssm import DssmModel, dssm_batch_loss
from unitsel.features import FeatureVocabulary
from unitsel.lm import LmModel, NoteVocabulary, lm_batch_loss
from unitsel.nn import (
    LEAKY_ALPHA,
    LOSS_BLOCK,
    DenseLayer,
    LstmLayer,
    TrainConfig,
    _M64,
    _cosine_softmax,
    _distinct_row_losses,
    _label_digest,
    _sigmoid,
    _splitmix64,
    candidate_rows,
    cosine_rows,
    cosine_softmax_grads,
    dense_stack_output,
    derive_seed,
    draw_pool,
    dropout_mask,
    glorot_uniform,
    grad_check,
    in_batch_negatives,
    rank_order,
    relevance_batch_loss,
    sample_negatives,
    sgd_step,
    stack_rows,
    stream_rng,
    truth_ranks,
)


class TestCosine:
    def test_parallel(self):
        assert cosine_rows(np.array([1.0, 0.0]), np.array([[1.0, 0.0]]))[0] == 1.0

    def test_orthogonal(self):
        assert cosine_rows(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))[0] == 0.0

    def test_arithmetic_oracle(self):
        # 32 / (sqrt(14) * sqrt(77)), computed independently
        expected = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
        got = cosine_rows(np.array([1.0, 2.0, 3.0]), np.array([[4.0, 5.0, 6.0]]))[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_rows(np.array([0.0, 0.0]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            cosine_rows(np.array([1.0, 0.0]), np.array([[0.0, 0.0]]))

    def test_scale_invariance_and_antipode(self):
        rng = stream_rng(1, "cosine")
        for _ in range(200):
            x = rng.normal(size=8)
            c = float(rng.uniform(0.1, 10.0))
            np.testing.assert_allclose(cosine_rows(x, np.stack([c * x, -x])), [1.0, -1.0],
                                       rtol=0, atol=1e-12)


# Few distinct values, so most draws hold ties in the key and in the jitter.
TIE_HEAVY = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 3.0, np.inf, np.nan])


class TestRankOrder:
    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(TIE_HEAVY, st.integers(0, 3), st.sampled_from([0.0, 0.25, 0.75])),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_lexsort_with_index_key(self, rows):
        key, int_key, jitter = (np.array(column) for column in zip(*rows))
        index = np.arange(len(rows))
        no_jitter = np.zeros(len(rows))
        np.testing.assert_array_equal(
            rank_order(key, jitter), np.lexsort((index, jitter, key))
        )
        np.testing.assert_array_equal(rank_order(key), np.lexsort((index, no_jitter, key)))
        np.testing.assert_array_equal(
            rank_order(int_key), np.lexsort((index, no_jitter, int_key))
        )

    @settings(deadline=None)
    @given(st.integers(2, 80), st.data())
    def test_draw_pool_excludes_truth(self, n, data):
        truth = data.draw(st.none() | st.integers(0, n - 1))
        size = data.draw(st.integers(1, n - 1))
        draw = draw_pool(stream_rng(data.draw(st.integers(0, 99)), "pool"), n, truth, size)
        assert len(set(draw.tolist())) == size
        assert all(0 <= i < n and i != truth for i in draw.tolist())


class TestRankOrderTop:
    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(TIE_HEAVY, st.integers(0, 3), st.sampled_from([0.0, 0.25, np.nan])),
            min_size=1,
            max_size=60,
        )
    )
    def test_head_equals_full_order(self, rows):
        key, int_key, jitter = (np.array(column) for column in zip(*rows))
        for k, j in ((key, jitter), (key, None), (int_key, jitter), (int_key, None)):
            full = rank_order(k, j)
            for top in range(1, len(rows) + 1):
                np.testing.assert_array_equal(rank_order(k, j, top=top), full[:top])

    def test_boundary_ties_all_considered(self):
        # five tied keys straddle top=3; the index tie-break must pick 1, 2, 4
        key = np.array([5.0, 0.0, -0.0, 9.0, 0.0, 0.0, np.nan, -0.0])
        np.testing.assert_array_equal(rank_order(key, top=3), [1, 2, 4])
        jitter = np.array([0.0, 0.5, np.nan, 0.0, 0.5, 0.1, 0.0, 0.2])
        np.testing.assert_array_equal(rank_order(key, jitter, top=3), [5, 7, 1])


def _ranks_by_sorting(key, jitter):
    """Each row's rank of its column 0, read off ``rank_order``."""
    jitter = [None] * len(key) if jitter is None else jitter
    return np.array([np.where(rank_order(k, j) == 0)[0][0] + 1 for k, j in zip(key, jitter)])


class TestTruthRanks:
    @settings(deadline=None)
    @given(st.integers(1, 5), st.integers(1, 60), st.data())
    def test_counting_equals_sorting(self, probes, width, data):
        # TIE_HEAVY holds NaN, both infinities and both zeros; four jitter
        # values, NaN among them, force ties in the jitter as well
        size = probes * width
        key = data.draw(st.lists(TIE_HEAVY, min_size=size, max_size=size))
        jitter = data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.75, np.nan]), min_size=size, max_size=size)
        )
        key = np.array(key).reshape(probes, width)
        jitter = np.array(jitter).reshape(probes, width)
        for j in (jitter, None):
            np.testing.assert_array_equal(truth_ranks(key, j), _ranks_by_sorting(key, j))

    def test_nan_truth_ranks_after_every_number(self):
        key = np.array([[np.nan, 1.0, np.nan, -np.inf, np.nan]])
        assert truth_ranks(key).tolist() == [3]
        jitter = np.array([[0.5, 0.0, 0.1, 0.9, 0.5]])
        assert truth_ranks(key, jitter).tolist() == [4]
        assert truth_ranks(-np.zeros((1, 4)), np.zeros((1, 4))).tolist() == [1]


class TestCosineSoftmax:
    """The relevance loss of one case: a batch of one query, its candidates
    and the index of the truth among them."""

    def test_identical_candidates_split_evenly(self):
        q = np.array([1.0, 1.0, 0.0])
        cands = np.stack([q] * 5)  # truth + 4 negatives, all equal
        losses, probs, _, _ = cosine_softmax_grads(q[None], cands[None], np.array([0]), False)
        np.testing.assert_allclose(probs[0], 0.2)
        assert losses[0] == pytest.approx(math.log(5.0), abs=1e-12)

    def test_closed_form_two_candidates(self):
        q = np.array([1.0, 0.0])
        truth = np.array([2.0, 0.0])       # colinear: sim 1
        negative = np.array([0.0, 3.0])    # orthogonal: sim 0
        cands = np.stack([truth, negative])
        losses, probs, _, _ = cosine_softmax_grads(q[None], cands[None], np.array([0]), False)
        assert probs[0, 0] == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)
        assert losses[0] == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = stream_rng(2, "softmax")
        for _ in range(200):
            q = rng.normal(size=6)
            cands = rng.normal(size=(5, 6))
            _, probs, _, _ = cosine_softmax_grads(q[None], cands[None], np.array([2]), False)
            assert abs(probs[0].sum() - 1.0) < 1e-9
            assert np.all(probs > 0)


class TestDenseLayer:
    def test_linear_identity(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), "linear")
        x = np.array([[1.0, -2.0, 3.0]])
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_leaky_slope_at_negative_one(self):
        layer = DenseLayer(np.array([[1.0]]), np.zeros(1), "leaky_relu")
        y, _ = layer.forward(np.array([[-1.0]]))
        assert y[0, 0] == pytest.approx(-0.001, abs=1e-15)

    def test_shape_check(self):
        layer = DenseLayer(*DenseLayer.initial_params(stream_rng(0, "dense"), 3, 2))
        assert (layer.in_dim, layer.out_dim) == (3, 2)
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 4)))

    def test_initial_params_are_glorot_weights_and_zero_bias(self):
        w, b = DenseLayer.initial_params(stream_rng(0, "dense"), 3, 2)
        expected = glorot_uniform(stream_rng(0, "dense"), 2, 3)
        assert np.array_equal(w, expected) and np.array_equal(b, np.zeros(2))

    def test_unknown_activation_is_refused(self):
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            DenseLayer(np.eye(2), np.zeros(2), "tanh")


# values that take each branch of the activations' edge cases
_DENSE_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-200, -1e-200, 1e308, -1e308, 5e-324]


def _dense_reference(x, w, b, activation):
    """``DenseLayer.forward``'s (y, z) as two whole temporaries: the
    bias added out of place and leaky-ReLU by ``np.where``."""
    z = x @ w.T + b
    if activation == "linear":
        return z, z
    if activation == "relu":
        return np.maximum(z, 0.0), z
    return np.where(z > 0, z, LEAKY_ALPHA * z), z


class TestDenseForwardBits:
    """The in-place bias and the one-temporary leaky-ReLU give the bits of
    the two-temporary form, NaN, infinities and -0.0 included."""

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.data())
    @example(1, 1, 1, None)
    def test_same_bits_as_the_two_temporary_form(self, batch, in_dim, out_dim, data):
        if data is None:  # a product that underflows to -0.0, then a -0.0 bias
            x, w, b = np.array([[-1e-200]]), np.array([[1e-200]]), np.array([-0.0])
        else:
            values = st.floats() | st.sampled_from(_DENSE_EDGES)

            def matrix(*shape):
                size = int(np.prod(shape))
                drawn = data.draw(st.lists(values, min_size=size, max_size=size))
                return np.array(drawn, dtype=float).reshape(shape)

            x, w, b = matrix(batch, in_dim), matrix(out_dim, in_dim), matrix(out_dim)
        for activation in ("linear", "relu", "leaky_relu"):
            with np.errstate(all="ignore"):
                y, (cached_x, z) = DenseLayer(w, b, activation).forward(x)
                y_ref, z_ref = _dense_reference(x, w, b, activation)
            assert cached_x is x
            assert z.tobytes() == z_ref.tobytes(), activation
            assert y.tobytes() == y_ref.tobytes(), activation


class TestBlockedLossPass:
    """``_distinct_row_losses`` scores LOSS_BLOCK cases at a time; its
    losses are the bits of one ``_cosine_softmax`` over the whole chunk."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 600),
        st.booleans(),
        st.sampled_from([3, 16, 128]),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @example(1, False, 1062, 4, 0)
    @example(LOSS_BLOCK + 1, True, 128, 4, 1)  # a last block of one case
    @example(9 * LOSS_BLOCK + 1, False, 1062, 4, 2)
    @example(600, True, 1062, 4, 3)
    def test_same_bits_as_one_softmax_over_the_chunk(self, b, query_in_tower, width, k, seed):
        rng = np.random.default_rng(seed)
        n = 700
        prev_x, next_x = rng.standard_normal((n, width)), rng.standard_normal((n, width))
        idx = rng.choice(n, size=b, replace=False)
        succ = np.concatenate([idx, rng.integers(0, n, size=(b, k)).reshape(-1)])
        if query_in_tower:  # the relevance model's layout
            parts, raw_query = [(prev_x, idx), (next_x, succ)], None
        else:  # the autoencoder's
            parts, raw_query = [(next_x, succ)], rng.standard_normal((b, width))
        # row-wise and elementwise: encoding the distinct rows or every row
        # gives the same bits, so only the loss blocks can differ
        encode = np.tanh
        got = _distinct_row_losses(encode, parts, b, raw_query)
        out = encode(stack_rows(parts))
        q = out[:b] if query_in_tower else raw_query
        cands = out[candidate_rows(len(out), b, query_in_tower)]
        assert got.tobytes() == _cosine_softmax(q, cands, np.zeros(b, dtype=int))[0].tobytes()

    def test_a_512_case_autoencoder_chunk_peaks_under_30_mb(self):
        # the train benchmark's shape: 640 library rows of about 1,000
        # feature columns, hidden 512, embedding 128 and 4 negatives
        d, n, b = 1000, 640, 512
        rng = stream_rng(11, "loss-pass-memory")
        dims = [(d, 512), (512, 128), (128, 512), (512, d)]
        layers = [DenseLayer(*DenseLayer.initial_params(rng, i, o), "leaky_relu") for i, o in dims]
        x = (rng.random((n, d)) < 0.02) + np.eye(n, d)  # sparse counts, no zero row
        idx = np.arange(b)
        negs = sample_negatives(rng, idx, n, 4)
        parts = [(x, np.concatenate([idx, negs.reshape(-1)]))]
        raw_query = x[idx]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            losses = _distinct_row_losses(
                lambda rows: dense_stack_output(layers, rows), parts, b, raw_query
            )
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert losses.shape == (b,) and np.isfinite(losses).all()
        # one (512, 5, 1000) candidate block alone is 20.5 MB
        assert peak < 30 * 2**20


class TestSgdStep:
    def test_zero_rate_keeps_parameters(self):
        p = np.array([1.0, 2.0])
        sgd_step([p], [np.array([5.0, -5.0])], lr=0.0)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_basic_update(self):
        p = np.array([1.0, 2.0])
        sgd_step([p], [np.array([1.0, -1.0])], lr=0.5)
        np.testing.assert_array_equal(p, [0.5, 2.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step([np.ones(2)], [np.ones(3)], lr=0.1)

    def test_refused_call_changes_nothing(self):
        # the second pair is refused; the first must not have been updated
        params = [np.array([1.0, 1.0]), np.ones(2)]
        grads = [np.array([1.0, 1.0]), np.ones(3)]
        before = [a.copy() for a in params + grads]
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(params, grads, lr=0.5)
        for a, b in zip(params + grads, before):
            np.testing.assert_array_equal(a, b)

    def test_same_bits_as_the_out_of_place_update(self):
        rng = stream_rng(5, "sgd-bits")
        p = rng.standard_normal((64, 33))
        g = rng.standard_normal((64, 33)) * 10.0 ** rng.integers(-300, 300, size=(64, 33))
        g[::7] = 0.0
        g[1, :3] = [-0.0, 1e300, -1e300]
        for lr in (0.005, 0.2, 1.0, 3e-7):
            expected = p - lr * g
            got = p.copy()
            sgd_step([got], [g.copy()], lr)
            assert got.tobytes() == expected.tobytes(), lr


class TestInBatchNegatives:
    @pytest.mark.parametrize("k", [1, 4, 31])
    def test_each_case_takes_k_distinct_other_rows_of_its_batch(self, k):
        idx = stream_rng(1, "ring-batch").permutation(100)[:32]
        negs = in_batch_negatives(stream_rng(2, "ring"), idx, 100, k)
        assert negs.shape == (32, k)
        for case, row in zip(idx, negs):
            assert len(set(row)) == k and case not in row and set(row) <= set(idx)

    def test_a_batch_larger_than_k_draws_nothing(self):
        rng = stream_rng(3, "ring")
        in_batch_negatives(rng, np.arange(5), 50, 4)
        assert rng.random() == stream_rng(3, "ring").random()

    @pytest.mark.parametrize("b", [1, 3, 4])
    def test_a_short_batch_pads_its_ring_with_distinct_rows_from_outside(self, b):
        # 35 units at batch size 32 leave a last batch of 3 cases
        idx = stream_rng(4, "ring-batch").permutation(35)[:b]
        negs = in_batch_negatives(stream_rng(5, "ring"), idx, 35, 4)
        pad = set(negs.ravel().tolist()) - set(idx.tolist())
        assert len(pad) == 4 + 1 - b
        for case, row in zip(idx, negs):
            assert len(set(row)) == 4 and case not in row


class TestStreams:
    def test_deterministic(self):
        a = stream_rng(7, "x", 1).random(5)
        b = stream_rng(7, "x", 1).random(5)
        np.testing.assert_array_equal(a, b)

    def test_labels_separate_streams(self):
        a = stream_rng(7, "x").random(5)
        b = stream_rng(7, "y").random(5)
        assert not np.array_equal(a, b)
        assert derive_seed(7, "x") != derive_seed(7, "y")

    def test_cached_label_digest_matches_uncached(self):
        def uncached(master, *stream):
            z = _splitmix64(master & _M64)
            for part in stream:
                if isinstance(part, str):
                    part = int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "little")
                z = _splitmix64(z ^ (int(part) & _M64))
            return z

        _label_digest.cache_clear()
        for _ in range(2):  # a cold and a warm cache
            for stream in (("nextunit", 0), ("rank50", 599), ("x", "nextunit", 3), (2**70,)):
                assert derive_seed(2025, *stream) == uncached(2025, *stream)
        assert _label_digest.cache_info().hits > 0

    def test_dropout_mask_values(self):
        rng = stream_rng(3, "drop")
        mask = dropout_mask(rng, (200, 50), keep=0.5)
        assert set(np.unique(mask)) <= {0.0, 2.0}
        assert abs(mask.mean() - 1.0) < 0.05
        np.testing.assert_array_equal(dropout_mask(rng, (4, 4), keep=1.0), np.ones((4, 4)))


def _tiny_feature_vocab(n_pitches=4):
    return FeatureVocabulary(
        {
            "note": [(60 + i, Fraction(1, 4)) for i in range(n_pitches)],
            "pitch": [60 + i for i in range(n_pitches)],
            "dur": [Fraction(1, 4)],
            "class": [i % 12 for i in range(n_pitches)],
            "class_dur": [],
            "pitch_bigram": [],
            "dur_bigram": [],
            "class_bigram": [],
        }
    )


class TestGradCheck:
    """Analytic gradients vs central finite differences (the oracle)."""

    def test_no_hidden_generator(self):
        # weights and checked coordinates come only from the caller's generator
        vocab = _tiny_feature_vocab()
        for build in (
            lambda: AutoencoderModel(vocab),
            lambda: DssmModel(vocab),
            lambda: LmModel(NoteVocabulary([(60, Fraction(1, 4))])),
            lambda: grad_check([np.zeros(3)], [np.zeros(3)], lambda: 0.0),
        ):
            with pytest.raises(TypeError, match="rng"):
                build()

    def test_autoencoder_cosine_softmax(self):
        vocab = _tiny_feature_vocab()
        worst = 0.0
        for seed in (1, 2, 3):
            rng = stream_rng(seed, "gc-ae")
            model = AutoencoderModel(vocab, hidden=6, embedding=4, rng=rng)
            # lift reconstruction norms away from ~0, where the cosine
            # loss curves too sharply for finite differences to resolve
            model.dec2.b += 0.3
            x = rng.random((8, vocab.dimension)) + 0.05
            idx = np.arange(4)
            negs = rng.integers(4, 8, size=(4, 2))
            _, grads = autoencoder_batch_loss(model, x, idx, negs)
            loss_fn = lambda: autoencoder_batch_loss(model, x, idx, negs)[0]
            worst = max(worst, grad_check(model.params, grads, loss_fn, rng=rng))
        assert worst < 1e-4

    @pytest.mark.parametrize("b", [5, 2], ids=["ring", "padded"])
    def test_autoencoder_in_batch_negatives(self, b):
        # negatives repeat batch rows, so one tower row serves several cases
        vocab = _tiny_feature_vocab()
        worst = 0.0
        for seed in (1, 2, 3):
            rng = stream_rng(seed, "gc-ae-ring")
            model = AutoencoderModel(vocab, hidden=6, embedding=4, rng=rng)
            model.dec2.b += 0.3
            x = rng.random((8, vocab.dimension)) + 0.05
            idx = rng.permutation(8)[:b]
            negs = in_batch_negatives(rng, idx, 8, 2)
            _, grads = autoencoder_batch_loss(model, x, idx, negs)
            loss_fn = lambda: autoencoder_batch_loss(model, x, idx, negs)[0]
            worst = max(worst, grad_check(model.params, grads, loss_fn, rng=rng))
        assert worst < 1e-4

    def test_autoencoder_shared_rows_match_expanded_rows(self):
        # the same cases with every candidate its own tower row
        vocab = _tiny_feature_vocab()
        rng = stream_rng(4, "ae-shared-rows")
        model = AutoencoderModel(vocab, hidden=6, embedding=4, rng=rng)
        model.dec2.b += 0.3
        x = rng.random((12, vocab.dimension)) + 0.05
        idx = rng.permutation(12)[:6]
        negs = in_batch_negatives(rng, idx, 12, 3)
        loss, grads = autoencoder_batch_loss(model, x, idx, negs)
        rows = np.concatenate([idx, negs.ravel()])
        expanded = candidate_rows(len(rows), len(idx), query_in_tower=False)
        ref_loss, ref_grads = relevance_batch_loss(model.layers, x[rows], expanded, x[idx])
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=1e-12)

    def test_dssm_successor_loss(self):
        vocab = _tiny_feature_vocab()
        worst = 0.0
        for seed in (1, 2, 3):
            rng = stream_rng(seed, "gc-dssm")
            model = DssmModel(vocab, width=5, embedding=4, rng=rng)
            # keep some rectifier units active at this tiny width so no
            # embedding degenerates to the zero vector
            model.h1.b += 0.2
            model.h2.b += 0.2
            prev = rng.random((6, vocab.dimension)) + 0.05
            nxt = rng.random((6, vocab.dimension)) + 0.05
            idx = np.arange(3)
            negs = rng.integers(3, 6, size=(3, 2))
            _, grads = dssm_batch_loss(model, prev, nxt, idx, negs)
            loss_fn = lambda: dssm_batch_loss(model, prev, nxt, idx, negs)[0]
            worst = max(worst, grad_check(model.params, grads, loss_fn, rng=rng))
        assert worst < 1e-4

    def test_lstm_log_loss_single_step_and_sequence(self):
        vocab = NoteVocabulary([(60 + i, Fraction(1, 4)) for i in range(5)])
        worst = 0.0
        for seed in (1, 2, 3):
            rng = stream_rng(seed, "gc-lm")
            model = LmModel(vocab, hidden=5, rng=rng)
            for t in (1, 4):  # single step, then through-time
                x = rng.integers(2, vocab.size, size=(3, t))
                y = rng.integers(2, vocab.size, size=(3, t))
                _, grads = lm_batch_loss(model, x, y)
                loss_fn = lambda: lm_batch_loss(model, x, y)[0]
                worst = max(worst, grad_check(model.params, grads, loss_fn, rng=rng))
        assert worst < 1e-4

    def test_corrupted_gradient_detected(self):
        vocab = _tiny_feature_vocab()
        rng = stream_rng(9, "gc-bad")
        model = DssmModel(vocab, width=5, embedding=4, rng=rng)
        model.h1.b += 0.2
        model.h2.b += 0.2
        prev = rng.random((6, vocab.dimension)) + 0.05
        nxt = rng.random((6, vocab.dimension)) + 0.05
        idx = np.arange(3)
        negs = rng.integers(3, 6, size=(3, 2))
        _, grads = dssm_batch_loss(model, prev, nxt, idx, negs)
        doubled = [2.0 * g for g in grads]
        loss_fn = lambda: dssm_batch_loss(model, prev, nxt, idx, negs)[0]
        assert grad_check(model.params, doubled, loss_fn, rng=rng) > 0.4


class TestLstmLayer:
    def test_zero_state_shapes(self):
        layer = LstmLayer(*LstmLayer.initial_params(stream_rng(0, "lstm"), 3, 4))
        assert (layer.in_dim, layer.hidden, layer.out_dim) == (3, 4, 4)
        h, c = layer.zero_state(2)
        assert h.shape == (2, 4) and c.shape == (2, 4)

    def test_initial_params_draw_w_then_u_and_open_the_forget_gate(self):
        w, u, b = LstmLayer.initial_params(stream_rng(0, "lstm"), 3, 4)
        rng = stream_rng(0, "lstm")
        assert np.array_equal(w, glorot_uniform(rng, 16, 3))
        assert np.array_equal(u, glorot_uniform(rng, 16, 4))
        assert np.array_equal(b, np.repeat([0.0, 1.0, 0.0, 0.0], 4))

    def test_step_is_pure(self):
        rng = stream_rng(5, "lstm")
        layer = LstmLayer(*LstmLayer.initial_params(rng, 3, 4))
        x = rng.normal(size=(2, 3))
        h, c = layer.zero_state(2)
        h1, c1, _ = layer.step(x, h, c)
        h2, c2, _ = layer.step(x, h, c)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(c1, c2)


@st.composite
def _token_batches(draw):
    """(vocabulary size, hidden, token ids, seed): ids include PAD (0),
    repeats, and batches where one token fills every row."""
    vocab = draw(st.integers(3, 300))
    hidden = draw(st.sampled_from([1, 3, 16, 64, 128]))
    batch = draw(st.integers(1, 600))
    kind = draw(st.sampled_from(["any", "few", "one", "pad"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "one":
        ids = np.full(batch, draw(st.integers(0, vocab - 1)))
    else:
        ids = rng.integers(0, min(vocab, 3) if kind == "few" else vocab, size=batch)
        if kind == "pad":
            ids[rng.random(batch) < 0.5] = 0
    return vocab, hidden, ids, seed


def _steps_both_ways(vocab, hidden, ids, seed):
    """One forward and backward step of one layer on token ids and on the
    equal one-hot rows ``np.eye(vocab)[ids]``, and the gate gradient ``da``
    (the dense path's ``dw`` for identity input rows is ``da.T``)."""
    rng = np.random.default_rng(seed)
    layer = LstmLayer(*LstmLayer.initial_params(rng, vocab, hidden))
    batch = len(ids)
    h, c = rng.normal(size=(batch, hidden)), rng.normal(size=(batch, hidden))
    dh, dc = rng.normal(size=(batch, hidden)), rng.normal(size=(batch, hidden))
    out = []
    for x in (ids, np.eye(vocab)[ids]):
        h2, c2, cache = layer.step(x, h, c)
        out.append((h2, c2, *layer.backward_step(dh, dc, cache)))
    da = layer.backward_step(dh, dc, (np.eye(batch), *cache[1:]))[3].T
    return out, da


class TestTokenInputs:
    """``LstmLayer.step`` on (batch,) token ids is the one-hot input without
    the one-hot matrix: the same state and gradients, no input gradient,
    and ``dw`` summed in batch order."""

    @settings(deadline=None, max_examples=150)
    @given(_token_batches())
    def test_matches_one_hot_rows(self, case):
        vocab, hidden, ids, _ = case
        (by_ids, by_rows), da = _steps_both_ways(*case)
        assert by_ids[2] is None and by_rows[2].shape == (len(ids), vocab)
        for k in (0, 1, 3, 4, 6, 7):  # h, c, dh_prev, dc_prev, du, db
            assert np.array_equal(by_ids[k], by_rows[k])
        dw, dw_one_hot = by_ids[5], by_rows[5]
        # each token's column starts at zero and adds its rows in batch
        # order, which is what np.add.at does
        in_order = np.zeros_like(dw)
        np.add.at(in_order.T, ids, da)
        assert np.array_equal(dw, in_order)
        # BLAS may add the one-hot product's terms in another order: in
        # blocks of 256 rows, and in the last few columns of the vocabulary
        # even below that. The tolerance is the bound on reordering a sum of
        # n terms: n * eps * the sum of their magnitudes.
        magnitudes = np.zeros_like(dw)
        np.add.at(magnitudes.T, ids, np.abs(da))
        bound = len(ids) * np.finfo(float).eps * magnitudes
        assert np.all(np.abs(dw - dw_one_hot) <= bound)

def _masked_sigmoid(z):
    """The boolean-mask logistic that ``_sigmoid`` replaced, kept as its bit
    reference: 1/(1+exp(-z)) where z >= 0, exp(z)/(1+exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_TINY = np.finfo(float).tiny
_SIGMOID_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 745.0, -745.0, 746.0, -746.0,
    5e-324, -5e-324, _TINY / 2, -_TINY / 2, _TINY, -_TINY, 36.7, -36.7, 709.8, -709.8,
]


class TestSigmoid:
    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(st.floats() | st.sampled_from(_SIGMOID_EDGES), min_size=1, max_size=80),
        st.integers(1, 4),
    )
    def test_same_bits_as_the_masked_form(self, values, rows):
        z = np.resize(np.array(values), (rows, len(values)))
        assert np.array_equal(_sigmoid(z), _masked_sigmoid(z), equal_nan=True)

    def test_packed_gate_block_same_bits(self):
        # the shape the LSTM cell passes: (batch, 4*hidden), every edge included
        z = stream_rng(3, "sigmoid").normal(scale=40.0, size=(7, 512))
        z.flat[: len(_SIGMOID_EDGES)] = _SIGMOID_EDGES
        out = _sigmoid(z)
        assert np.array_equal(out, _masked_sigmoid(z), equal_nan=True)
        assert out[0, 2] == 1.0 and out[0, 3] == 0.0 and np.isnan(out[0, 4])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(dropout_keep=0.0)
        with pytest.raises(ValueError):
            TrainConfig(negatives=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.005
        assert cfg.dropout_keep == 0.5
        assert cfg.negatives == 4
