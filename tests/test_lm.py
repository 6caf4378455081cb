import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toygen import make_toy_corpus
from unitsel._util import canonical_json, chunked_map, sha256_hex
from unitsel.corpus import save_model
from unitsel.lm import (
    CONTEXT_LEN,
    OOV,
    PAD,
    PAD_PREFIX_ROWS,
    LmModel,
    NoteVocabulary,
    _eval_perplexity,
    build_note_vocab,
    concat_cost,
    context_window,
    detokenize,
    first_note_costs,
    leading_pad_steps,
    lm_batch_loss,
    make_windows,
    note_distribution,
    note_distributions,
    tokenize,
    tokenize_unit,
    train_lm,
)
from unitsel.music import Measure, Note, Piece, Provenance, Unit, whole_rest_measure, REST
from unitsel.nn import (
    DenseLayer,
    LstmLayer,
    TrainConfig,
    dropout_mask,
    glorot_uniform,
    sgd_step,
    softmax,
    stream_rng,
)

Q = Fraction(1, 4)
_DURATIONS = [Q, Fraction(2, 8), Fraction(1, 2), 1, Fraction(1), Fraction(3, 8)]


class TestTokenize:
    def test_repeated_note_tokens(self):
        vocab = NoteVocabulary([(60, Q)])
        p = Piece("p", (Measure(tuple(Note(60, Q) for _ in range(4))),))
        toks = tokenize(p, vocab)
        assert toks == [vocab.encode((60, Q))] * 4

    def test_whole_rest_single_token(self):
        vocab = NoteVocabulary([(REST, Fraction(1))])
        p = Piece("p", (whole_rest_measure(),))
        assert len(tokenize(p, vocab)) == 1

    def test_fixture_token_count_equals_note_count(self, fixture_corpus):
        vocab = build_note_vocab(fixture_corpus)
        for p in fixture_corpus.pieces:
            assert len(tokenize(p, vocab)) == len(p.notes)

    def test_round_trip(self, fixture_corpus):
        vocab = build_note_vocab(fixture_corpus)
        p = fixture_corpus.pieces[0]
        symbols = detokenize(tokenize(p, vocab), vocab)
        assert symbols == [(n.pitch, n.duration) for n in p.notes]

    @settings(deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([REST, 60, 61, 62]), st.sampled_from(_DURATIONS))),
        st.lists(
            st.tuples(st.sampled_from([REST, 60, 61, 62, 127]), st.sampled_from(_DURATIONS)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_integer_lookup_equals_symbol_lookup(self, symbols, notes):
        # equal durations written differently (2/8 and 1/4, 1 and
        # Fraction(1)) must meet, and every other note is OOV
        vocab = NoteVocabulary(list({(p, Fraction(d)): None for p, d in symbols}))
        piece = Piece("p", (Measure(tuple(Note(p, d) for p, d in notes)),))
        expected = [vocab.encode((n.pitch, n.duration)) for n in piece.notes]
        assert tokenize(piece, vocab) == expected
        assert (OOV in expected) == any((p, d) not in vocab.symbols for p, d in notes)

    def test_unseen_symbol_becomes_oov(self):
        vocab = NoteVocabulary([(60, Q)])
        assert vocab.encode((61, Q)) == OOV

    def test_pad_oov_not_decodable(self):
        vocab = NoteVocabulary([(60, Q)])
        for tok in (PAD, OOV):
            with pytest.raises(ValueError):
                vocab.decode(tok)


class TestContextWindow:
    def test_left_padding(self):
        ctx = context_window([5, 6, 7])
        assert ctx.shape == (CONTEXT_LEN,)
        assert list(ctx[:-3]) == [PAD] * (CONTEXT_LEN - 3)
        assert list(ctx[-3:]) == [5, 6, 7]

    def test_truncates_to_last_tokens(self):
        ctx = context_window(list(range(100)))
        assert list(ctx) == list(range(64, 100))


class TestMakeWindows:
    def test_shapes_and_masking(self):
        stream = list(range(2, CONTEXT_LEN + 3))  # 37 tokens, 2..38
        x, y = make_windows([stream])
        assert x.shape == y.shape == (2, CONTEXT_LEN)
        # stream [PAD,2..38]: inputs [PAD,2..36 | 37], targets [2..37 | 38]
        pads = [PAD] * (CONTEXT_LEN - 1)
        assert x.tolist() == [[PAD] + stream[:-2], [stream[-2]] + pads]
        assert y.tolist() == [stream[:-1], [stream[-1]] + pads]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_windows([[]])


@pytest.fixture(scope="module")
def toy_lm():
    corpus = make_toy_corpus(12, n_measures=12, seed=31)
    vocab = build_note_vocab(corpus)
    streams = [tokenize(p, vocab) for p in corpus.pieces]
    cfg = TrainConfig(epochs=15, seed=31, learning_rate=1.0, dropout_keep=0.8)
    model = train_lm(streams, vocab, cfg, hidden=32)
    return corpus, vocab, model


class TestTraining:
    def test_perplexity_decreases(self, toy_lm):
        _, _, model = toy_lm
        assert model.perplexity_curve[-1] < model.perplexity_curve[0]

    def test_degenerate_corpus_memorized(self):
        vocab = NoteVocabulary([(60, Q)])
        tok = vocab.encode((60, Q))
        cfg = TrainConfig(epochs=30, seed=1, learning_rate=1.0, dropout_keep=1.0)
        model = train_lm([[tok] * 80], vocab, cfg, hidden=16)
        dist = note_distribution(context_window([tok] * CONTEXT_LEN), model)
        assert dist[tok] >= 0.99

    def test_zero_rate_flat_perplexity(self, toy_lm):
        corpus, vocab, _ = toy_lm
        streams = [tokenize(p, vocab) for p in corpus.pieces[:4]]
        cfg = TrainConfig(epochs=3, seed=2, learning_rate=0.0)
        model = train_lm(streams, vocab, cfg, hidden=16)
        assert len(set(model.perplexity_curve)) == 1

    def test_same_seed_identical(self, toy_lm):
        corpus, vocab, _ = toy_lm
        streams = [tokenize(p, vocab) for p in corpus.pieces[:4]]
        cfg = TrainConfig(epochs=2, seed=5, learning_rate=1.0)
        m1 = train_lm(streams, vocab, cfg, hidden=16)
        m2 = train_lm(streams, vocab, cfg, hidden=16)
        for p1, p2 in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p1, p2)

    def test_needs_a_real_sequence(self):
        vocab = NoteVocabulary([(60, Q)])
        with pytest.raises(ValueError):
            train_lm([[vocab.encode((60, Q))]], vocab, TrainConfig(epochs=1, seed=0))

    def test_archive_bytes_are_the_parent_loops(self, tmp_path):
        # several batches, the last one short, with dropout on
        corpus = make_toy_corpus(6, n_measures=12, seed=17)
        vocab = build_note_vocab(corpus)
        streams = [tokenize(p, vocab) for p in corpus.pieces]
        cfg = TrainConfig(epochs=2, seed=17, learning_rate=1.0, dropout_keep=0.8, batch_size=5)
        assert len(make_windows(streams)[0]) % cfg.batch_size != 0
        model = train_lm(streams, vocab, cfg, hidden=8)
        parent = _parent_train_lm(streams, vocab, cfg, hidden=8)
        assert model.perplexity_curve == parent.perplexity_curve
        save_model(model.to_archive(), tmp_path / "lm.model")
        save_model(parent.to_archive(), tmp_path / "parent.model")
        assert (tmp_path / "lm.model").read_bytes() == (tmp_path / "parent.model").read_bytes()


def _parent_train_lm(streams, vocab, cfg, hidden):
    """``train_lm`` as it was before one loop ran every trainer: layers built
    by hand from the ``lm-init`` stream (each LSTM's ``w``, then its ``u``,
    layer by layer, then the output layer's ``w``), and its own epoch loop
    drawing two ``(batch, hidden)`` dropout masks per batch from ``lm-dropout``."""
    x, y = make_windows(streams)
    rng = stream_rng(cfg.seed, "lm-init")
    model = LmModel(vocab, hidden=hidden, rng=np.random.default_rng(0))
    for name, in_dim in (("lstm1", vocab.size), ("lstm2", hidden)):
        w = glorot_uniform(rng, 4 * hidden, in_dim)
        u = glorot_uniform(rng, 4 * hidden, hidden)
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0
        setattr(model, name, LstmLayer(w, u, b))
    model.out = DenseLayer(glorot_uniform(rng, vocab.size, hidden), np.zeros(vocab.size), "linear")
    n = len(x)
    for epoch in range(cfg.epochs):
        order = stream_rng(cfg.seed, "lm-shuffle", epoch).permutation(n)
        drop_rng = stream_rng(cfg.seed, "lm-dropout", epoch)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            masks = (
                dropout_mask(drop_rng, (len(idx), hidden), cfg.dropout_keep),
                dropout_mask(drop_rng, (len(idx), hidden), cfg.dropout_keep),
            )
            _, grads = lm_batch_loss(model, x[idx], y[idx], masks)
            sgd_step(model.params, grads, cfg.learning_rate)
        model.perplexity_curve.append(_eval_perplexity(model, x, y))
    return model


class TestNoteDistribution:
    def test_sums_to_one(self, toy_lm):
        corpus, vocab, model = toy_lm
        toks = tokenize(corpus.pieces[0], vocab)
        dist = note_distribution(context_window(toks), model)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert np.all(dist > 0)

    def test_all_pad_context_is_valid(self, toy_lm):
        _, _, model = toy_lm
        dist = note_distribution(context_window([]), model)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert np.all(np.isfinite(dist))

    def test_identical_contexts_identical_outputs(self, toy_lm):
        corpus, vocab, model = toy_lm
        ctx = context_window(tokenize(corpus.pieces[1], vocab))
        np.testing.assert_array_equal(
            note_distribution(ctx, model), note_distribution(ctx, model)
        )

    def test_batched_matches_single(self, toy_lm):
        corpus, vocab, model = toy_lm
        contexts = np.stack(
            [context_window(tokenize(p, vocab)) for p in corpus.pieces[:6]]
        )
        batch = note_distributions(contexts, model)
        for i in range(6):
            np.testing.assert_allclose(
                batch[i], note_distribution(contexts[i], model), atol=1e-12
            )

    def test_threads_bit_identical(self, toy_lm):
        corpus, vocab, model = toy_lm
        contexts = np.stack(
            [context_window(tokenize(p, vocab)) for p in corpus.pieces]
        )
        np.testing.assert_array_equal(
            note_distributions(contexts, model, threads=1),
            note_distributions(contexts, model, threads=4),
        )

    def test_wrong_length_rejected(self, toy_lm):
        _, _, model = toy_lm
        with pytest.raises(ValueError):
            note_distribution(np.zeros(10, dtype=np.int64), model)


def _pad_heavy_windows(vocab, batch, seed):
    """Windows whose first 28 to 35 positions are PAD, as short histories give."""
    rng = np.random.default_rng(seed)
    x = rng.integers(2, vocab.size, size=(batch, CONTEXT_LEN))
    for row, pads in enumerate(rng.integers(28, CONTEXT_LEN, size=batch)):
        x[row, :pads] = PAD
    x[0, -1] = OOV
    return x


def _one_hot_distributions(model, x):
    """All-steps distributions through one-hot inputs and ``LstmLayer.step``,
    the form that the gathered input rows replaced."""
    b, t = x.shape
    h1, c1 = model.lstm1.zero_state(b)
    h2, c2 = model.lstm2.zero_state(b)
    probs = np.empty((b, t, model.vocab.size))
    for step in range(t):
        h1, c1, _ = model.lstm1.step(np.eye(model.vocab.size)[x[:, step]], h1, c1)
        h2, c2, _ = model.lstm2.step(h1, h2, c2)
        probs[:, step, :] = softmax(model.out.forward(h2)[0])
    return probs


class TestStepDistributions:
    @pytest.mark.parametrize("batch", [1, 7])
    def test_last_only_is_the_last_column_bit_for_bit(self, toy_lm, batch):
        _, vocab, model = toy_lm
        x = _pad_heavy_windows(vocab, batch, seed=batch)
        every = model.step_distributions(x)
        last = model.step_distributions(x, last_only=True)
        assert last.shape == (batch, vocab.size)
        assert np.array_equal(last, every[:, -1, :])

    @pytest.mark.parametrize("batch", [1, 7])
    def test_gathered_rows_equal_one_hot_inputs_bit_for_bit(self, toy_lm, batch):
        _, vocab, model = toy_lm
        x = _pad_heavy_windows(vocab, batch, seed=10 + batch)
        assert np.array_equal(model.step_distributions(x), _one_hot_distributions(model, x))

    def test_note_distributions_read_the_final_step(self, toy_lm):
        _, vocab, model = toy_lm
        x = _pad_heavy_windows(vocab, 7, seed=3)
        every = model.step_distributions(x)
        assert np.array_equal(note_distributions(x, model), every[:, -1, :])
        one = model.step_distributions(x[4:5])  # batch 1 takes BLAS's matrix-vector path
        assert np.array_equal(note_distribution(x[4], model), one[0, -1, :])

    def test_last_only_needs_a_step(self, toy_lm):
        _, _, model = toy_lm
        with pytest.raises(ValueError):
            model.step_distributions(np.zeros((2, 0), dtype=np.int64), last_only=True)


def _one_hot_batch_loss(model, x, y, masks):
    """``lm_batch_loss`` as it was before layer 1 read token ids: one-hot
    input rows at every step, and layer 1's unused input gradient."""
    b, t = x.shape
    v = model.vocab.size
    m1, m2 = masks
    supervised = (y != PAD).astype(float)
    total = supervised.sum()
    h1, c1 = model.lstm1.zero_state(b)
    h2, c2 = model.lstm2.zero_state(b)
    caches = []
    probs_steps = np.empty((b, t, v))
    for step in range(t):
        xoh = np.zeros((b, v))
        xoh[np.arange(b), x[:, step]] = 1.0
        h1, c1, cache1 = model.lstm1.step(xoh, h1, c1)
        h2, c2, cache2 = model.lstm2.step(h1 * m1, h2, c2)
        logits, cache_out = model.out.forward(h2 * m2)
        probs_steps[:, step, :] = softmax(logits)
        caches.append((cache1, cache2, cache_out))
    rows = np.arange(b)
    nll = 0.0
    for step in range(t):
        p_true = probs_steps[rows, step, y[:, step]]
        nll -= float(np.sum(np.log(p_true) * supervised[:, step]))
    grads = [np.zeros_like(p) for p in model.params]
    dh1_carry, dc1_carry = model.lstm1.zero_state(b)
    dh2_carry, dc2_carry = model.lstm2.zero_state(b)
    for step in reversed(range(t)):
        cache1, cache2, cache_out = caches[step]
        dlogits = probs_steps[:, step, :].copy()
        dlogits[rows, y[:, step]] -= 1.0
        dlogits *= (supervised[:, step] / total)[:, None]
        dh2d, dwo, dbo = model.out.backward(dlogits, cache_out)
        dh1d, dh2_carry, dc2_carry, *g2 = model.lstm2.backward_step(
            dh2d * m2 + dh2_carry, dc2_carry, cache2
        )
        _, dh1_carry, dc1_carry, *g1 = model.lstm1.backward_step(
            dh1d * m1 + dh1_carry, dc1_carry, cache1
        )
        for acc, g in zip(grads, [*g1, *g2, dwo, dbo]):
            acc += g
    return nll / total, grads


class TestBatchLoss:
    @pytest.mark.parametrize("batch", [1, 7, 32, 256])
    def test_token_ids_give_the_one_hot_gradients(self, toy_lm, batch):
        _, vocab, model = toy_lm
        rng = stream_rng(batch, "lm-loss-bits")
        x = rng.integers(0, vocab.size, size=(batch, CONTEXT_LEN))
        y = rng.integers(0, vocab.size, size=(batch, CONTEXT_LEN))
        x[:, :5] = PAD
        y[:, -3:] = PAD
        y[0, 0] = 2  # at least one supervised position
        masks = tuple(dropout_mask(rng, (batch, model.hidden), 0.5) for _ in range(2))
        loss, grads = lm_batch_loss(model, x, y, masks)
        loss_ref, grads_ref = _one_hot_batch_loss(model, x, y, masks)
        assert loss == loss_ref
        assert len(grads) == len(grads_ref) == 8
        for got, want in zip(grads[1:], grads_ref[1:]):
            assert np.array_equal(got, want)
        # layer 1's dw adds the same terms, but BLAS may have added the
        # one-hot product's in another order (see TestTokenInputs in
        # test_nn.py); a reordered sum of n <= 36 * 256 terms moves by far
        # less than this
        dw1, dw1_ref = grads[0], grads_ref[0]
        assert np.all(np.abs(dw1 - dw1_ref) <= 1e-9 * np.abs(dw1_ref).max())

def _parent_note_distributions(contexts, model, threads=1):
    """``note_distributions`` as it was before it ran each distinct context
    once and shared the PAD prefix: every row, every step, in 256-row
    chunks."""
    contexts = np.asarray(contexts, dtype=np.int64)

    def chunk(start, stop):
        x = contexts[start:stop]
        h1, c1 = model.lstm1.zero_state(len(x))
        h2, c2 = model.lstm2.zero_state(len(x))
        for step in range(x.shape[1]):
            h1, c1, _ = model.lstm1.step(x[:, step], h1, c1)
            h2, c2, _ = model.lstm2.step(h1, h2, c2)
        return softmax(model.out.forward(h2)[0])

    return np.vstack(chunked_map(chunk, len(contexts), threads))


def _random_lm(hidden, vocab_size=49):
    """An untrained LM at the score workload's vocabulary size."""
    vocab = NoteVocabulary([(36 + i, Q) for i in range(vocab_size - 2)])
    return LmModel(vocab, hidden=hidden, rng=stream_rng(hidden, "lm-bits"))


@pytest.fixture(scope="module")
def random_lms():
    return {hidden: _random_lm(hidden) for hidden in (64, 128)}


def _left_padded(rng, vocab_size, rows, lead):
    """Distinct windows, in the order drawn, whose first ``lead`` positions
    are PAD in every row and exactly ``lead`` in row 0; every later
    position is a real token or OOV, so a row is left-padded as
    ``context_window`` pads."""
    x = rng.integers(OOV, vocab_size, size=(rows, CONTEXT_LEN))
    pads = rng.integers(lead, CONTEXT_LEN + 1, size=rows)
    pads[0] = lead
    for row, count in enumerate(pads):
        x[row, :count] = PAD
    _, first = np.unique(x, axis=0, return_index=True)
    return x[np.sort(first)]


class TestDistinctContexts:
    """``note_distributions`` runs each distinct context once and
    ``step_distributions(last_only=True)`` runs the steps that read PAD in
    every row once, on ``PAD_PREFIX_ROWS`` rows. On the shapes below both
    give the parent's bits; see README "Notes on numerics" for where
    OpenBLAS's small-matrix kernel could move a last bit."""

    @pytest.mark.parametrize("hidden", [64, 128])
    @settings(deadline=None, max_examples=25)
    @given(
        rows=st.integers(1, 700),
        lead=st.integers(0, CONTEXT_LEN),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=1, lead=CONTEXT_LEN, seed=0)
    @example(rows=700, lead=0, seed=1)
    @example(rows=PAD_PREFIX_ROWS + 1, lead=CONTEXT_LEN - 1, seed=2)
    def test_distinct_batches_keep_the_parent_bits(self, random_lms, hidden, rows, lead, seed):
        model = random_lms[hidden]
        x = _left_padded(np.random.default_rng(seed), model.vocab.size, rows, lead)
        assert np.array_equal(
            note_distributions(x, model), _parent_note_distributions(x, model)
        )

    @pytest.mark.parametrize("hidden", [64, 128])
    def test_every_left_pad_length(self, random_lms, hidden):
        model = random_lms[hidden]
        rng = stream_rng(hidden, "pad-lengths")
        for lead in range(CONTEXT_LEN + 1):
            x = _left_padded(rng, model.vocab.size, 40, lead)
            assert leading_pad_steps(x) == min(lead, CONTEXT_LEN - 1)
            assert np.array_equal(
                note_distributions(x, model), _parent_note_distributions(x, model)
            ), f"left-PAD length {lead}"

    @pytest.mark.parametrize("hidden", [32, 64])
    def test_repeats_copy_their_first_occurrence(self, hidden, toy_lm):
        model = toy_lm[2] if hidden == 32 else _random_lm(hidden)
        rng = stream_rng(hidden, "repeats")
        distinct = _left_padded(rng, model.vocab.size, 89, 24)
        x = distinct[rng.integers(0, len(distinct), size=600)]
        got = note_distributions(x, model)
        _, first, inverse = np.unique(x, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(got, got[first[inverse]])
        # the distinct rows run in batches of another size than the parent's
        # 256-row chunks, which can move a last bit in BLAS's small-matrix
        # kernel (README, "Notes on numerics"); a last-bit change in a logit
        # moves a probability by far less than this
        np.testing.assert_allclose(got, _parent_note_distributions(x, model), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, 6, 7, 8, PAD_PREFIX_ROWS + 1, 40, 300])
    @pytest.mark.parametrize("hidden", [32, 64])
    def test_last_only_with_a_shared_prefix_is_the_last_column(self, toy_lm, hidden, batch):
        model = toy_lm[2] if hidden == 32 else _random_lm(hidden)
        x = _pad_heavy_windows(model.vocab, batch, seed=100 + batch)
        last = model.step_distributions(x, last_only=True)
        assert np.array_equal(last, model.step_distributions(x)[:, -1, :])

    def test_lead_never_skips_the_last_step(self):
        for t in (1, 2, CONTEXT_LEN):
            assert leading_pad_steps(np.full((3, t), PAD)) == t - 1
            last_only_real = np.full((3, t), PAD)
            last_only_real[1, -1] = 5
            assert leading_pad_steps(last_only_real) == t - 1
        x = np.full((2, CONTEXT_LEN), PAD)
        x[0, 10] = 3
        assert leading_pad_steps(x) == 10
        x[1, 0] = OOV
        assert leading_pad_steps(x) == 0

    def test_all_pad_rows_run_the_final_step(self, toy_lm):
        _, _, model = toy_lm
        x = np.full((PAD_PREFIX_ROWS + 5, CONTEXT_LEN), PAD)
        got = note_distributions(x, model)
        assert np.array_equal(got, np.repeat(note_distribution(x[0], model)[None], len(x), axis=0))
        assert np.array_equal(
            model.step_distributions(x, last_only=True), model.step_distributions(x)[:, -1, :]
        )


def unit_from_measures(piece, start, count):
    return Unit(
        measures=tuple(piece.measures[start : start + count]),
        provenance=Provenance(piece.id, start),
    )


class TestConcatCost:
    def test_j1_matches_distribution_lookup(self, toy_lm):
        corpus, vocab, model = toy_lm
        prev = tokenize(corpus.pieces[0], vocab)
        unit = unit_from_measures(corpus.pieces[1], 0, 1)
        cost = concat_cost(prev, unit, 1, model)
        dist = note_distribution(context_window(prev), model)
        first = tokenize_unit(unit, vocab)[0]
        assert cost == pytest.approx(-math.log(dist[first]), abs=1e-12)

    def test_j3_equals_per_step_oracle(self, toy_lm):
        corpus, vocab, model = toy_lm
        prev = tokenize(corpus.pieces[2], vocab)
        unit = unit_from_measures(corpus.pieces[3], 0, 1)
        toks = tokenize_unit(unit, vocab)
        assert len(toks) >= 3
        # recompute each term independently from note_distribution
        history = list(prev)
        expected = 0.0
        for j in range(3):
            dist = note_distribution(context_window(history), model)
            expected -= math.log(dist[toks[j]])
            history.append(toks[j])
        expected /= 3.0
        assert concat_cost(prev, unit, 3, model) == pytest.approx(expected, abs=1e-12)

    def test_cost_nonnegative(self, toy_lm):
        corpus, vocab, model = toy_lm
        prev = tokenize(corpus.pieces[4], vocab)
        for k in range(5):
            unit = unit_from_measures(corpus.pieces[k], 0, 1)
            assert concat_cost(prev, unit, 1, model) >= 0.0

    def test_j1_ignores_later_notes(self, toy_lm):
        corpus, vocab, model = toy_lm
        prev = tokenize(corpus.pieces[5], vocab)
        base = corpus.pieces[6].measures[0]
        changed = Measure((base.notes[0],) + tuple(
            Note(n.pitch + 1, n.duration) for n in base.notes[1:]
        ))
        u1 = Unit(measures=(base,), provenance=Provenance("a", 0))
        u2 = Unit(measures=(changed,), provenance=Provenance("b", 0))
        assert concat_cost(prev, u1, 1, model) == concat_cost(prev, u2, 1, model)

    def test_j_bounds_checked(self, toy_lm):
        corpus, vocab, model = toy_lm
        unit = unit_from_measures(corpus.pieces[0], 0, 1)
        n = len(tokenize_unit(unit, vocab))
        with pytest.raises(ValueError):
            concat_cost([], unit, 0, model)
        with pytest.raises(ValueError):
            concat_cost([], unit, n + 1, model)

    def test_oov_first_note_scored_not_error(self, toy_lm):
        corpus, vocab, model = toy_lm
        alien = Unit(
            measures=(Measure((Note(90, Fraction(1)),)),),
            provenance=Provenance("x", 0),
        )
        prev = tokenize(corpus.pieces[0], vocab)
        cost = concat_cost(prev, alien, 1, model)
        dist = note_distribution(context_window(prev), model)
        assert cost == pytest.approx(-math.log(dist[OOV]), abs=1e-12)

    def test_first_note_costs_batch_matches_loop(self, toy_lm):
        corpus, vocab, model = toy_lm
        prev = tokenize(corpus.pieces[7], vocab)
        units = [unit_from_measures(corpus.pieces[k], 2, 1) for k in range(6)]
        batch = first_note_costs(prev, units, model)
        for k, u in enumerate(units):
            assert batch[k] == pytest.approx(concat_cost(prev, u, 1, model), abs=1e-12)


class TestVocabularySnapshot:
    def test_round_trip(self, fixture_corpus):
        vocab = build_note_vocab(fixture_corpus)
        again = NoteVocabulary.from_snapshot(vocab.snapshot())
        assert again.symbols == vocab.symbols
        assert again.hash_hex() == vocab.hash_hex()

    def test_snapshot_bytes_are_pinned(self, fixture_corpus):
        # every LSTM archive embeds this snapshot: a codec change that
        # reorders or rewrites its entries changes the bytes of every archive
        snap = build_note_vocab(fixture_corpus).snapshot()
        assert sha256_hex(canonical_json(snap)) == (
            "980db32660b59aeadcc5852ab94f88ce24e663c535291d21ea10dc1165718bda"
        )

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(st.integers(-1, 127), st.fractions(min_value=Fraction(1, 128), max_value=4)),
            unique=True,
            max_size=8,
        )
    )
    def test_snapshot_round_trip(self, symbols):
        snap = NoteVocabulary(symbols).snapshot()
        assert NoteVocabulary.from_snapshot(snap).snapshot() == snap

    @pytest.mark.parametrize("raw", [[60], [60, 1, 4, 1], [True, 1, 4], [60.0, 1, 4], [60, 1, "4"]])
    def test_symbol_that_is_not_three_integers_is_refused(self, raw):
        snap = {"type": "notes", "symbols": [[62, 1, 4], raw]}
        with pytest.raises(ValueError, match="'note' vocabulary entry"):
            NoteVocabulary.from_snapshot(snap)
