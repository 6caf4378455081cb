from fractions import Fraction

import numpy as np
import pytest

from toygen import make_toy_corpus
from unitsel.augment import TRANSPOSE_ONLY, AugmentConfig, build_library, transpose_corpus
from unitsel.corpus import Corpus
from unitsel.dssm import DssmModel, make_training_pairs, relevance, train_dssm
from unitsel.features import build_vocab
from unitsel.music import Measure, Note, Piece
from unitsel.nn import TrainConfig, ZeroNormError, stream_rng

Q = Fraction(1, 4)


def piece_of(n_measures, pid="p"):
    m = Measure(tuple(Note(60 + i, Q) for i in range(4)))
    return Piece(pid, (m,) * n_measures)


class TestMakeTrainingPairs:
    def test_eight_measures_unit4_one_pair(self):
        c = Corpus(pieces=(piece_of(8),), meter=Fraction(1))
        assert len(make_training_pairs(c, 4)) == 1

    def test_eight_measures_unit2_three_pairs(self):
        # windows at stride 2: (m1m2, m3m4, m5m6, m7m8) -> 3 adjacent pairs
        c = Corpus(pieces=(piece_of(8),), meter=Fraction(1))
        assert len(make_training_pairs(c, 2)) == 3

    def test_too_short_piece_raises(self):
        c = Corpus(pieces=(piece_of(4),), meter=Fraction(1))
        with pytest.raises(ValueError, match="shorter than 2 units"):
            make_training_pairs(c, 4)

    def test_non_strict_skips_short_pieces(self):
        c = Corpus(pieces=(piece_of(4, "a"), piece_of(8, "b")), meter=Fraction(1))
        assert len(make_training_pairs(c, 4, strict=False)) == 1

    def test_pairs_never_cross_pieces(self, fixture_corpus):
        pairs = make_training_pairs(fixture_corpus, 2, strict=False)
        for prev, nxt in pairs:
            assert prev.provenance.source_id == nxt.provenance.source_id
            assert nxt.provenance.offset == prev.provenance.offset + 2


@pytest.fixture(scope="module")
def toy_pairs():
    corpus = make_toy_corpus(16, n_measures=12, seed=66)
    pairs = make_training_pairs(corpus, 1)
    units = [u for pair in pairs for u in pair]
    return pairs, build_vocab(units)


@pytest.fixture(scope="module")
def trained(toy_pairs):
    pairs, vocab = toy_pairs
    cfg = TrainConfig(epochs=25, seed=8, learning_rate=0.2)
    return train_dssm(pairs, vocab, cfg, width=48, embedding=24)


class TestTraining:
    def test_loss_decreases(self, trained):
        assert trained.loss_curve[-1] < trained.loss_curve[0]

    def test_zero_rate_flat(self, toy_pairs):
        pairs, vocab = toy_pairs
        cfg = TrainConfig(epochs=3, seed=8, learning_rate=0.0)
        model = train_dssm(pairs, vocab, cfg, width=32, embedding=16)
        assert len(set(model.loss_curve)) == 1

    def test_same_seed_identical(self, toy_pairs):
        pairs, vocab = toy_pairs
        cfg = TrainConfig(epochs=2, seed=8, learning_rate=0.2)
        m1 = train_dssm(pairs, vocab, cfg, width=32, embedding=16)
        m2 = train_dssm(pairs, vocab, cfg, width=32, embedding=16)
        for p1, p2 in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p1, p2)

    def test_too_few_pairs(self, toy_pairs):
        pairs, vocab = toy_pairs
        with pytest.raises(ValueError, match="too few"):
            train_dssm(pairs[:3], vocab, TrainConfig(epochs=1, seed=0))


class TestNarrowTower:
    """At width 16 and keep 0.5, dropout can zero a whole hidden row; the
    linear head's bias starts at 0, so that row embeds to exactly 0."""

    @pytest.fixture(scope="class")
    def fixture_pairs(self, fixture_corpus):
        cfg = AugmentConfig(unit_length=1, transpose_shifts=(0,), mode=TRANSPOSE_ONLY)
        tcorp = transpose_corpus(fixture_corpus, cfg)
        return make_training_pairs(tcorp, 1), build_vocab(build_library(tcorp, cfg))

    def test_zeroed_row_names_epoch_batch_and_dropout(self, fixture_pairs):
        pairs, vocab = fixture_pairs
        cfg = TrainConfig(epochs=1, seed=5, batch_size=16, dropout_keep=0.5)
        with pytest.raises(ZeroNormError) as err:
            train_dssm(pairs, vocab, cfg, width=16, embedding=8)
        msg = str(err.value)
        assert msg.startswith("epoch 1, batch 1: ")
        assert "dropout zeroed a whole row" in msg
        assert "wider tower" in msg and "dropout_keep" in msg
        assert isinstance(err.value, ValueError)

    def test_without_dropout_the_same_tower_trains(self, fixture_pairs):
        pairs, vocab = fixture_pairs
        cfg = TrainConfig(epochs=1, seed=5, batch_size=16, dropout_keep=1.0)
        model = train_dssm(pairs, vocab, cfg, width=16, embedding=8)
        assert len(model.loss_curve) == 1 and np.isfinite(model.loss_curve[0])


class TestRelevance:
    def test_self_relevance_is_one(self, trained, toy_pairs):
        pairs, _ = toy_pairs
        u = pairs[0][0]
        assert relevance(u, u, trained) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self, trained, toy_pairs):
        pairs, _ = toy_pairs
        a, b = pairs[0][0], pairs[3][1]
        assert relevance(a, b, trained) == pytest.approx(
            relevance(b, a, trained), abs=1e-12
        )

    def test_bounded(self, trained, toy_pairs):
        pairs, _ = toy_pairs
        rng = stream_rng(5, "rel")
        for _ in range(30):
            i, j = rng.integers(len(pairs), size=2)
            r = relevance(pairs[i][0], pairs[j][1], trained)
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12

    def test_true_successors_beat_random_units(self, trained):
        # held-out corpus from the same generator distribution
        held_out = make_toy_corpus(8, n_measures=12, seed=909)
        pairs = make_training_pairs(held_out, 1)
        rng = stream_rng(6, "baseline")
        pool = [u for pair in pairs for u in pair]
        true_scores, rand_scores = [], []
        for prev, nxt in pairs:
            true_scores.append(relevance(prev, nxt, trained))
            rand_scores.append(
                relevance(prev, pool[int(rng.integers(len(pool)))], trained)
            )
        assert np.mean(true_scores) > np.mean(rand_scores)


class TestModelShape:
    def test_default_embedding_length_128(self, toy_pairs):
        _, vocab = toy_pairs
        model = DssmModel(vocab, rng=np.random.default_rng(0))
        assert model.embedding == 128
        assert model.out.out_dim == 128
        assert model.h1.out_dim == 128 and model.h2.out_dim == 128

    def test_hidden_layers_rectified_output_linear(self, toy_pairs):
        _, vocab = toy_pairs
        model = DssmModel(vocab, rng=np.random.default_rng(0))
        assert model.h1.activation == "relu"
        assert model.h2.activation == "relu"
        assert model.out.activation == "linear"
