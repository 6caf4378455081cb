from fractions import Fraction

import numpy as np
import pytest

from toygen import make_toy_corpus
from unitsel import autoencoder
from unitsel._util import chunked_map
from unitsel.augment import AugmentConfig, UnitLibrary, build_library
from unitsel.autoencoder import (
    AutoencoderModel,
    EmbeddedLibrary,
    autoencoder_batch_loss,
    collision_rate,
    embed_library,
    interpolate,
    rank_at_50,
    reconstruct,
    select_nearest,
    train_autoencoder,
)
from unitsel.corpus import save_model
from unitsel.engine import GenerationConfig, rank_candidates
from unitsel.evaluation import next_unit_ranking
from unitsel.features import FeatureVocabulary, build_vocab, extract_matrix
from unitsel.music import Measure, Note, Provenance, Unit, validate_piece
from unitsel.nn import TrainConfig, in_batch_negatives, stream_rng

Q = Fraction(1, 4)


@pytest.fixture(scope="module")
def toy_lib():
    corpus = make_toy_corpus(16, n_measures=12, seed=55)
    lib = build_library(
        corpus, AugmentConfig(unit_length=1, transpose_shifts=(-1, 0, 1))
    )
    return corpus, lib, build_vocab(lib)


@pytest.fixture(scope="module")
def trained(toy_lib):
    _, lib, vocab = toy_lib
    cfg = TrainConfig(epochs=12, seed=9, batch_size=16)
    model = train_autoencoder(lib, vocab, cfg, hidden=48, embedding=24)
    return model, embed_library(model, lib)


class TestTraining:
    def test_loss_decreases(self, trained):
        model, _ = trained
        assert model.loss_curve[-1] < model.loss_curve[0]

    def test_zero_rate_flat_curve(self, toy_lib):
        _, lib, vocab = toy_lib
        cfg = TrainConfig(epochs=3, seed=9, batch_size=16, learning_rate=0.0)
        model = train_autoencoder(lib, vocab, cfg, hidden=32, embedding=16)
        assert len(set(model.loss_curve)) == 1

    def test_same_seed_identical_weights(self, toy_lib):
        _, lib, vocab = toy_lib
        cfg = TrainConfig(epochs=2, seed=4, batch_size=16)
        m1 = train_autoencoder(lib, vocab, cfg, hidden=32, embedding=16)
        m2 = train_autoencoder(lib, vocab, cfg, hidden=32, embedding=16)
        for p1, p2 in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("batch_size", [16, 4], ids=["ring", "padded"])
    def test_same_seed_identical_archive_bytes(self, toy_lib, tmp_path, batch_size):
        _, lib, vocab = toy_lib
        cfg = TrainConfig(epochs=2, seed=4, batch_size=batch_size)
        paths = [tmp_path / "a.model", tmp_path / "b.model"]
        for path in paths:
            save_model(train_autoencoder(lib, vocab, cfg, hidden=32, embedding=16).to_archive(), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_negatives_come_from_the_batch(self, toy_lib, monkeypatch):
        # 35 units at batch size 32: one full batch, then 3 cases padded to 5
        _, lib, vocab = toy_lib
        small = UnitLibrary(
            units=lib.units[:35], origins=lib.origins[:35],
            unit_length=lib.unit_length, meter=lib.meter,
        )
        seen = []

        def recording(model, x, idx, negs, masks):
            seen.append((idx, negs, len(masks[0])))
            return autoencoder_batch_loss(model, x, idx, negs, masks)

        monkeypatch.setattr(autoencoder, "autoencoder_batch_loss", recording)
        cfg = TrainConfig(epochs=1, seed=3, batch_size=32)
        train_autoencoder(small, vocab, cfg, hidden=48, embedding=24)
        (full, full_negs, full_rows), (last, last_negs, last_rows) = seen
        ring = (np.arange(32)[:, None] + np.arange(1, 5)) % 32
        np.testing.assert_array_equal(full_negs, full[ring])
        assert full_rows == 32 and len(last) == 3 and last_rows == 5
        # the pad rows are the first draw of the epoch's ae-negatives stream
        expected = in_batch_negatives(stream_rng(3, "ae-negatives", 0), last, 35, 4)
        np.testing.assert_array_equal(last_negs, expected)
        assert len(set(last_negs.ravel().tolist()) - set(last.tolist())) == 2

    def test_library_too_small(self, toy_lib):
        _, lib, vocab = toy_lib
        tiny = UnitLibrary(
            units=lib.units[:3],
            origins=lib.origins[:3],
            unit_length=lib.unit_length,
            meter=lib.meter,
        )
        with pytest.raises(ValueError, match="too small"):
            train_autoencoder(tiny, vocab, TrainConfig(epochs=1, seed=0))


class TestEncode:
    def test_deterministic(self, trained, toy_lib):
        model, _ = trained
        _, lib, _ = toy_lib
        u = lib.units[0]
        np.testing.assert_array_equal(model.encode_unit(u), model.encode_unit(u))

    def test_identical_units_identical_embeddings(self, trained, toy_lib):
        model, _ = trained
        _, lib, _ = toy_lib
        twin = Unit(measures=lib.units[0].measures, provenance=Provenance("x", 9))
        np.testing.assert_array_equal(
            model.encode_unit(lib.units[0]), model.encode_unit(twin)
        )

    def test_embedding_shape_and_finite(self, trained, toy_lib):
        model, _ = trained
        _, lib, _ = toy_lib
        e = model.encode_unit(lib.units[0])
        assert e.shape == (24,)
        assert np.all(np.isfinite(e))

    def test_default_embedding_dim_is_128(self, toy_lib):
        _, _, vocab = toy_lib
        assert AutoencoderModel(vocab, rng=np.random.default_rng(0)).embedding == 128


class TestSelectNearest:
    def test_identity_retrieval(self, trained, toy_lib):
        model, elib = trained
        _, lib, _ = toy_lib
        for u in lib.units[:10]:
            top, sim = select_nearest(model.encode_unit(u), elib)
            assert top.measures == u.measures
            assert sim == pytest.approx(1.0, abs=1e-12)

    def test_single_unit_library(self, trained, toy_lib):
        model, _ = trained
        _, lib, _ = toy_lib
        solo = UnitLibrary(
            units=lib.units[:1],
            origins=lib.origins[:1],
            unit_length=lib.unit_length,
            meter=lib.meter,
        )
        elib = embed_library(model, solo)
        top, _ = select_nearest(model.encode_unit(lib.units[5]), elib)
        assert top.measures == lib.units[0].measures

    def test_empty_library_rejected(self, trained, toy_lib):
        model, _ = trained
        _, lib, _ = toy_lib
        empty = EmbeddedLibrary(
            library=UnitLibrary((), (), lib.unit_length, lib.meter),
            embeddings=np.zeros((0, 24)),
            vocab_hash=model.vocab_hash,
            kind="autoencoder",
        )
        with pytest.raises(ValueError, match="empty"):
            select_nearest(np.ones(24), empty)

    def test_embedding_an_empty_library_rejected(self, trained, toy_lib):
        model, _ = trained
        _, lib, _ = toy_lib
        with pytest.raises(ValueError, match="no units"):
            embed_library(model, UnitLibrary((), (), lib.unit_length, lib.meter))

    def test_norms_come_from_the_index_alone(self, trained, toy_lib):
        # the same bits as the per-chunk norms embed_library computed itself
        model, elib = trained
        emb = elib.embeddings
        per_chunk = [np.linalg.norm(emb[s : s + 256], axis=1) for s in range(0, len(emb), 256)]
        assert np.array_equal(elib.norms, np.concatenate(per_chunk))
        with pytest.raises(TypeError):
            EmbeddedLibrary(elib.library, emb, model.vocab_hash, model.kind, norms=elib.norms)

    def test_threads_do_not_change_embeddings(self, trained, toy_lib):
        model, elib = trained
        _, lib, _ = toy_lib
        elib4 = embed_library(model, lib, threads=4)
        np.testing.assert_array_equal(elib.embeddings, elib4.embeddings)


def _per_chunk_embeddings(model, units, threads):
    """Embeddings taken the way embed_library took them before libraries kept
    a note table: each fixed 256-unit chunk featurised from its own units."""
    def chunk(start, stop):
        return model.encode_features(extract_matrix(list(units[start:stop]), model.vocab))

    return np.vstack(chunked_map(chunk, len(units), threads))


class TestLibraryNoteTable:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("size", [1, 255, 256, 257, 513])
    def test_embeddings_match_per_chunk_featurising(self, trained, toy_lib, size, threads):
        model, _ = trained
        _, lib, _ = toy_lib
        part = UnitLibrary(lib.units[:size], lib.origins[:size], lib.unit_length, lib.meter)
        got = embed_library(model, part, threads).embeddings
        assert got.tobytes() == _per_chunk_embeddings(model, part.units, threads).tobytes()

    def test_later_embeddings_reuse_the_table_and_its_lookups(self, trained, toy_lib, monkeypatch):
        model, _ = trained
        _, lib, _ = toy_lib
        lookups = []
        columns = FeatureVocabulary.columns

        def counted(vocab, families, keys):
            lookups.append(vocab.hash_hex())
            return columns(vocab, families, keys)

        monkeypatch.setattr(FeatureVocabulary, "columns", counted)
        fresh = UnitLibrary(lib.units, lib.origins, lib.unit_length, lib.meter)
        first = embed_library(model, fresh).embeddings
        table = fresh.note_table
        # one lookup per family group (notes, pairs), not one per chunk
        assert lookups == [model.vocab_hash] * 2
        same_vocab = AutoencoderModel(model.vocab, hidden=8, embedding=4, rng=np.random.default_rng(0))
        embed_library(same_vocab, fresh, threads=2)
        assert lookups == [model.vocab_hash] * 2
        other_vocab = AutoencoderModel(
            build_vocab(lib.units[:40]), hidden=8, embedding=4, rng=np.random.default_rng(0)
        )
        embed_library(other_vocab, fresh)
        assert lookups == [model.vocab_hash] * 2 + [other_vocab.vocab_hash] * 2
        assert fresh.note_table is table
        assert embed_library(model, fresh).embeddings.tobytes() == first.tobytes()


class TestReconstruct:
    def test_in_library_piece_reproduced(self, trained, toy_lib):
        model, elib = trained
        corpus, _, _ = toy_lib
        piece = corpus.pieces[0]
        out = reconstruct(piece, elib, model)
        assert out.measures == piece.measures
        assert validate_piece(out) == []

    def test_held_out_piece_valid(self, trained):
        model, elib = trained
        held_out = make_toy_corpus(2, n_measures=8, seed=777).pieces[0]
        out = reconstruct(held_out, elib, model)
        assert len(out.measures) == len(held_out.measures)
        assert validate_piece(out) == []

    def test_divisibility_enforced(self, trained):
        model, elib = trained
        piece = make_toy_corpus(1, n_measures=7, seed=3).pieces[0]
        lib2 = UnitLibrary(
            units=tuple(
                Unit(measures=u.measures * 2, provenance=u.provenance)
                for u in elib.library.units[:60]
                if len(u.measures) == 1
            ),
            origins=elib.library.origins[:60],
            unit_length=2,
            meter=elib.library.meter,
        )
        elib2 = embed_library(model, lib2)
        with pytest.raises(ValueError, match="divisible"):
            reconstruct(piece, elib2, model)

    def test_vocab_mismatch_detected(self, trained, toy_lib):
        model, elib = trained
        _, lib, _ = toy_lib
        other_vocab = build_vocab(lib.units[:5])
        stranger = AutoencoderModel(other_vocab, hidden=48, embedding=24, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="vocabulary"):
            reconstruct(make_toy_corpus(1, 8, seed=1).pieces[0], elib, stranger)


class TestInterpolate:
    def test_endpoints(self, trained, toy_lib):
        model, elib = trained
        _, lib, _ = toy_lib
        a, b = lib.units[0], lib.units[7]
        assert interpolate(a, b, 0.0, elib, model).measures == a.measures
        assert interpolate(a, b, 1.0, elib, model).measures == b.measures

    def test_midpoint_closer_than_random_baseline(self, trained, toy_lib):
        model, elib = trained
        _, lib, _ = toy_lib
        rng = stream_rng(42, "interp")
        gains = []
        for _ in range(20):
            i, j = rng.choice(len(lib.units), size=2, replace=False)
            a, b = lib.units[i], lib.units[j]
            ea, eb = model.encode_unit(a), model.encode_unit(b)
            mid = interpolate(a, b, 0.5, elib, model)
            em = model.encode_unit(mid)
            def sim(x, y):
                return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))
            mid_score = sim(em, ea) + sim(em, eb)
            r = elib.embeddings[rng.choice(len(elib), size=30)]
            rand_score = np.mean(
                [sim(row, ea) + sim(row, eb) for row in r]
            )
            gains.append(mid_score - rand_score)
        assert np.mean(gains) > 0.0

    def test_alpha_range_checked(self, trained, toy_lib):
        model, elib = trained
        _, lib, _ = toy_lib
        with pytest.raises(ValueError):
            interpolate(lib.units[0], lib.units[1], 1.5, elib, model)


class TestRankAt50:
    def test_overfit_training_units(self, trained, toy_lib):
        model, elib = trained
        _, lib, _ = toy_lib
        mean_rank, acc = rank_at_50(model, elib, list(lib.units[:60]), seed=5)
        assert mean_rank <= 1.1
        assert acc >= 0.95

    def test_random_embeddings_rank_uniform(self, trained, toy_lib):
        _, lib, vocab = toy_lib

        class RandomEncoder:
            """Assigns fresh random embeddings on every call."""

            kind = "autoencoder"
            vocab_hash = "random"

            def __init__(self):
                self.vocab = vocab
                self.calls = 0

            def encode_features(self, x):
                self.calls += 1
                return stream_rng(1234, "rand-enc", self.calls).normal(
                    size=(len(x), 16)
                )

        stub = RandomEncoder()
        elib = embed_library(stub, lib)
        probes = [lib.units[i % len(lib.units)] for i in range(2000)]
        mean_rank, acc = rank_at_50(stub, elib, probes, seed=77)
        assert abs(mean_rank - 25.5) < 1.0
        assert abs(acc - 0.02) < 0.02

    def test_requires_probe_in_library(self, trained):
        model, elib = trained
        stranger = make_toy_corpus(1, 8, seed=99).pieces[0]
        outside = Unit(
            measures=(Measure((Note(91, Fraction(1)),)),),
            provenance=Provenance("x", 0),
        )
        with pytest.raises(ValueError, match="not in the library"):
            rank_at_50(model, elib, [outside], seed=1)

    def test_small_library_rejected(self, trained, toy_lib):
        model, _ = trained
        _, lib, _ = toy_lib
        small = UnitLibrary(
            units=lib.units[:20],
            origins=lib.origins[:20],
            unit_length=lib.unit_length,
            meter=lib.meter,
        )
        elib = embed_library(model, small)
        with pytest.raises(ValueError, match="smaller than the pool"):
            rank_at_50(model, elib, [lib.units[0]], seed=1)


class TestCollisionRate:
    def test_duplicate_content_counts(self, trained, toy_lib):
        model, _ = trained
        _, lib, _ = toy_lib
        twin = Unit(measures=lib.units[0].measures, provenance=Provenance("dup", 0))
        dup_lib = UnitLibrary(
            units=(lib.units[0], twin) + lib.units[1:40],
            origins=(lib.origins[0], lib.origins[0]) + lib.origins[1:40],
            unit_length=lib.unit_length,
            meter=lib.meter,
        )
        elib = embed_library(model, dup_lib)
        rate = collision_rate(elib)
        n = len(dup_lib.units)
        assert rate >= 2 * 100_000.0 / n  # both twins collide

    def test_trained_library_reports_finite_rate(self, trained):
        _, elib = trained
        rate = collision_rate(elib)
        assert np.isfinite(rate) and rate >= 0.0

    def test_threads_agree(self, trained):
        _, elib = trained
        assert collision_rate(elib, threads=1) == collision_rate(elib, threads=4)


# Each entry point that reads a library index: the small pipeline's model
# it needs ("ae" or "dssm"), and a call on a given index and model.
_INDEX_READERS = {
    "reconstruct": ("ae", lambda s, elib, m: reconstruct(s["corpus"].pieces[0], elib, m)),
    "interpolate": (
        "ae", lambda s, elib, m: interpolate(s["lib"].units[0], s["lib"].units[1], 0.5, elib, m)
    ),
    "rank_at_50": ("ae", lambda s, elib, m: rank_at_50(m, elib, s["lib"].units[:3], 1)),
    "rank_candidates": (
        "dssm",
        lambda s, elib, m: rank_candidates(
            s["lib"].units[0], [], elib, m, s["lm"], GenerationConfig()
        ),
    ),
    "next_unit_ranking": (
        "dssm", lambda s, elib, m: next_unit_ranking(s["pairs"][:3], elib, m, s["lm"], "dssm", 1)
    ),
}
_OTHER = {"ae": "dssm", "dssm": "ae"}
_NAME = {"ae": "autoencoder", "dssm": "relevance model"}


class TestIndexMatchesModel:
    """One check guards every entry point: the index and the model must both
    be of the kind it needs. The small pipeline's autoencoder and relevance
    model share one feature vocabulary, so a vocabulary comparison alone
    would let either stand in for the other."""

    @pytest.mark.parametrize("entry", list(_INDEX_READERS))
    @pytest.mark.parametrize("swapped", ["index", "model"])
    def test_the_other_kind_is_rejected(self, small_setup, entry, swapped):
        assert small_setup["ae"].vocab_hash == small_setup["dssm"].vocab_hash
        key, call = _INDEX_READERS[entry]
        index = small_setup[f"{_OTHER[key] if swapped == 'index' else key}_elib"]
        model = small_setup[_OTHER[key] if swapped == "model" else key]
        with pytest.raises(ValueError, match=f"given {_NAME[key]} .*vocabulary"):
            call(small_setup, index, model)
