import copy
import warnings
from fractions import Fraction

import numpy as np
import pytest

from unitsel.augment import UnitLibrary
from unitsel.autoencoder import EmbeddedLibrary, embed_library, library_similarities
from unitsel.engine import (
    DETERMINISTIC,
    SAMPLED,
    GenerationConfig,
    combined_order,
    continue_piece,
    continue_piece_notes,
    generate,
    generate_note_level,
    rank_candidates,
    shortlist_size,
    temperature_weights,
)
from unitsel.lm import NoteVocabulary, first_note_costs, first_tokens, tokenize_unit, train_lm
from unitsel.music import (
    Provenance,
    Unit,
    validate_piece,
    whole_rest_measure,
)
from unitsel.nn import TrainConfig

Q = Fraction(1, 4)


class TestCombinedOrder:
    SIMS = np.array([0.9, 0.5, 0.8, 0.1, 0.7, 0.3, 0.2, 0.6, 0.4, 0.0])
    COSTS = {0: 5.0, 2: 1.0, 4: 3.0}

    def cost_fn(self, indices):
        return np.array([self.COSTS[int(i)] for i in indices])

    def test_hand_worked_example(self):
        # shortlist = top 3 semantic = [0, 2, 4]; costs rank them 2,4,0;
        # combined keys: 0 -> 1+3=4, 2 -> 2+1=3, 4 -> 3+2=5
        r = combined_order(self.SIMS, self.cost_fn, fraction=0.3)
        assert list(r.shortlist) == [0, 2, 4]
        assert list(r.order) == [2, 0, 4, 7, 1, 8, 5, 6, 3, 9]
        assert r.semantic_rank[0] == 1 and r.semantic_rank[2] == 2
        assert r.concat_rank[2] == 1 and r.concat_rank[4] == 2 and r.concat_rank[0] == 3
        assert r.combined[2] == 3 and r.combined[0] == 4 and r.combined[4] == 5

    def test_monotone_rescaling_invariance(self):
        base = combined_order(self.SIMS, self.cost_fn, fraction=0.3)
        scaled = combined_order(
            2.0 * self.SIMS + 1.0,
            lambda idx: self.cost_fn(idx) ** 3,
            fraction=0.3,
        )
        np.testing.assert_array_equal(base.order, scaled.order)
        np.testing.assert_array_equal(base.semantic_rank, scaled.semantic_rank)
        np.testing.assert_array_equal(base.concat_rank, scaled.concat_rank)

    def test_semantic_ties_break_by_index(self):
        sims = np.array([0.5, 0.5, 0.5])
        r = combined_order(sims, lambda idx: np.zeros(len(idx)), fraction=0.4)
        assert r.semantic_rank[0] == 1 and r.semantic_rank[1] == 2

    def test_combined_ties_break_by_semantic_rank(self):
        sims = np.array([0.9, 0.8])
        r = combined_order(
            sims, lambda idx: np.array([1.0 if i == 0 else 0.5 for i in idx]), 1.0
        )
        # combined keys both 3; semantic rank 1 wins
        assert list(r.order) == [0, 1]

    def test_shortlist_minimum_one(self):
        r = combined_order(np.array([0.1, 0.9]), lambda idx: np.zeros(len(idx)), 0.05)
        assert len(r.shortlist) == 1

    def test_hundred_candidates_shortlist_five(self):
        sims = np.linspace(1.0, 0.0, 100)
        r = combined_order(sims, lambda idx: np.zeros(len(idx)), 0.05)
        assert len(r.shortlist) == 5

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            combined_order(np.array([]), lambda idx: idx, 0.05)


class TestRankCandidates:
    def test_structure(self, small_setup):
        s = small_setup
        seed_unit = s["lib"].units[0]
        prev = []
        cfg = GenerationConfig(unit_length=1, n_units=1)
        ranked = rank_candidates(seed_unit, prev, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        n = len(s["lib"])
        k = int(np.ceil(0.05 * n))
        shortlisted = [rc for rc in ranked if rc.concat_rank is not None]
        assert len(shortlisted) == max(1, k)
        assert sorted(rc.semantic_rank for rc in ranked) == list(range(1, n + 1))
        assert sorted(rc.concat_rank for rc in shortlisted) == list(
            range(1, len(shortlisted) + 1)
        )
        assert ranked[0].combined_key == min(rc.combined_key for rc in shortlisted)
        # shortlist occupies the head of the returned ordering
        assert all(rc.concat_rank is not None for rc in ranked[: len(shortlisted)])
        # the head is always drawn from the semantic shortlist
        assert ranked[0].semantic_rank <= k

    def test_double_rank_one_dominates(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=1)
        for seed_idx in (0, 3, 11):
            ranked = rank_candidates(
                s["lib"].units[seed_idx], [], s["dssm_elib"], s["dssm"], s["lm"], cfg
            )
            for rc in ranked:
                if rc.semantic_rank == 1 and rc.concat_rank == 1:
                    assert rc is ranked[0]

    @pytest.mark.parametrize(
        "seed_idx,context_from", [(0, None), (3, 7), (11, 20), (25, 2)]
    )
    @pytest.mark.parametrize("top", [1, 5, 40])
    def test_top_is_head_of_full_ranking(
        self, small_setup, seed_idx, context_from, top
    ):
        # this 51-unit library's shortlist has 3 entries; 5 and 40 reach past it
        s = small_setup
        units = s["lib"].units
        prev = (
            [] if context_from is None
            else tokenize_unit(units[context_from], s["lm"].vocab)
        )
        cfg = GenerationConfig(unit_length=1, n_units=1)
        args = (units[seed_idx], prev, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        full = rank_candidates(*args)
        head = rank_candidates(*args, top=top)
        assert head == full[:top]

    def test_threads_identical(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=1)
        r1 = rank_candidates(
            s["lib"].units[2], [], s["dssm_elib"], s["dssm"], s["lm"], cfg, threads=1
        )
        r4 = rank_candidates(
            s["lib"].units[2], [], s["dssm_elib"], s["dssm"], s["lm"], cfg, threads=4
        )
        assert [rc.index for rc in r1] == [rc.index for rc in r4]

    def test_top_below_one_rejected(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=1)
        with pytest.raises(ValueError, match="top"):
            rank_candidates(
                s["lib"].units[0], [], s["dssm_elib"], s["dssm"], s["lm"], cfg, top=0
            )

    def test_wrong_library_kind_rejected(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=1)
        with pytest.raises(ValueError, match="relevance model"):
            rank_candidates(
                s["lib"].units[0], [], s["ae_elib"], s["dssm"], s["lm"], cfg
            )


class TestGenerate:
    def test_zero_units_returns_seed(self, small_setup):
        s = small_setup
        seed_unit = s["lib"].units[0]
        cfg = GenerationConfig(unit_length=1, n_units=0)
        piece = generate(seed_unit, 0, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        assert piece.measures == seed_unit.measures

    def test_single_unit_library(self, small_setup):
        s = small_setup
        lib = s["lib"]
        solo = UnitLibrary(
            units=lib.units[:1],
            origins=lib.origins[:1],
            unit_length=1,
            meter=lib.meter,
        )
        elib = embed_library(s["dssm"], solo)
        cfg = GenerationConfig(unit_length=1, n_units=1)
        piece = generate(lib.units[5], 1, elib, s["dssm"], s["lm"], cfg)
        assert piece.measures[0] == lib.units[5].measures[0]
        assert len(piece.measures) == 2

    def test_deterministic_repeats(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=3)
        a = generate(s["lib"].units[1], 3, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        b = generate(s["lib"].units[1], 3, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        assert a == b

    def test_output_valid_and_selection_from_shortlist(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=4)
        audit: list = []
        piece = generate(
            s["lib"].units[2], 4, s["dssm_elib"], s["dssm"], s["lm"], cfg, audit=audit
        )
        assert validate_piece(piece) == []
        assert len(piece.measures) == 5
        for step in audit:
            assert step["selected"] in {c["index"] for c in step["shortlist"]}

    def test_sampled_mode_reproducible(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(
            unit_length=1, n_units=3, mode=SAMPLED, temperature=2.0, seed=12
        )
        a = generate(s["lib"].units[4], 3, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        b = generate(s["lib"].units[4], 3, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        assert a == b

    def test_seed_length_mismatch(self, small_setup):
        s = small_setup
        bad_seed = Unit(
            measures=s["lib"].units[0].measures * 2,
            provenance=Provenance("x", 0),
        )
        cfg = GenerationConfig(unit_length=2, n_units=1)
        with pytest.raises(ValueError, match="measures"):
            generate(bad_seed, 1, s["dssm_elib"], s["dssm"], s["lm"], cfg)

    def test_continue_piece_extends(self, small_setup):
        s = small_setup
        piece = s["corpus"].pieces[0]
        cfg = GenerationConfig(unit_length=1, n_units=2)
        out = continue_piece(piece, 2, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        assert len(out.measures) == len(piece.measures) + 2
        assert out.measures[: len(piece.measures)] == piece.measures
        assert validate_piece(out) == []

    @pytest.mark.parametrize("mode", [DETERMINISTIC, SAMPLED])
    def test_audit_shortlists_are_heads_of_full_rankings(self, small_setup, mode):
        s = small_setup
        elib, lm = s["dssm_elib"], s["lm"]
        piece = s["corpus"].pieces[2]
        cfg = GenerationConfig(unit_length=1, n_units=3, mode=mode, seed=4)
        audit: list = []
        continue_piece(piece, 3, elib, s["dssm"], lm, cfg, audit=audit)
        k = shortlist_size(len(elib), cfg.shortlist_fraction)
        current = Unit(
            measures=piece.measures[-1:],
            provenance=Provenance(piece.id, len(piece.measures) - 1),
        )
        context = [lm.vocab.encode((n.pitch, n.duration)) for n in piece.notes]
        assert len(audit) == 3
        for record in audit:
            full = rank_candidates(current, context, elib, s["dssm"], lm, cfg)
            assert record["shortlist"] == [
                {
                    "index": rc.index,
                    "semantic_rank": rc.semantic_rank,
                    "concat_rank": rc.concat_rank,
                    "combined": rc.combined_key,
                    "relevance": rc.relevance,
                    "concat_cost": rc.concat_cost,
                }
                for rc in full[:k]
            ]
            current = elib.library.units[record["selected"]]
            context.extend(tokenize_unit(current, lm.vocab))


def degenerate_lm(symbol, n=80, epochs=30):
    vocab = NoteVocabulary([symbol])
    tok = vocab.encode(symbol)
    cfg = TrainConfig(epochs=epochs, seed=1, learning_rate=1.0, dropout_keep=1.0)
    return train_lm([[tok] * n], vocab, cfg, hidden=16)


class TestGenerateNoteLevel:
    def test_degenerate_model_fills_measures(self):
        model = degenerate_lm((60, Q))
        seed = Unit(measures=(whole_rest_measure(),), provenance=Provenance("s", 0))
        cfg = GenerationConfig()
        piece = generate_note_level(seed, 2, model, cfg)
        assert validate_piece(piece) == []
        assert len(piece.measures) == 3  # seed + 2 generated
        generated = [n for m in piece.measures[1:] for n in m.notes]
        assert all(n.pitch == 60 and n.duration == Q for n in generated)

    def test_barline_crossing_notes_are_split_and_tied(self):
        model = degenerate_lm((60, Fraction(3, 8)))
        seed = Unit(measures=(whole_rest_measure(),), provenance=Provenance("s", 0))
        piece = generate_note_level(seed, 2, model, GenerationConfig())
        assert validate_piece(piece) == []
        assert len(piece.measures) == 3
        crossings = [n for m in piece.measures[1:] for n in m.notes if n.tie_to_next]
        assert crossings  # 3/8 events cannot tile whole measures without ties

    def test_sampled_reproducible(self, small_setup):
        s = small_setup
        seed = s["lib"].units[0]
        cfg = GenerationConfig(mode=SAMPLED, temperature=1.5, seed=9)
        a = generate_note_level(seed, 2, s["lm"], cfg)
        b = generate_note_level(seed, 2, s["lm"], cfg)
        assert a == b

    def test_outputs_always_valid(self, small_setup):
        s = small_setup
        for i in range(5):
            seed = s["lib"].units[i * 3]
            piece = generate_note_level(seed, 2, s["lm"], GenerationConfig())
            assert validate_piece(piece) == []

    def test_continue_piece_notes(self, small_setup):
        s = small_setup
        piece = s["corpus"].pieces[1]
        out = continue_piece_notes(piece, 2, s["lm"], GenerationConfig())
        assert len(out.measures) == len(piece.measures) + 2
        assert validate_piece(out) == []


class TestSampledTemperature:
    DIST = np.array([0.0, 0.0, 0.5, 0.3, 0.15, 0.05, 0.0])

    def test_weights_are_the_powered_distribution(self):
        for temperature in (0.5, 1.0, 2.0):
            want = self.DIST ** (1.0 / temperature)
            np.testing.assert_allclose(
                temperature_weights(self.DIST, temperature), want / want.sum(), rtol=1e-12
            )

    def test_small_temperatures_tend_to_the_greedy_pick(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            heads = [
                temperature_weights(self.DIST, t)[2]
                for t in (1.0, 0.3, 0.1, 0.03, 0.003, 1e-300, 5e-324)
            ]
            cold = temperature_weights(self.DIST, 0.003)
        assert heads == sorted(heads) and heads[-1] == 1.0
        assert cold[2] == 1.0 and np.all(cold[[3, 4, 5]] < 1e-70)
        assert np.all(cold[[0, 1, 6]] == 0.0)

    def test_sampled_notes_at_a_tiny_temperature_are_the_greedy_notes(self, small_setup):
        s = small_setup
        piece = s["corpus"].pieces[2]
        greedy = continue_piece_notes(piece, 2, s["lm"], GenerationConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampled = continue_piece_notes(
                piece, 2, s["lm"], GenerationConfig(mode=SAMPLED, temperature=1e-6, seed=4)
            )
        assert sampled == greedy


class TestGenerationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(shortlist_fraction=0.0)
        with pytest.raises(ValueError):
            GenerationConfig(mode="other")
        with pytest.raises(ValueError):
            GenerationConfig(temperature=0.0)


def _chunked_similarities(q, mat):
    """The library scan as it was: one cosine per 256-row chunk, with the
    chunk's row norms computed in the chunk."""
    return np.concatenate(
        [
            (mat[s : s + 256] @ q)
            / (np.linalg.norm(mat[s : s + 256], axis=1) * np.linalg.norm(q))
            for s in range(0, len(mat), 256)
        ]
    )


class TestSelectionIndex:
    @pytest.mark.parametrize("fraction", [0.05, 0.2, 1.0])
    def test_all_ties_library_head_is_library_order(self, small_setup, fraction):
        # a zero output layer with a constant bias embeds every unit alike
        s = small_setup
        model = copy.deepcopy(s["dssm"])
        model.out.w = np.zeros_like(model.out.w)
        model.out.b = np.full_like(model.out.b, 0.5)
        elib = embed_library(model, s["lib"])
        assert np.all(elib.embeddings == elib.embeddings[0])
        units = s["lib"].units
        cfg = GenerationConfig(unit_length=1, n_units=1, shortlist_fraction=fraction)
        k = shortlist_size(len(units), fraction)
        args = (units[4], tokenize_unit(units[7], s["lm"].vocab), elib, model, s["lm"], cfg)
        full = rank_candidates(*args)
        head = rank_candidates(*args, top=k)
        assert head == full[:k]
        assert sorted(rc.index for rc in head) == list(range(k))
        assert sorted(rc.semantic_rank for rc in head) == list(range(1, k + 1))

    def test_scan_same_bits_as_chunks_on_small_setup(self, small_setup):
        s = small_setup
        elib = s["dssm_elib"]
        for unit in s["lib"].units[:10]:
            q = s["dssm"].encode_unit(unit)
            assert np.array_equal(
                library_similarities(q, elib), _chunked_similarities(q, elib.embeddings)
            )

    @pytest.mark.parametrize("n", [1000, 1001, 4500, 9001])
    @pytest.mark.parametrize("d", [64, 128])
    def test_scan_same_bits_as_chunks_on_random_rows(self, n, d):
        rng = np.random.default_rng(n * d)
        mat = rng.standard_normal((n, d)) * rng.random((n, 1))
        # built without norms, so the index computes them
        elib = EmbeddedLibrary(UnitLibrary((), (), 1, Fraction(1)), mat, "", "dssm")
        assert np.array_equal(elib.norms, np.linalg.norm(mat, axis=1))
        for _ in range(3):
            q = rng.standard_normal(d)
            assert np.array_equal(library_similarities(q, elib), _chunked_similarities(q, mat))

    def test_first_note_ids_cached_per_vocabulary(self, small_setup):
        s = small_setup
        elib, units, vocab = s["dssm_elib"], s["lib"].units, s["lm"].vocab
        ids = elib.first_tokens(vocab)
        np.testing.assert_array_equal(ids, first_tokens(units, vocab))
        assert elib.first_tokens(vocab) is ids
        assert not ids.flags.writeable
        other = NoteVocabulary(vocab.symbols[:3])
        np.testing.assert_array_equal(elib.first_tokens(other), first_tokens(units, other))
        assert elib.first_tokens(vocab) is ids
        picks = np.array([3, 0, 17, 3])
        prev = tokenize_unit(units[5], vocab)
        np.testing.assert_array_equal(
            first_note_costs(prev, ids[picks], s["lm"]),
            first_note_costs(prev, [units[i] for i in picks], s["lm"]),
        )
