import copy
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    REST,
    Measure,
    Note,
    Piece,
    Provenance,
    Unit,
    validate_piece,
)
from unitsel.nn import TrainConfig

Q = Fraction(1, 4)

# Few distinct values, so most draws tie in the similarity, the cost and the jitter.
TIE_HEAVY = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 3.0, np.inf, np.nan])


def full_ranking(seed_unit, prev, elib, model, lm, cfg):
    """combined_order's full ranking of the library on the relevance and join
    costs that rank_candidates reads, and that relevance."""
    sims = library_similarities(model.encode_unit(seed_unit), elib)
    ids = elib.first_tokens(lm.vocab)
    ranking = combined_order(
        sims, lambda idx: first_note_costs(prev, ids[idx], lm), cfg.shortlist_fraction
    )
    return ranking, sims


def head_entries(ranking, sims, k):
    """The first ``k`` entries of a full ranking, as audit dicts."""
    return [
        {
            "index": int(i),
            "semantic_rank": int(ranking.semantic_rank[i]),
            "concat_rank": int(ranking.concat_rank[i]),
            "combined": int(ranking.combined[i]),
            "relevance": float(sims[i]),
            "concat_cost": float(ranking.costs[i]),
        }
        for i in ranking.order[:k]
    ]


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

    @settings(deadline=None)
    @given(st.integers(1, 80), st.sampled_from([0.05, 0.2, 0.5, 1.0]), st.booleans(), st.data())
    def test_head_only_ranking_is_the_full_rankings_head(self, n, fraction, jittered, data):
        def column(values):
            return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))

        sims, costs = column(TIE_HEAVY), column(TIE_HEAVY)
        jitter = column(st.sampled_from([0.0, 0.25, 0.75, np.nan])) if jittered else None
        k = shortlist_size(n, fraction)
        full = combined_order(sims, costs.take, fraction, jitter)
        head = combined_order(sims, costs.take, fraction, jitter, top=k)
        np.testing.assert_array_equal(head.order, full.order[:k])
        shortlisted = full.order[:k]
        for name in ("semantic_rank", "concat_rank", "combined", "costs"):
            np.testing.assert_array_equal(
                getattr(head, name)[shortlisted], getattr(full, name)[shortlisted]
            )


class TestRankCandidates:
    def test_structure(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=1)
        args = (s["lib"].units[0], [], s["dssm_elib"], s["dssm"], s["lm"], cfg)
        sl = rank_candidates(*args)
        full, _ = full_ranking(*args)
        n = len(s["lib"])
        k = int(np.ceil(0.05 * n))
        assert len(sl.index) == max(1, k)
        assert sorted(full.semantic_rank.tolist()) == list(range(1, n + 1))
        assert sorted(sl.concat_rank.tolist()) == list(range(1, len(sl.index) + 1))
        assert sl.combined[0] == sl.combined.min()
        # shortlist occupies the head of the full ordering
        assert sorted(full.order[:k].tolist()) == sorted(full.shortlist.tolist())
        # the head is always drawn from the semantic shortlist
        assert sl.semantic_rank[0] <= k

    def test_double_rank_one_dominates(self, small_setup):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=1)
        for seed_idx in (0, 3, 11):
            sl = rank_candidates(
                s["lib"].units[seed_idx], [], s["dssm_elib"], s["dssm"], s["lm"], cfg
            )
            both = np.flatnonzero((sl.semantic_rank == 1) & (sl.concat_rank == 1))
            assert both.tolist() in ([], [0])

    @pytest.mark.parametrize(
        "seed_idx,context_from", [(0, None), (3, 7), (11, 20), (25, 2)]
    )
    @pytest.mark.parametrize("fraction", [0.01, 0.05, 0.8])
    def test_shortlist_is_head_of_full_ranking(
        self, small_setup, seed_idx, context_from, fraction
    ):
        # on this 51-unit library the shortlists have 1, 3 and 41 entries
        s = small_setup
        units = s["lib"].units
        prev = (
            [] if context_from is None
            else tokenize_unit(units[context_from], s["lm"].vocab)
        )
        cfg = GenerationConfig(unit_length=1, n_units=1, shortlist_fraction=fraction)
        args = (units[seed_idx], prev, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        full, sims = full_ranking(*args)
        k = shortlist_size(len(units), cfg.shortlist_fraction)
        assert rank_candidates(*args).entries() == head_entries(full, sims, k)

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
        seed = s["lib"].units[2]
        piece = generate(seed, 4, s["dssm_elib"], s["dssm"], s["lm"], cfg)
        assert validate_piece(piece) == []
        assert len(piece.measures) == 5
        # generate is continue_piece on the seed's piece, whose audit shows each pick
        audit: list = []
        seed_piece = Piece("generated", seed.measures)
        again = continue_piece(seed_piece, 4, s["dssm_elib"], s["dssm"], s["lm"], cfg, audit=audit)
        assert again.measures == piece.measures
        assert len(audit) == 4
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
            full, sims = full_ranking(current, context, elib, s["dssm"], lm, cfg)
            assert record["shortlist"] == head_entries(full, sims, k)
            current = elib.library.units[record["selected"]]
            context.extend(tokenize_unit(current, lm.vocab))

    @pytest.mark.parametrize("mode", [DETERMINISTIC, SAMPLED])
    def test_audit_records_hold_only_json_builtins(self, small_setup, mode):
        s = small_setup
        cfg = GenerationConfig(unit_length=1, n_units=3, mode=mode, seed=4)
        audit: list = []
        continue_piece(s["corpus"].pieces[2], 3, s["dssm_elib"], s["dssm"], s["lm"], cfg, audit=audit)
        entry_types = {
            "index": int,
            "semantic_rank": int,
            "concat_rank": int,
            "combined": int,
            "relevance": float,
            "concat_cost": float,
        }
        assert [record["step"] for record in audit] == [0, 1, 2]
        for record in audit:
            assert set(record) == {"step", "selected", "shortlist"}
            assert type(record["step"]) is int and type(record["selected"]) is int
            assert record["shortlist"]
            for entry in record["shortlist"]:
                assert {key: type(value) for key, value in entry.items()} == entry_types
            indices = [entry["index"] for entry in record["shortlist"]]
            assert record["selected"] in indices
            if mode == DETERMINISTIC:
                assert record["selected"] == indices[0]

    def test_sampled_pick_at_a_tiny_temperature_has_the_least_combined_key(self, small_setup):
        s = small_setup
        # a 0.05 shortlist here has 3 entries, and its relevance head nearly
        # always holds the least key; at 0.2 it misses in 9 of these 80 steps
        cfg = GenerationConfig(mode=SAMPLED, temperature=1e-6, seed=4, shortlist_fraction=0.2)
        audit: list = []
        for piece in s["corpus"].pieces:
            continue_piece(piece, 4, s["dssm_elib"], s["dssm"], s["lm"], cfg, audit=audit)
        for record in audit:
            keys = {entry["index"]: entry["combined"] for entry in record["shortlist"]}
            assert keys[record["selected"]] == min(keys.values())


def degenerate_lm(symbol, n=80, epochs=30):
    vocab = NoteVocabulary([symbol])
    tok = vocab.encode(symbol)
    cfg = TrainConfig(epochs=epochs, seed=1, learning_rate=1.0, dropout_keep=1.0)
    return train_lm([[tok] * n], vocab, cfg, hidden=16)


class TestGenerateNoteLevel:
    def test_degenerate_model_fills_measures(self):
        model = degenerate_lm((60, Q))
        seed = Unit(measures=(Measure((Note(REST, Fraction(1)),), Fraction(1)),),
                    provenance=Provenance("s", 0))
        cfg = GenerationConfig()
        piece = generate_note_level(seed, 2, model, cfg)
        assert validate_piece(piece) == []
        assert len(piece.measures) == 3  # seed + 2 generated
        generated = [n for m in piece.measures[1:] for n in m.notes]
        assert all(n.pitch == 60 and n.duration == Q for n in generated)

    def test_barline_crossing_notes_are_split_and_tied(self):
        model = degenerate_lm((60, Fraction(3, 8)))
        seed = Unit(measures=(Measure((Note(REST, Fraction(1)),), Fraction(1)),),
                    provenance=Provenance("s", 0))
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

    @pytest.mark.parametrize("temperature", [0.0, float("nan"), float("inf")])
    def test_temperature_must_be_positive_and_finite(self, temperature):
        with pytest.raises(ValueError, match="positive and finite"):
            GenerationConfig(temperature=temperature)


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
        sl = rank_candidates(*args)
        full, sims = full_ranking(*args)
        assert sl.entries() == head_entries(full, sims, k)
        assert sorted(sl.index.tolist()) == list(range(k))
        assert sorted(sl.semantic_rank.tolist()) == list(range(1, k + 1))

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
