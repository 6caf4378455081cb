import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranking_reference import reference_next_unit_ranking, reference_rank_at_50
from toygen import make_toy_corpus
from unitsel import evaluation
from unitsel.autoencoder import embed_library, rank_at_50
from unitsel.dssm import DssmModel, make_training_pairs
from unitsel.engine import GenerationConfig, combined_order
from unitsel.evaluation import (
    RankingRow,
    _combined_ranks,
    next_unit_ranking,
    report,
)
from unitsel.lm import context_window, note_distributions, tokenize_unit
from unitsel.music import Measure, Note, Provenance, Unit
from unitsel.nn import stream_rng


@pytest.fixture(scope="module")
def probes(small_setup):
    held_out = make_toy_corpus(10, n_measures=12, seed=404)
    return make_training_pairs(held_out, 1, strict=False)


class TestNextUnitRanking:
    def test_reproducible_bit_exact(self, small_setup, probes):
        s = small_setup
        rows = [
            next_unit_ranking(probes, s["dssm_elib"], s["dssm"], s["lm"], r, seed=5)
            for r in ("lstm", "dssm", "dssm+lstm")
        ]
        again = [
            next_unit_ranking(probes, s["dssm_elib"], s["dssm"], s["lm"], r, seed=5)
            for r in ("lstm", "dssm", "dssm+lstm")
        ]
        assert rows == again

    def test_random_regime_uniform(self, small_setup, probes):
        s = small_setup
        many = (probes * 8)[:600]
        row = next_unit_ranking(
            many, s["dssm_elib"], None, None, "random", seed=11
        )
        assert abs(row.mean_rank - 25.5) < 1.5
        assert abs(row.accuracy - 0.02) < 0.02
        assert row.probe_count == 600

    def test_constant_scorer_breaks_ties_uniformly(self, small_setup, probes):
        s = small_setup
        constant = DssmModel(s["vocab"], width=8, embedding=4, rng=np.random.default_rng(0))
        for layer in constant.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        constant.out.b[:] = 1.0  # every unit embeds to the same vector
        elib = embed_library(constant, s["lib"])
        many = (probes * 8)[:600]
        row = next_unit_ranking(many, elib, constant, None, "dssm", seed=3)
        assert abs(row.mean_rank - 25.5) < 1.5

    def test_zero_norm_probe_embedding_rejected(self, small_setup, probes):
        s = small_setup
        model = DssmModel(s["vocab"], width=8, embedding=4, rng=np.random.default_rng(0))
        for layer in model.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        model.out.b[:] = 1.0
        elib = embed_library(model, s["lib"])
        model.out.b[:] = 0.0  # the library stays embedded; every probe now embeds to zero
        for regime in ("dssm", "dssm+lstm"):
            with pytest.raises(ValueError, match="zero-norm"):
                next_unit_ranking(probes, elib, model, s["lm"], regime, seed=3)

    def test_lstm_regime_matches_independent_recomputation(self, small_setup, probes):
        s = small_setup
        lm = s["lm"]
        elib = s["dssm_elib"]
        seed = 21
        row = next_unit_ranking(probes[:10], elib, None, lm, "lstm", seed=seed)
        contexts = np.stack(
            [context_window(tokenize_unit(p, lm.vocab)) for p, _ in probes[:10]]
        )
        dists = note_distributions(contexts, lm)
        lib_first = np.array(
            [tokenize_unit(u, lm.vocab)[0] for u in elib.library.units]
        )
        ranks = []
        for i, (prev, truth) in enumerate(probes[:10]):
            rng = stream_rng(seed, "nextunit", i)
            truth_idx = elib.library.index_of(truth)
            if truth_idx is None:
                draw = rng.choice(len(elib), size=49, replace=False)
            else:
                draw = rng.choice(len(elib) - 1, size=49, replace=False)
                draw[draw >= truth_idx] += 1
                assert truth_idx not in draw  # distractors exclude the truth
            jitter = rng.random(50)
            firsts = np.concatenate(
                [[tokenize_unit(truth, lm.vocab)[0]], lib_first[draw]]
            )
            costs = -np.log(dists[i][firsts])
            order = np.lexsort((np.arange(50), jitter, costs))
            ranks.append(int(np.where(order == 0)[0][0]) + 1)
        assert row.mean_rank == pytest.approx(np.mean(ranks), abs=1e-12)
        assert row.accuracy == pytest.approx(np.mean(np.array(ranks) == 1), abs=1e-12)

    def test_rank_bounds(self, small_setup, probes):
        s = small_setup
        for regime in ("lstm", "dssm", "dssm+lstm", "random"):
            row = next_unit_ranking(
                probes, s["dssm_elib"], s["dssm"], s["lm"], regime, seed=2
            )
            assert 1.0 <= row.mean_rank <= 50.0
            assert 0.0 <= row.accuracy <= 1.0

    def test_unknown_regime(self, small_setup, probes):
        s = small_setup
        with pytest.raises(ValueError, match="regime"):
            next_unit_ranking(probes, s["dssm_elib"], s["dssm"], s["lm"], "best", 1)

    def test_small_library_rejected(self, small_setup, probes):
        s = small_setup
        from unitsel.augment import UnitLibrary

        lib = s["lib"]
        small = UnitLibrary(lib.units[:30], lib.origins[:30], 1, lib.meter)
        elib = embed_library(s["dssm"], small)
        with pytest.raises(ValueError, match="candidates"):
            next_unit_ranking(probes, elib, s["dssm"], s["lm"], "dssm", seed=1)

    def test_missing_model_rejected(self, small_setup, probes):
        s = small_setup
        with pytest.raises(ValueError, match="needs"):
            next_unit_ranking(probes, s["dssm_elib"], s["dssm"], None, "lstm", 1)

    def test_no_probes_rejected(self, small_setup):
        s = small_setup
        with pytest.raises(ValueError, match="probe"):
            next_unit_ranking([], s["dssm_elib"], s["dssm"], s["lm"], "dssm", 1)


class TestMatchesPerProbeReference:
    """The array evaluations return what the per-probe loops they replaced
    return (``ranking_reference``)."""

    @pytest.fixture(scope="class")
    def mixed_probes(self, small_setup, probes):
        # held-out probes, and truths that are not in the library, whose
        # pools then exclude nothing
        lib = small_setup["lib"]
        outside = [
            Unit((Measure((Note(pitch, lib.meter),), lib.meter),), Provenance("x", 0))
            for pitch in (30, 91, 100)
        ]
        mixed = probes[:60] + [(probes[i][0], truth) for i, truth in enumerate(outside)]
        inside = [lib.index_of(truth) is not None for _, truth in mixed]
        assert any(inside) and not all(inside)
        return mixed

    @pytest.mark.parametrize("seed", [5, 2026])
    @pytest.mark.parametrize("regime", ["lstm", "dssm", "dssm+lstm", "random"])
    def test_next_unit_ranking(self, small_setup, mixed_probes, regime, seed):
        s = small_setup
        args = (mixed_probes, s["dssm_elib"], s["dssm"], s["lm"], regime, seed)
        assert next_unit_ranking(*args) == reference_next_unit_ranking(*args)

    def test_only_shortlisted_truths_reach_the_join_stage(
        self, small_setup, mixed_probes, monkeypatch
    ):
        # the reference comparison above covers the join stage only if some
        # truths reach it
        s = small_setup
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return combined_order(*args, **kwargs)

        monkeypatch.setattr(evaluation, "combined_order", counted)
        args = (mixed_probes, s["dssm_elib"], s["dssm"], s["lm"], "dssm+lstm", 5)
        assert evaluation.next_unit_ranking(*args) == reference_next_unit_ranking(*args)
        assert 0 < len(calls) < len(mixed_probes)

    @pytest.mark.parametrize("seed", [5, 2026])
    def test_rank_at_50(self, small_setup, seed):
        s = small_setup
        units = s["lib"].units
        probes = [units[(7 * i) % len(units)] for i in range(90)]
        args = (s["ae"], s["ae_elib"], probes, seed)
        assert rank_at_50(*args) == reference_rank_at_50(*args)


# Few distinct values, so most draws tie in the similarity, the cost and the jitter.
TIE_HEAVY = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 3.0, np.inf, np.nan])


class TestCombinedRanks:
    @settings(deadline=None)
    @given(st.integers(1, 4), st.integers(1, 70), st.data())
    def test_counting_equals_combined_order(self, probes, width, data):
        # pools of 21 or more have a shortlist longer than one
        size = probes * width
        sims, costs = (
            np.array(data.draw(st.lists(TIE_HEAVY, min_size=size, max_size=size)))
            .reshape(probes, width)
            for _ in range(2)
        )
        jitter = data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.75, np.nan]), min_size=size, max_size=size)
        )
        jitter = np.array(jitter).reshape(probes, width)
        expected = [
            np.where(
                combined_order(s, c.take, GenerationConfig.shortlist_fraction, j).order == 0
            )[0][0]
            + 1
            for s, c, j in zip(sims, costs, jitter)
        ]
        np.testing.assert_array_equal(_combined_ranks(sims, costs, jitter), expected)

    def test_last_shortlisted_truth_can_move_up(self):
        # a pool of 50 shortlists 3; the truth is third by relevance but
        # first by join cost, so its rank sum 3 + 1 beats the second's 2 + 3
        sims = np.full((1, 50), -1.0)
        sims[0, :3] = [0.8, 0.9, 0.85]
        costs = np.full((1, 50), 5.0)
        costs[0, :3] = [0.1, 0.5, 0.9]
        jitter = np.zeros((1, 50))
        order = combined_order(sims[0], costs[0].take, GenerationConfig.shortlist_fraction).order
        assert order[:3].tolist() == [1, 0, 2]
        assert _combined_ranks(sims, costs, jitter).tolist() == [2]


class TestReport:
    def rows(self):
        out = []
        for length in (4, 2, 1):
            for i, regime in enumerate(("lstm", "dssm", "dssm+lstm")):
                out.append(
                    RankingRow(
                        regime=regime,
                        unit_length=length,
                        accuracy=0.1 * (i + 1),
                        mean_rank=15.0 - i,
                        probe_count=500,
                        seed=7,
                    )
                )
        return out

    def test_nine_row_grid(self, tmp_path):
        path = tmp_path / "report.txt"
        text = report(self.rows(), path)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("-")]
        assert len(lines) == 1 + 9  # header + 3 regimes x 3 lengths
        assert path.exists()

    def test_missing_cells_rendered_as_dash(self, tmp_path):
        rows = [r for r in self.rows() if not (r.regime == "dssm" and r.unit_length == 2)]
        text = report(rows, tmp_path / "r.txt")
        assert "—" in text

    def test_machine_round_trip_identical(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "report.txt"
        report(rows, path)
        data = json.loads((tmp_path / "report.txt.json").read_text())
        assert [RankingRow(**entry) for entry in data] == rows

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report([], tmp_path / "r.txt")
