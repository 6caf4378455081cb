"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The training runs here
are sized for a desk machine (a few minutes total); every tolerance is
asserted exactly as stated, never loosened.

Criteria 1 to 4 record their margins with ``record_property`` before they
assert, so ``pytest --junitxml=report.xml`` carries them as ``<property>``
elements of each test case, whether it passes or fails; a margin is
positive while its criterion holds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from toygen import make_toy_corpus
from unitsel.augment import (
    FULL,
    TRANSPOSE_ONLY,
    AugmentConfig,
    build_library,
    transpose_corpus,
)
from unitsel.autoencoder import (
    AutoencoderModel,
    autoencoder_batch_loss,
    embed_library,
    rank_at_50,
    reconstruct,
    train_autoencoder,
)
from unitsel.cli import main as cli_main
from unitsel.corpus import split_corpus
from unitsel.dssm import DssmModel, dssm_batch_loss, make_training_pairs, train_dssm
from unitsel.engine import (
    GenerationConfig,
    combined_order,
    generate,
    generate_note_level,
    rank_candidates,
)
from unitsel.evaluation import next_unit_ranking
from unitsel.features import FeatureVocabulary, build_vocab
from unitsel.lm import (
    LmModel,
    NoteVocabulary,
    build_note_vocab,
    first_note_costs,
    lm_batch_loss,
    tokenize,
    tokenize_unit,
    train_lm,
)
from unitsel.autoencoder import library_similarities
from unitsel.music import validate_piece
from unitsel.nn import TrainConfig, grad_check, stream_rng

from test_augment import TestRandomizedProperties as _RandomizedProperties
from conftest import FIXTURE_CORPUS


def _report(number: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {number} PASS — {name}: {detail}")


def _tiny_vocab():
    return FeatureVocabulary(
        {
            "note": [(60 + i, Fraction(1, 4)) for i in range(4)],
            "pitch": [60 + i for i in range(4)],
            "dur": [Fraction(1, 4)],
            "class": [i % 12 for i in range(4)],
            "class_dur": [],
            "pitch_bigram": [],
            "dur_bigram": [],
            "class_bigram": [],
        }
    )


class TestCriterion1GradientFidelity:
    def test_all_losses_match_finite_differences(self, record_property):
        tol = 1e-4
        vocab = _tiny_vocab()
        worst = {"autoencoder": 0.0, "dssm": 0.0, "lstm": 0.0}
        for seed in (1, 2, 3):
            rng = stream_rng(seed, "acc-gc")
            ae = AutoencoderModel(vocab, hidden=6, embedding=4, rng=rng)
            # condition the check point: keep reconstruction norms away
            # from ~0 where the cosine loss curvature defeats the oracle
            ae.dec2.b += 0.3
            x = rng.random((8, vocab.dimension)) + 0.05
            idx, negs = np.arange(4), rng.integers(4, 8, size=(4, 2))
            _, grads = autoencoder_batch_loss(ae, x, idx, negs)
            worst["autoencoder"] = max(
                worst["autoencoder"],
                grad_check(
                    ae.params,
                    grads,
                    lambda: autoencoder_batch_loss(ae, x, idx, negs)[0],
                    rng=rng,
                ),
            )

            dm = DssmModel(vocab, width=6, embedding=4, rng=rng)
            dm.h1.b += 0.2
            dm.h2.b += 0.2
            prev = rng.random((6, vocab.dimension)) + 0.05
            nxt = rng.random((6, vocab.dimension)) + 0.05
            idx2, negs2 = np.arange(3), rng.integers(3, 6, size=(3, 2))
            _, dgrads = dssm_batch_loss(dm, prev, nxt, idx2, negs2)
            worst["dssm"] = max(
                worst["dssm"],
                grad_check(
                    dm.params,
                    dgrads,
                    lambda: dssm_batch_loss(dm, prev, nxt, idx2, negs2)[0],
                    rng=rng,
                ),
            )

            nvocab = NoteVocabulary([(60 + i, Fraction(1, 4)) for i in range(5)])
            lmm = LmModel(nvocab, hidden=5, rng=rng)
            xt = rng.integers(2, nvocab.size, size=(3, 4))
            yt = rng.integers(2, nvocab.size, size=(3, 4))
            _, lgrads = lm_batch_loss(lmm, xt, yt)
            worst["lstm"] = max(
                worst["lstm"],
                grad_check(
                    lmm.params, lgrads, lambda: lm_batch_loss(lmm, xt, yt)[0], rng=rng
                ),
            )
        for name, value in worst.items():
            record_property(f"worst_relative_error_{name}", value)
        record_property("margin_relative_error", tol - max(worst.values()))
        assert worst["autoencoder"] < tol
        assert worst["dssm"] < tol
        assert worst["lstm"] < tol
        _report(
            1,
            "gradient fidelity",
            "max relative errors: "
            + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
            + " (tolerance 1e-4, 3 seeds)",
        )


class TestCriterion2AutoencoderIdentity:
    def test_identity_retrieval_on_trained_library(self, record_property):
        corpus = make_toy_corpus(10, n_measures=12, seed=21)
        cfg = AugmentConfig(
            unit_length=1,
            transpose_shifts=(-1, 0, 1),
            interval_add_constants=(-1, 1),
            interval_mul_constants=(Fraction(2),),
            mode=FULL,
        )
        lib = build_library(corpus, cfg)
        assert 200 <= len(lib) <= 500, f"library size {len(lib)} outside 200..500"
        vocab = build_vocab(lib)
        model = train_autoencoder(
            lib, vocab, TrainConfig(epochs=40, seed=21, batch_size=32)
        )
        assert model.loss_curve[-1] < model.loss_curve[0]  # converging
        elib = embed_library(model, lib)
        mean_rank, accuracy = rank_at_50(model, elib, list(lib.units), seed=5)
        record_property("mean_rank", mean_rank)
        record_property("accuracy", accuracy)
        record_property("margin_mean_rank", 1.1 - mean_rank)
        record_property("margin_accuracy", accuracy - 0.95)
        assert mean_rank <= 1.1
        assert accuracy >= 0.95
        _report(
            2,
            "autoencoder identity retrieval",
            f"{len(lib)} units, mean rank {mean_rank:.4f} (<= 1.1), "
            f"accuracy {100 * accuracy:.2f}% (>= 95%)",
        )


class TestCriterion3RandomBaseline:
    def test_random_scorer_calibration(self, small_setup, record_property):
        s = small_setup
        base = make_toy_corpus(10, n_measures=12, seed=404)
        pairs = make_training_pairs(base, 1)
        probes = (pairs * ((2000 // len(pairs)) + 1))[:2000]
        row = next_unit_ranking(probes, s["dssm_elib"], None, None, "random", seed=17)
        record_property("mean_rank", row.mean_rank)
        record_property("accuracy", row.accuracy)
        record_property("margin_mean_rank", 1.0 - abs(row.mean_rank - 25.5))
        record_property("margin_accuracy", 0.01 - abs(row.accuracy - 0.02))
        assert abs(row.mean_rank - 25.5) <= 1.0
        assert abs(row.accuracy - 0.02) <= 0.01
        _report(
            3,
            "random-baseline calibration",
            f"mean rank {row.mean_rank:.2f} (25.5 +- 1.0), accuracy "
            f"{100 * row.accuracy:.2f}% (2% +- 1%), {row.probe_count} probes",
        )


class TestCriterion4RegimeOrdering:
    SEEDS = (11, 12, 13, 14, 15)

    def run_seed(self, seed: int) -> dict[str, float]:
        corpus = make_toy_corpus(48, n_measures=16, seed=seed)
        train, test = split_corpus(corpus, 0.6, seed=seed)
        cfg = AugmentConfig(
            unit_length=2, transpose_shifts=(-2, -1, 0, 1, 2), mode=TRANSPOSE_ONLY
        )
        lib = build_library(train, cfg)
        vocab = build_vocab(lib)
        tcorp = transpose_corpus(train, cfg)
        pairs = make_training_pairs(tcorp, 2)
        dssm_model = train_dssm(
            pairs, vocab, TrainConfig(epochs=30, seed=seed, learning_rate=0.2)
        )
        note_vocab = build_note_vocab(tcorp)
        streams = [tokenize(p, note_vocab) for p in tcorp.pieces]
        lm_model = train_lm(
            streams,
            note_vocab,
            TrainConfig(epochs=25, seed=seed, learning_rate=1.0, dropout_keep=0.8),
            hidden=64,
        )
        probes = make_training_pairs(transpose_corpus(test, cfg), 2, strict=False)
        sel = stream_rng(seed, "probe-sel").choice(
            len(probes), size=min(600, len(probes)), replace=False
        )
        probes = [probes[i] for i in sel]
        assert len(probes) >= 500
        elib = embed_library(dssm_model, lib)
        return {
            regime: next_unit_ranking(
                probes, elib, dssm_model, lm_model, regime, seed=seed
            ).mean_rank
            for regime in ("lstm", "dssm", "dssm+lstm")
        }

    def test_mean_rank_ordering_over_five_seeds(self, record_property):
        per_seed = [self.run_seed(seed) for seed in self.SEEDS]
        avg = {
            regime: float(np.mean([r[regime] for r in per_seed]))
            for regime in ("lstm", "dssm", "dssm+lstm")
        }
        labels = [f"seed_{seed}" for seed in self.SEEDS] + ["mean"]
        for label, ranks in zip(labels, per_seed + [avg]):
            for regime in ("lstm", "dssm", "dssm+lstm"):
                record_property(f"{label}_{regime}", ranks[regime])
            record_property(f"{label}_dssm_minus_combined", ranks["dssm"] - ranks["dssm+lstm"])
            record_property(f"{label}_lstm_minus_dssm", ranks["lstm"] - ranks["dssm"])
        record_property("margin_below_20", 20.0 - max(avg.values()))
        assert avg["dssm+lstm"] <= avg["dssm"] <= avg["lstm"]
        assert all(v < 20.0 for v in avg.values())
        _report(
            4,
            "regime ordering (unit length 2, 5 seeds, >=500 probes each)",
            f"mean rank dssm+lstm {avg['dssm+lstm']:.2f} <= dssm "
            f"{avg['dssm']:.2f} <= lstm {avg['lstm']:.2f}, all < 20",
        )


class TestCriterion5AugmentationInvariants:
    def test_ten_thousand_randomized_cases(self):
        props = _RandomizedProperties()
        props.test_transpose_round_trip()
        props.test_identity_transforms()
        props.test_double_time_halves_every_duration()
        props.test_range_enforcement()
        _report(
            5,
            "augmentation invariants",
            "4 properties x 2500 randomized cases each, zero failures",
        )


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-cli")

    def run(*argv):
        assert cli_main(list(argv)) == 0, f"command failed: {argv}"

    corpus = str(FIXTURE_CORPUS)
    run("split", "--corpus", corpus, "--out", str(root / "split"), "--seed", "7")
    train = str(root / "split" / "train.cor")
    test = str(root / "split" / "test.cor")
    run(
        "build-lib", "--corpus", train, "--out", str(root / "lib"),
        "--unit-length", "1", "--shifts=-2,-1,0,1,2", "--mode", "transpose_only",
    )
    lib = str(root / "lib" / "library.lib")
    run(
        "train-dssm", "--corpus", train, "--out", str(root / "dssm"),
        "--unit-length", "1", "--shifts=-2,-1,0,1,2", "--epochs", "8",
        "--learning-rate", "0.2", "--seed", "7",
    )
    run(
        "train-lm", "--corpus", train, "--out", str(root / "lm"),
        "--shifts=-2,-1,0,1,2", "--epochs", "8", "--learning-rate", "1.0",
        "--hidden", "32", "--seed", "7",
    )
    return {
        "root": root,
        "train": train,
        "test": test,
        "lib": lib,
        "dssm": str(root / "dssm" / "dssm.model"),
        "lm": str(root / "lm" / "lstm.model"),
    }


class TestCriterion6PipelineDeterminism:
    def test_generate_and_eval_byte_identical(self, cli_artifacts, tmp_path):
        a = cli_artifacts

        def run_generate(out, threads):
            assert cli_main([
                "generate", "--seed-piece", a["test"], "--library", a["lib"],
                "--dssm", a["dssm"], "--lm", a["lm"], "--units", "3",
                "--out", str(out), "--seed", "13", "--threads", threads,
            ]) == 0
            return (out / "generated.cor").read_bytes(), (out / "audit.json").read_bytes()

        def run_eval(out, threads):
            assert cli_main([
                "eval-nextunit", "--corpus", a["test"], "--library", a["lib"],
                "--dssm", a["dssm"], "--lm", a["lm"], "--out", str(out),
                "--seed", "13", "--threads", threads,
            ]) == 0
            return (
                (out / "report.txt").read_bytes(),
                (out / "report.txt.json").read_bytes(),
            )

        gen = [
            run_generate(tmp_path / f"g{i}", threads)
            for i, threads in enumerate(("1", "1", "4"))
        ]
        assert gen[0] == gen[1] == gen[2]
        ev = [
            run_eval(tmp_path / f"e{i}", threads)
            for i, threads in enumerate(("1", "1", "4"))
        ]
        assert ev[0] == ev[1] == ev[2]
        _report(
            6,
            "pipeline determinism",
            "generate and eval-nextunit byte-identical across two runs and "
            "across --threads 1 vs 4",
        )


class TestCriterion7SelectionStructure:
    def test_thousand_steps_shortlist_and_monotone_invariance(self, small_setup):
        s = small_setup
        elib, dssm_model, lm_model = s["dssm_elib"], s["dssm"], s["lm"]
        n = len(elib)
        k = max(1, math.ceil(0.05 * n))
        cfg = GenerationConfig(unit_length=1, n_units=1)
        current = s["lib"].units[0]
        context: list[int] = list(tokenize_unit(current, lm_model.vocab))
        in_shortlist = 0
        steps = 1000
        for step in range(steps):
            ranked = rank_candidates(current, context, elib, dssm_model, lm_model, cfg)
            pick = ranked[0]
            if pick.semantic_rank <= k:
                in_shortlist += 1

            # re-run the ranking on monotonically rescaled raw scores
            q = dssm_model.encode_unit(current)
            sims = library_similarities(q, elib)
            units = elib.library.units

            def costs(idx):
                return first_note_costs(context, [units[i] for i in idx], lm_model)

            base = combined_order(sims, costs, cfg.shortlist_fraction)
            rescaled = combined_order(
                2.0 * sims + 1.0,
                lambda idx: costs(idx) ** 3,
                cfg.shortlist_fraction,
            )
            assert list(base.order) == list(rescaled.order)
            assert int(base.order[0]) == pick.index

            context.extend(tokenize_unit(pick.unit, lm_model.vocab))
            context = context[-200:]
            current = pick.unit
        assert in_shortlist == steps
        _report(
            7,
            "selection-procedure structure",
            f"{steps}/{steps} selections inside the top-5% shortlist "
            f"(k={k} of {n}); combined choice invariant under 2x+1 on "
            "relevance and cube on cost at every step",
        )


class TestCriterion8Validity:
    def test_all_emitted_pieces_valid(self, small_setup):
        s = small_setup
        emitted = 0
        cfg = GenerationConfig(unit_length=1, n_units=2)
        rng = stream_rng(88, "validity")
        for i in range(100):
            seed_unit = s["lib"].units[int(rng.integers(len(s["lib"])))]
            piece = generate(
                seed_unit, 2, s["dssm_elib"], s["dssm"], s["lm"],
                GenerationConfig(unit_length=1, n_units=2, seed=i),
            )
            assert validate_piece(piece) == []
            emitted += 1
        for i in range(50):
            seed_unit = s["lib"].units[int(rng.integers(len(s["lib"])))]
            piece = generate_note_level(seed_unit, 2, s["lm"], cfg)
            assert validate_piece(piece) == []
            emitted += 1
        sources = make_toy_corpus(50, n_measures=8, seed=505)
        for p in sources.pieces:
            piece = reconstruct(p, s["ae_elib"], s["ae"])
            assert validate_piece(piece) == []
            emitted += 1
        assert emitted >= 200
        _report(
            8,
            "validity",
            f"{emitted} pieces from generate/generate-notes/reconstruct, "
            "0 violations",
        )
