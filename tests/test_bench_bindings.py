"""The benchmark's tracer must find every name it wraps.

``perfbench/spans.py`` looks each traced attribute up in its owner's own
``vars()``, so a method moved into a base class, or a function no longer
imported by name where the tracer expects it, fails a traced benchmark run.
These checks load the tracer's tables and resolve them, and run one small
generation, one LSTM ranking, one library load and embedding, and one
library build and relevance training under the tracer to see that the
selection loop, the join cost, the set-up and the train round (library
build, relevance training and note-LSTM training) still call every span a
traced run requires.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import unitsel  # noqa: F401  (imports every traced module)
from toygen import make_toy_corpus
from unitsel import augment, autoencoder, corpus, dssm, engine, evaluation, features, lm
from unitsel.dssm import make_training_pairs
from unitsel.nn import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans")


@pytest.mark.parametrize(
    "module_name,path", [(entry[0], entry[1]) for entry in SPANS.TRACED]
)
def test_traced_attribute_is_owned(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module_name}.{path} is not defined on its owner"
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("module_name,attr", SPANS.REQUIRED_BINDINGS)
def test_required_binding_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_benchmark_calls_still_bind():
    # the calls perfbench/workloads.py and the thread sweep in perfbench/run.py
    # make, with their arguments in the same places; a dropped parameter
    # passes every other test and fails only a benchmark run
    x = object()

    def bind(fn, *args, **kwargs):
        return inspect.signature(fn).bind(*args, **kwargs)

    bind(engine.continue_piece, x, 4, x, x, x, x, threads=1, audit=[])
    bind(engine.continue_piece_notes, x, 2, x, x)
    ranking = bind(evaluation.next_unit_ranking, x, x, x, x, "dssm+lstm", 2025, threads=1)
    # the tracer names the span from the fifth positional argument
    assert list(ranking.arguments)[4] == "regime"
    assert SPANS._regime_name(ranking.args, ranking.kwargs).endswith(".dssm_lstm")
    bind(autoencoder.reconstruct, x, x, x, threads=1)
    bind(autoencoder.embed_library, x, x, 2)
    bind(autoencoder.library_similarities, x, x, 2)
    bind(autoencoder.rank_at_50, x, x, [], 2025)
    engine.GenerationConfig(unit_length=1, n_units=4, mode=engine.SAMPLED, seed=2025)
    engine.GenerationConfig(mode=engine.DETERMINISTIC, seed=2025)
    assert callable(lm.tokenize_unit)
    # the train workload's calls, and the constructors its trainers call
    bind(autoencoder.train_autoencoder, x, x, x)
    bind(dssm.train_dssm, x, x, x)
    bind(lm.train_lm, x, x, x, hidden=128)
    bind(autoencoder.AutoencoderModel, x, hidden=16, embedding=8, rng=x)
    bind(dssm.DssmModel, x, width=16, embedding=8, rng=x)
    bind(lm.LmModel, x, hidden=8, context_len=lm.CONTEXT_LEN, rng=x)


def test_selection_loop_hits_traced_spans(small_setup):
    s = small_setup
    cfg = engine.GenerationConfig(unit_length=1, n_units=2)
    tracer = SPANS.Tracer()
    with tracer.installed():
        engine.continue_piece(
            s["corpus"].pieces[0], 2, s["dssm_elib"], s["dssm"], s["lm"], cfg, audit=[]
        )
    calls = {name: row["calls"] for name, row in tracer.aggregate().items()}
    for name in (
        "engine.rank_candidates",
        "engine.combined_order",
        "lm.first_note_costs",
        "autoencoder.library_similarities",
        "nn.cosine_rows",
        "lm.LmModel.step_distributions",
        "nn.LstmLayer.step",
    ):
        assert calls.get(name, 0) >= 1, f"{name} recorded no calls"


def test_lstm_ranking_hits_traced_spans(small_setup):
    # the benchmark's generate and score workloads expect both LSTM spans
    s = small_setup
    pairs = make_training_pairs(s["corpus"], 1)[:4]
    tracer = SPANS.Tracer()
    with tracer.installed():
        evaluation.next_unit_ranking(pairs, s["dssm_elib"], None, s["lm"], "lstm", seed=3)
    calls = {name: row["calls"] for name, row in tracer.aggregate().items()}
    for name in ("lm.LmModel.step_distributions", "nn.LstmLayer.step"):
        assert calls.get(name, 0) >= 1, f"{name} recorded no calls"


def test_lstm_ranking_runs_each_distinct_context_once(small_setup):
    # the score workload's probes repeat their context units; a return to
    # one LSTM row per probe fails here, not only in a benchmark run
    s = small_setup
    distinct_pairs = make_training_pairs(s["corpus"], 1)[:6]
    pairs = [distinct_pairs[i] for i in (0, 1, 0, 2, 3, 1, 4, 5, 5, 0, 2, 3)]
    contexts = np.stack(
        [lm.context_window(lm.tokenize(prev, s["lm"].vocab)) for prev, _ in pairs]
    )
    distinct = len(np.unique(contexts, axis=0))
    assert distinct < len(pairs)
    tracer = SPANS.Tracer()
    with tracer.installed():
        evaluation.next_unit_ranking(pairs, s["dssm_elib"], None, s["lm"], "lstm", seed=3)
    assert tracer.counters["lm.LmModel.step_distributions.rows"] == distinct


def test_library_set_up_hits_traced_spans(small_setup, tmp_path):
    # the benchmark's generate set-up expects both spans of loading and embedding
    path = tmp_path / "small.lib"
    corpus.save_library(small_setup["lib"], path)
    tracer = SPANS.Tracer()
    with tracer.installed():
        lib = corpus.load_library(path)
        elib = autoencoder.embed_library(small_setup["dssm"], lib)
    calls = {name: row["calls"] for name, row in tracer.aggregate().items()}
    for name in ("corpus.load_library", "features.extract_matrix"):
        assert calls.get(name, 0) >= 1, f"{name} recorded no calls"
    assert len(elib) == len(small_setup["lib"].units)
    # the importing modules call the one module-level featuriser, which
    # returns dense float64 rows
    for module in (autoencoder, dssm, evaluation):
        assert module.extract_matrix is features.extract_matrix
    rows = features.extract_matrix(lib.units[:3], small_setup["dssm"].vocab)
    assert type(rows) is np.ndarray and rows.dtype == np.float64
    assert rows.shape == (3, small_setup["dssm"].vocab.dimension)


# The spans of the benchmark's train workload that a library build and the
# two relevance trainers call; LSTM training is checked below, and loading
# and saving are not run here.
TRAIN_ROUND_SPANS = (
    "augment.build_library",
    "autoencoder.train_autoencoder",
    "autoencoder.autoencoder_batch_loss",
    "autoencoder.AutoencoderModel.reconstruct_features",
    "dssm.train_dssm",
    "dssm.dssm_batch_loss",
    "dssm.DssmModel.encode_features",
    "nn.DenseLayer.forward",
    "nn.DenseLayer.backward",
    "nn.cosine_softmax_grads",
    "nn.sgd_step",
    "features.extract_matrix",
)


def test_train_round_hits_traced_spans():
    # a traced train run fails on any expected span that records no call
    assert set(TRAIN_ROUND_SPANS) <= set(_load("workloads").Train.expected_spans)
    pieces = make_toy_corpus(4, n_measures=6, seed=3)
    cfg = augment.AugmentConfig(unit_length=1, mode=augment.FULL, transpose_shifts=(-1, 0, 1))
    tcfg = augment.AugmentConfig(
        unit_length=1, mode=augment.TRANSPOSE_ONLY, transpose_shifts=(-1, 0, 1)
    )
    tracer = SPANS.Tracer()
    with tracer.installed():
        lib = augment.build_library(pieces, cfg)
        vocab = features.build_vocab(lib)
        autoencoder.train_autoencoder(
            lib, vocab, TrainConfig(epochs=1, seed=3, dropout_keep=1.0),
            hidden=16, embedding=8,
        )
        pairs = make_training_pairs(augment.transpose_corpus(pieces, tcfg), 1)
        dssm.train_dssm(
            pairs, vocab, TrainConfig(epochs=1, seed=3, dropout_keep=1.0),
            width=16, embedding=8,
        )
    calls = {name: row["calls"] for name, row in tracer.aggregate().items()}
    for name in TRAIN_ROUND_SPANS:
        assert calls.get(name, 0) >= 1, f"{name} recorded no calls"


LSTM_TRAINING_SPANS = (
    "lm.train_lm",
    "lm.lm_batch_loss",
    "lm.LmModel.step_distributions",
    "nn.LstmLayer.step",
    "nn.LstmLayer.backward_step",
)


def test_lm_training_hits_traced_spans():
    assert set(LSTM_TRAINING_SPANS) <= set(_load("workloads").Train.expected_spans)
    pieces = make_toy_corpus(4, n_measures=6, seed=3)
    vocab = lm.build_note_vocab(pieces)
    streams = [lm.tokenize(p, vocab) for p in pieces.pieces]
    tracer = SPANS.Tracer()
    with tracer.installed():
        lm.train_lm(streams, vocab, TrainConfig(epochs=1, seed=3), hidden=8)
    calls = {name: row["calls"] for name, row in tracer.aggregate().items()}
    for name in LSTM_TRAINING_SPANS:
        assert calls.get(name, 0) >= 1, f"{name} recorded no calls"
    # training steps both layers forward and back at every position; the
    # one evaluation batch steps both layers forward only
    assert calls["nn.LstmLayer.step"] == calls["nn.LstmLayer.backward_step"] + 2 * lm.CONTEXT_LEN
