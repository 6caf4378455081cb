"""The benchmark's tracer must find every name it wraps.

``perfbench/spans.py`` looks each traced attribute up in its owner's own
``vars()``, so a method moved into a base class, or a function no longer
imported by name where the tracer expects it, fails a traced benchmark run.
These checks load the tracer's tables and resolve them, and run one small
generation and one LSTM ranking under the tracer to see that the selection
loop and the join cost still call every span a traced run requires.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import unitsel  # noqa: F401  (imports every traced module)
from unitsel import engine, evaluation
from unitsel.dssm import make_training_pairs

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


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
