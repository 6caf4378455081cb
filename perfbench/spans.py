"""In-memory span tracer installed around unitsel's public functions.

Wrappers are installed from the benchmark's side only: the package under
test is not edited. A wrapped function records one span (name, start,
end, parent span, request id) per call. Spans stay in memory until the
run ends; self time is a span's duration minus the durations of its
direct children.

Several functions are imported by name into other modules (``from .lm
import first_note_costs``), so a wrapper is installed at every binding of
the original object inside the ``unitsel`` package, and every one is
restored when tracing stops.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Bindings that hold a function under its own name in an importing module;
# the traced run fails if any of them is left unwrapped.
REQUIRED_BINDINGS = (
    ("unitsel.engine", "first_note_costs"),
    ("unitsel.engine", "library_similarities"),
    ("unitsel.evaluation", "combined_order"),
    ("unitsel.autoencoder", "extract_matrix"),
    ("unitsel.dssm", "extract_matrix"),
    ("unitsel.evaluation", "extract_matrix"),
)

# Metric names allow no "+", so the regime "dssm+lstm" is traced as "dssm_lstm".
REGIMES = ("lstm", "dssm", "dssm_lstm", "random")


def _extract_counts(counters, args, kwargs, out):
    counters["features.extract_matrix.rows"] += out.shape[0]
    counters["features.nonzero"] += int((out != 0.0).sum())
    counters["features.entries"] += out.size


def _step_rows(counters, args, kwargs, out):
    counters["lm.LmModel.step_distributions.rows"] += out.shape[0]


def _shortlist_counts(counters, args, kwargs, out):
    counters["engine.shortlisted"] += len(out.shortlist)
    counters["engine.ranked"] += len(out.semantic_rank)


def _library_counts(counters, args, kwargs, lib):
    counters["augment.units"] += len(lib.units)
    counters["augment.provenance"] += sum(len(o) for o in lib.origins)


def _build_counts(counters, args, kwargs, lib):
    counters["augment.build_library.units_out"] += len(lib.units)
    _library_counts(counters, args, kwargs, lib)


def _chunk_counts(counters, args, kwargs, out):
    counters["_util.chunked_map.chunks"] += len(out)


def _regime_name(args, kwargs):
    regime = kwargs["regime"] if "regime" in kwargs else args[4]
    return f"evaluation.next_unit_ranking.{regime.replace('+', '_')}"


# (module, attribute path, span name, counter hook, name function)
TRACED = (
    ("unitsel.nn", "DenseLayer.forward", "nn.DenseLayer.forward", None, None),
    ("unitsel.nn", "DenseLayer.backward", "nn.DenseLayer.backward", None, None),
    ("unitsel.nn", "LstmLayer.step", "nn.LstmLayer.step", None, None),
    ("unitsel.nn", "LstmLayer.backward_step", "nn.LstmLayer.backward_step", None, None),
    ("unitsel.nn", "cosine_softmax_grads", "nn.cosine_softmax_grads", None, None),
    ("unitsel.nn", "sgd_step", "nn.sgd_step", None, None),
    ("unitsel.nn", "cosine_rows", "nn.cosine_rows", None, None),
    ("unitsel.features", "extract_matrix", "features.extract_matrix", _extract_counts, None),
    ("unitsel.autoencoder", "train_autoencoder", "autoencoder.train_autoencoder", None, None),
    ("unitsel.autoencoder", "autoencoder_batch_loss", "autoencoder.autoencoder_batch_loss", None, None),
    (
        "unitsel.autoencoder",
        "AutoencoderModel.reconstruct_features",
        "autoencoder.AutoencoderModel.reconstruct_features",
        None,
        None,
    ),
    ("unitsel.autoencoder", "embed_library", "autoencoder.embed_library", None, None),
    ("unitsel.autoencoder", "library_similarities", "autoencoder.library_similarities", None, None),
    ("unitsel.autoencoder", "rank_at_50", "autoencoder.rank_at_50", None, None),
    ("unitsel.autoencoder", "reconstruct", "autoencoder.reconstruct", None, None),
    ("unitsel.dssm", "train_dssm", "dssm.train_dssm", None, None),
    ("unitsel.dssm", "dssm_batch_loss", "dssm.dssm_batch_loss", None, None),
    ("unitsel.dssm", "DssmModel.encode_features", "dssm.DssmModel.encode_features", None, None),
    ("unitsel.lm", "train_lm", "lm.train_lm", None, None),
    ("unitsel.lm", "lm_batch_loss", "lm.lm_batch_loss", None, None),
    ("unitsel.lm", "LmModel.step_distributions", "lm.LmModel.step_distributions", _step_rows, None),
    ("unitsel.lm", "first_note_costs", "lm.first_note_costs", None, None),
    ("unitsel.engine", "rank_candidates", "engine.rank_candidates", None, None),
    ("unitsel.engine", "combined_order", "engine.combined_order", _shortlist_counts, None),
    ("unitsel.engine", "continue_piece", "engine.continue_piece", None, None),
    ("unitsel.engine", "continue_piece_notes", "engine.continue_piece_notes", None, None),
    ("unitsel.evaluation", "next_unit_ranking", None, None, _regime_name),
    ("unitsel.augment", "build_library", "augment.build_library", _build_counts, None),
    ("unitsel.corpus", "load_library", "corpus.load_library", _library_counts, None),
    ("unitsel.corpus", "load_model", "corpus.load_model", None, None),
    ("unitsel.corpus", "save_model", "corpus.save_model", None, None),
    ("unitsel._util", "chunked_map", "_util.chunked_map", _chunk_counts, None),
)


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counters: dict[str, float] = defaultdict(float)
        self.request: str | None = None
        self._stack: list[int] = []

    def _wrap(self, original, name, hook, name_fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            label = name if name_fn is None else name_fn(args, kwargs)
            index = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, kwargs, out)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper, yield, then restore every original binding."""
        restore: list[tuple[object, str, object]] = []
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "unitsel"]
        try:
            for module_name, path, name, hook, name_fn in TRACED:
                owner = sys.modules[module_name]
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                original = vars(owner)[attr]
                wrapper = self._wrap(original, name, hook, name_fn)
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if len(parts) == 1:  # module-level function: patch every binding
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                restore.append((module, key, original))
                                setattr(module, key, wrapper)
            for module_name, attr in REQUIRED_BINDINGS:
                if not hasattr(getattr(sys.modules[module_name], attr), "__wrapped__"):
                    raise RuntimeError(f"tracer missed the binding {module_name}.{attr}")
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return dict(table)

    def time_under(self, name: str, ancestor: str) -> float:
        """Total duration of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += span[2] - span[1]
        return total

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced window, as (value, unit)."""
    table = tracer.aggregate()
    counters = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return table.get(name, empty)

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "nn.DenseLayer.forward",
        "nn.DenseLayer.backward",
        "nn.LstmLayer.step",
        "nn.LstmLayer.backward_step",
        "nn.cosine_rows",
        "autoencoder.library_similarities",
        "lm.LmModel.step_distributions",
        "dssm.DssmModel.encode_features",
    ):
        out[f"{name}.calls"] = (row(name)["calls"], "count")
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in (
        "nn.cosine_softmax_grads",
        "nn.sgd_step",
        "autoencoder.autoencoder_batch_loss",
        "autoencoder.embed_library",
        "features.extract_matrix",
        "engine.rank_candidates",
        "engine.combined_order",
        "lm.first_note_costs",
        "lm.lm_batch_loss",
        "dssm.dssm_batch_loss",
        "augment.build_library",
        "corpus.load_library",
        "corpus.load_model",
        "corpus.save_model",
    ) + tuple(f"evaluation.next_unit_ranking.{r}" for r in REGIMES):
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    out["features.extract_matrix.rows"] = (counters["features.extract_matrix.rows"], "count")
    out["features.nnz_share"] = (
        _share(counters["features.nonzero"], counters["features.entries"]),
        "ratio",
    )
    out["lm.LmModel.step_distributions.rows"] = (
        counters["lm.LmModel.step_distributions.rows"],
        "count",
    )
    out["autoencoder.eval_pass_share"] = (
        _share(
            tracer.time_under(
                "autoencoder.AutoencoderModel.reconstruct_features",
                "autoencoder.train_autoencoder",
            ),
            row("autoencoder.train_autoencoder")["total_s"],
        ),
        "ratio",
    )
    out["engine.shortlist_share"] = (
        _share(counters["engine.shortlisted"], counters["engine.ranked"]),
        "ratio",
    )
    out["augment.build_library.units_out"] = (
        counters["augment.build_library.units_out"],
        "count",
    )
    out["augment.dedup_ratio"] = (
        _share(counters["augment.provenance"], counters["augment.units"]),
        "ratio",
    )
    # Metric names start with a letter or digit, so the _util layer reports as "util".
    out["util.chunked_map.calls"] = (row("_util.chunked_map")["calls"], "count")
    out["util.chunked_map.chunks"] = (counters["_util.chunked_map.chunks"], "count")
    return out
