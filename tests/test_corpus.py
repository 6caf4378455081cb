import binascii
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import unitsel.corpus as corpus_module
import unitsel.nn as nn_module
from unitsel import load_trained
from unitsel._util import canonical_json, sha256_hex, write_lines
from unitsel.augment import AugmentConfig, UnitLibrary, build_library
from unitsel.autoencoder import embed_library, train_autoencoder
from unitsel.cli import main as cli_main
from unitsel.corpus import (
    ArchivedModel,
    ArchiveError,
    Corpus,
    CorpusFormatError,
    CorpusValidationError,
    FORMAT_VERSION,
    WEIGHT_BLOCK,
    ModelArchive,
    load_corpus,
    load_library,
    load_model,
    save_corpus,
    save_library,
    save_model,
    split_corpus,
)
from unitsel.dssm import make_training_pairs, train_dssm
from unitsel.engine import GenerationConfig, continue_piece
from unitsel.features import build_vocab
from unitsel.lm import LmModel, build_note_vocab, tokenize, train_lm
from unitsel.music import Provenance
from unitsel.nn import TrainConfig, sgd_step

from conftest import FIXTURE_CORPUS


class TestLoadCorpus:
    def test_fixture_loads_with_twelve_pieces(self):
        c = load_corpus(FIXTURE_CORPUS)
        assert len(c.pieces) == 12

    def test_bad_measure_sum_named_in_diagnostics(self, tmp_path):
        bad = {
            "id": "broken",
            "meter": [1, 1],
            "measures": [
                {
                    "notes": [
                        {"pitch": 60, "dur": [1, 4], "tie_prev": False, "tie_next": False}
                    ]
                    * 5
                }
            ],
        }
        path = tmp_path / "bad.cor"
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(CorpusValidationError) as err:
            load_corpus(path)
        assert "broken" in str(err.value)
        assert "duration-mismatch at m0" in str(err.value)

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.cor"
        path.write_text("")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "junk.cor"
        path.write_text("{not json\n")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_duplicate_piece_id_diagnosed(self, tmp_path):
        line = '{"id": "a", "measures": [{"notes": [{"pitch": 60, "dur": [1, 1]}]}]}\n'
        path = tmp_path / "dup.cor"
        path.write_text(line * 2)
        with pytest.raises(CorpusValidationError, match="piece a: duplicate piece id at line 2"):
            load_corpus(path)

    def test_round_trip_preserves_pieces(self, tmp_path, fixture_corpus):
        path = tmp_path / "copy.cor"
        save_corpus(fixture_corpus, path)
        again = load_corpus(path)
        assert again.pieces == fixture_corpus.pieces
        assert again.meter == fixture_corpus.meter

    def test_mixed_meters_rejected(self, tmp_path):
        def piece(pid, meter, dur):
            return {
                "id": pid,
                "meter": meter,
                "measures": [{"notes": [{"pitch": 60, "dur": dur}]}],
            }

        path = tmp_path / "mixed.cor"
        path.write_text(
            json.dumps(piece("a", [1, 1], [1, 1]))
            + "\n"
            + json.dumps(piece("b", [3, 4], [3, 4]))
            + "\n"
        )
        with pytest.raises(CorpusValidationError, match="mixed meters"):
            load_corpus(path)


# Any JSON value; each corpus field below is either well formed or one of these.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-300, 300) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _or_junk(valid):
    return valid | JSON_VALUES


_PAIRS = st.lists(st.integers(-1, 8), min_size=2, max_size=2)
_NOTES = st.fixed_dictionaries(
    {},
    optional={
        "pitch": _or_junk(st.integers(-2, 128)),
        "dur": _or_junk(_PAIRS),
        "tie_prev": _or_junk(st.booleans()),
        "tie_next": _or_junk(st.booleans()),
    },
)
_MEASURES = st.fixed_dictionaries(
    {}, optional={"notes": _or_junk(st.lists(_or_junk(_NOTES), max_size=4))}
)
_PIECES = st.fixed_dictionaries(
    {
        "id": _or_junk(st.sampled_from(["a", "b"])),
        "measures": _or_junk(st.lists(_or_junk(_MEASURES), max_size=3)),
    },
    optional={"meter": _or_junk(_PAIRS)},
)
# JSON nested 100,000 deep, which json.loads refuses with a RecursionError;
# a value a fuzz replaces by _DEEP_SLOT is written as this text.
_DEEP = "[" * 100_000 + "]" * 100_000
_DEEP_SLOT = "@@deep@@"
# A line's tail that is not UTF-8: the byte 0xff, once the file is written
# with the surrogateescape error handler (see _file_bytes).
_NOT_UTF8 = "\udcff"


def _dumps(value) -> str:
    return json.dumps(value).replace(json.dumps(_DEEP_SLOT), _DEEP)


def _file_bytes(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


def _damage(draw, value):
    """``value`` with one nested item replaced by any JSON value (deep
    nesting included) or removed."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        copy = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(list(copy) if isinstance(copy, dict) else range(len(copy))))
        if draw(st.integers(0, 3)) == 0:
            del copy[key]
        else:
            copy[key] = _damage(draw, copy[key])
        return copy
    return draw(JSON_VALUES | st.sampled_from([math.inf, -math.inf, math.nan, _DEEP_SLOT]))


_FIXTURE_LINES = FIXTURE_CORPUS.read_text(encoding="utf-8").splitlines()


@st.composite
def _damaged_fixture_line(draw):
    return _dumps(_damage(draw, json.loads(draw(st.sampled_from(_FIXTURE_LINES)))))


_LINES = st.one_of(
    _or_junk(_PIECES).map(json.dumps),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(_FIXTURE_LINES),
    _damaged_fixture_line(),
    st.sampled_from(_FIXTURE_LINES).map(lambda line: line + _NOT_UTF8),
)


class TestCorpusFuzz:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_LINES, min_size=1, max_size=3))
    @example([_FIXTURE_LINES[0], _DEEP])
    @example([_FIXTURE_LINES[0] + _NOT_UTF8])
    def test_any_line_loads_or_is_a_corpus_error(self, tmp_path, lines):
        path = tmp_path / "fuzz.cor"
        path.write_bytes(_file_bytes(lines))
        try:
            assert isinstance(load_corpus(path), Corpus)
        except (CorpusFormatError, CorpusValidationError):
            pass


# A valid library of the fixture's first three measures; the fuzz damages it.
_FIXTURE_MEASURES = json.loads(FIXTURE_CORPUS.read_text().splitlines()[0])["measures"][:3]
_GOOD_LIBRARY = [
    "UNITSEL-LIB 1",
    json.dumps({"count": 3, "meter": [1, 1], "unit_length": 1}),
    *(
        json.dumps({"measures": [m], "origins": [["toy-2025-000", i, "t+1"]]})
        for i, m in enumerate(_FIXTURE_MEASURES)
    ),
]
_JUNK_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def _damaged_libraries(draw):
    """Some JSON lines damaged by value, then up to two lines replaced by junk
    text, cut short, given a tail that is not UTF-8, or dropped."""
    lines = _GOOD_LIBRARY[:1] + [
        _dumps(_damage(draw, json.loads(line))) if draw(st.booleans()) else line
        for line in _GOOD_LIBRARY[1:]
    ]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["text", "cut", "not-utf8", "drop"]))
        if how == "text":
            lines[at] = draw(_JUNK_TEXT)
        elif how == "cut":
            lines[at] = lines[at][: draw(st.integers(0, len(lines[at])))]
        elif how == "not-utf8":
            lines[at] += _NOT_UTF8
        elif len(lines) > 1:
            del lines[at]
    return lines


class TestLibraryFuzz:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_damaged_libraries())
    @example(  # json.loads reads Infinity, and int() of it overflows
        _GOOD_LIBRARY[:1]
        + [json.dumps({"count": 3, "meter": [1, 1], "unit_length": math.inf})]
        + _GOOD_LIBRARY[2:]
    )
    @example(_GOOD_LIBRARY[:2] + [_GOOD_LIBRARY[2].replace('0, "t+1"', 'Infinity, "t+1"')] * 3)
    @example(_GOOD_LIBRARY[:1] + [_DEEP] + _GOOD_LIBRARY[2:])
    @example(_GOOD_LIBRARY[:-1] + [_GOOD_LIBRARY[-1] + _NOT_UTF8])
    def test_any_file_loads_or_is_an_archive_error(self, tmp_path, lines):
        path = tmp_path / "fuzz.lib"
        path.write_bytes(_file_bytes(lines))
        try:
            assert isinstance(load_library(path), UnitLibrary)
        except ArchiveError:
            pass


class TestSplitCorpus:
    def test_sixty_forty(self, fixture_corpus):
        # 12 pieces at 0.6 -> 7/5 by nearest-piece rounding
        train, test = split_corpus(fixture_corpus, 0.6, seed=7)
        assert len(train.pieces) == 7
        assert len(test.pieces) == 5

    def test_ten_pieces_sixty_forty(self, fixture_corpus):
        ten = Corpus(pieces=fixture_corpus.pieces[:10], meter=fixture_corpus.meter)
        train, test = split_corpus(ten, 0.6, seed=7)
        assert (len(train.pieces), len(test.pieces)) == (6, 4)

    def test_deterministic(self, fixture_corpus):
        a = split_corpus(fixture_corpus, 0.6, seed=7)
        b = split_corpus(fixture_corpus, 0.6, seed=7)
        assert [p.id for p in a[0].pieces] == [p.id for p in b[0].pieces]
        assert [p.id for p in a[1].pieces] == [p.id for p in b[1].pieces]

    def test_two_pieces_each_side_gets_one(self, fixture_corpus):
        two = Corpus(pieces=fixture_corpus.pieces[:2], meter=fixture_corpus.meter)
        train, test = split_corpus(two, 0.6, seed=1)
        assert (len(train.pieces), len(test.pieces)) == (1, 1)

    def test_partition(self, fixture_corpus):
        train, test = split_corpus(fixture_corpus, 0.6, seed=3)
        train_ids = {p.id for p in train.pieces}
        test_ids = {p.id for p in test.pieces}
        assert train_ids | test_ids == {p.id for p in fixture_corpus.pieces}
        assert train_ids & test_ids == set()

    def test_too_small(self, fixture_corpus):
        one = Corpus(pieces=fixture_corpus.pieces[:1], meter=fixture_corpus.meter)
        with pytest.raises(ValueError):
            split_corpus(one, 0.6, seed=1)

    def test_bad_fraction(self, fixture_corpus):
        with pytest.raises(ValueError):
            split_corpus(fixture_corpus, 1.2, seed=1)


@pytest.fixture(scope="module")
def tiny_ae(fixture_corpus):
    lib = build_library(
        fixture_corpus, AugmentConfig(unit_length=1, transpose_shifts=(0,))
    )
    vocab = build_vocab(lib)
    model = train_autoencoder(
        lib, vocab, TrainConfig(epochs=2, seed=5, batch_size=16), hidden=32, embedding=16
    )
    return model, lib


@pytest.fixture(scope="module")
def tiny_models(fixture_corpus, tiny_ae):
    """One small trained model of each archive kind."""
    ae, _ = tiny_ae
    dssm = train_dssm(
        make_training_pairs(fixture_corpus, 1),
        ae.vocab,
        TrainConfig(epochs=1, seed=5, batch_size=16),
        width=32,
        embedding=8,
    )
    note_vocab = build_note_vocab(fixture_corpus)
    lm = train_lm(
        [tokenize(p, note_vocab) for p in fixture_corpus.pieces],
        note_vocab,
        TrainConfig(epochs=1, seed=5),
        hidden=8,
    )
    return {"autoencoder": ae, "dssm": dssm, "lstm": lm}


def model_outputs(model) -> np.ndarray:
    """What each kind computes: reconstructions, embeddings or next-note
    distributions of fixed random inputs."""
    rng = np.random.default_rng(0)
    if model.kind == "lstm":
        return model.step_distributions(rng.integers(0, model.vocab.size, size=(4, 12)))
    x = rng.random((100, model.vocab.dimension))
    if model.kind == "autoencoder":
        return model.reconstruct_features(x)
    return model.encode_features(x)


def _json_encoded_archive(archive) -> str:
    """An archive's text with every weight passed through the JSON encoder,
    as ``save_model`` wrote it before it spliced the hex strings in."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": archive.kind,
        "hyperparameters": archive.hyperparameters,
        "layer_dims": list(archive.layer_dims),
        "weights": [
            {
                "name": name,
                "shape": list(arr.shape),
                "data": arr.astype("<f8").tobytes().hex(),
            }
            for name, arr in archive.weights
        ],
        "vocabulary": archive.vocabulary,
        "vocab_hash": archive.vocab_hash(),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return f"UNITSEL-MODEL 1\n{body}\n"


def _edit_payload(edit):
    def apply(header, payload):
        edit(payload)
        return header, payload

    return apply


# Each case turns a valid dssm archive (header line, payload) into a bad one.
MALFORMED_ARCHIVES = {
    "wrong-weight-shape": _edit_payload(
        lambda p: p["weights"][1].update(shape=[1, *p["weights"][1]["shape"]])
    ),
    "no-weights-key": _edit_payload(lambda p: p.pop("weights")),
    "missing-hyperparameter": _edit_payload(
        lambda p: p["hyperparameters"].pop("width")
    ),
    "missing-weight": _edit_payload(lambda p: p["weights"].pop()),
    "version-not-an-integer": lambda header, payload: ("UNITSEL-MODEL x", payload),
}


class TestModelArchive:
    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_round_trip_identical_outputs(self, tmp_path, tiny_models, kind):
        model = tiny_models[kind]
        path = tmp_path / f"{kind}.model"
        save_model(model.to_archive(), path)
        loaded = load_trained(path)
        assert type(loaded) is type(model)
        np.testing.assert_array_equal(model_outputs(model), model_outputs(loaded))

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_loading_draws_no_weights(self, tmp_path, tiny_models, kind, monkeypatch):
        # a loaded model's layers are built around the archive's arrays
        model = tiny_models[kind]
        path = tmp_path / f"{kind}.model"
        save_model(model.to_archive(), path)

        def no_draw(*args):
            raise AssertionError("a weight was drawn while loading")

        monkeypatch.setattr(nn_module, "glorot_uniform", no_draw)
        loaded = load_trained(path)
        np.testing.assert_array_equal(model_outputs(model), model_outputs(loaded))
        assert getattr(loaded, loaded.curve) == []

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_unknown_hyperparameter_is_a_type_error_naming_it(self, tiny_models, kind):
        model_class, vocab = type(tiny_models[kind]), tiny_models[kind].vocab
        with pytest.raises(TypeError, match="no hyperparameter 'depth'"):
            model_class(vocab, depth=3, rng=np.random.default_rng(0))
        # the generator is keyword-only, so no value is taken for it by position
        with pytest.raises(TypeError):
            model_class(vocab, 8)

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_a_fresh_model_has_the_declared_defaults(self, tiny_models, kind):
        model_class, vocab = type(tiny_models[kind]), tiny_models[kind].vocab
        fresh = model_class(vocab, rng=np.random.default_rng(0))
        assert fresh.to_archive().hyperparameters == model_class.hyperparameters
        assert getattr(fresh, model_class.curve) == []

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_save_load_save_byte_identical(self, tmp_path, tiny_models, kind):
        p1 = tmp_path / "a.model"
        p2 = tmp_path / "b.model"
        save_model(tiny_models[kind].to_archive(), p1)
        save_model(load_trained(p1).to_archive(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_saved_bytes_match_the_json_encoder(self, tmp_path, tiny_models, kind):
        archive = tiny_models[kind].to_archive()
        path = tmp_path / "a.model"
        save_model(archive, path)
        assert path.read_bytes() == _json_encoded_archive(archive).encode("utf-8")

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARCHIVES))
    def test_malformed_archive_is_user_error(
        self, tmp_path, tiny_ae, tiny_models, case, capsys
    ):
        good = tmp_path / "dssm.model"
        save_model(tiny_models["dssm"].to_archive(), good)
        header, body = good.read_text().split("\n", 1)
        header, payload = MALFORMED_ARCHIVES[case](header, json.loads(body))
        bad = tmp_path / "bad.model"
        bad.write_text(header + "\n" + json.dumps(payload) + "\n")
        with pytest.raises(ArchiveError):
            load_trained(bad)

        save_library(tiny_ae[1], tmp_path / "lib.lib")
        save_model(tiny_models["lstm"].to_archive(), tmp_path / "lstm.model")
        code = cli_main([
            "generate", "--seed-piece", str(FIXTURE_CORPUS),
            "--library", str(tmp_path / "lib.lib"), "--dssm", str(bad),
            "--lm", str(tmp_path / "lstm.model"), "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err

    def test_version_mismatch(self, tmp_path, tiny_ae):
        model, _ = tiny_ae
        path = tmp_path / "ae.model"
        save_model(model.to_archive(), path)
        body = path.read_text().split("\n", 1)[1]
        path.write_text("UNITSEL-MODEL 99\n" + body)
        with pytest.raises(ArchiveError, match="version"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.model"
        path.write_text("NOT-A-MODEL 1\n{}\n")
        with pytest.raises(ArchiveError, match="magic"):
            load_model(path)

    def test_tampered_weight_length(self, tmp_path, tiny_ae):
        model, _ = tiny_ae
        path = tmp_path / "ae.model"
        save_model(model.to_archive(), path)
        header, body = path.read_text().split("\n", 1)
        payload = json.loads(body)
        payload["weights"][0]["data"] = payload["weights"][0]["data"][:-16]
        path.write_text(header + "\n" + json.dumps(payload))
        with pytest.raises(ArchiveError, match="bytes"):
            load_model(path)

    def test_tampered_vocabulary_hash(self, tmp_path, tiny_ae):
        model, _ = tiny_ae
        path = tmp_path / "ae.model"
        save_model(model.to_archive(), path)
        header, body = path.read_text().split("\n", 1)
        payload = json.loads(body)
        payload["vocabulary"]["families"]["pitch"].append(99)
        path.write_text(header + "\n" + json.dumps(payload))
        with pytest.raises(ArchiveError, match="hash"):
            load_model(path)


def _archive_of(*weights) -> ModelArchive:
    return ModelArchive(
        kind="autoencoder",
        hyperparameters={"hidden": 2, "embedding": 1},
        layer_dims=[3, 2],
        weights=[(f"w{i}", arr) for i, arr in enumerate(weights)],
        vocabulary={"families": {}},
    )


class TestStreamedArchive:
    """save_model streams each weight's hex through the one artifact
    writer; load_model makes each weight a writable view of its bytes."""

    def test_any_layout_gives_the_json_encoders_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        wide = rng.standard_normal((7, WEIGHT_BLOCK // 8 + 3))  # two blocks, the last partial
        archive = _archive_of(
            wide,
            wide.T,  # not C-contiguous
            wide[:, ::2],  # strided
            rng.standard_normal(WEIGHT_BLOCK // 8).astype(">f8"),  # big-endian, exactly one block
            np.array([-0.0, 5e-324, 1e308]),
            np.array(2.5),  # 0-d
            np.zeros((0, 3)),
        )
        path = tmp_path / "a.model"
        save_model(archive, path)
        assert path.read_bytes() == _json_encoded_archive(archive).encode("utf-8")

    def test_saving_8_mb_of_weights_peaks_under_1_mb(self, tmp_path):
        archive = _archive_of(np.random.default_rng(1).standard_normal((1024, 1030)))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            save_model(archive, tmp_path / "big.model")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.model").stat().st_size > 16 * 2**20
        assert peak < 2**20

    @pytest.mark.parametrize("error", [RuntimeError("injected"), KeyboardInterrupt()])
    @pytest.mark.parametrize("earlier", [False, True])
    def test_a_save_that_fails_midway_leaves_no_file(
        self, tmp_path, monkeypatch, error, earlier
    ):
        path = tmp_path / "a.model"
        if earlier:
            path.write_bytes(b"an earlier archive\n")
        real, calls = binascii.hexlify, []

        def failing(data):  # the second block, after the head and one block are written
            calls.append(len(data))
            if len(calls) == 2:
                raise error
            return real(data)

        monkeypatch.setattr(binascii, "hexlify", failing)
        with pytest.raises(type(error)):
            save_model(_archive_of(np.ones((2, WEIGHT_BLOCK // 4))), path)
        assert len(calls) == 2
        assert [p.name for p in tmp_path.iterdir()] == (["a.model"] if earlier else [])
        if earlier:
            assert path.read_bytes() == b"an earlier archive\n"

    def test_lines_that_fail_midway_leave_no_file(self, tmp_path):
        def lines():
            yield "UNITSEL-LIB 1"
            raise RuntimeError("injected")

        with pytest.raises(RuntimeError, match="injected"):
            write_lines(tmp_path / "a.lib", lines())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_a_loaded_model_takes_an_sgd_step(self, tmp_path, tiny_models, kind):
        path = tmp_path / f"{kind}.model"
        save_model(tiny_models[kind].to_archive(), path)
        loaded = load_trained(path)
        before = [p.copy() for p in loaded.params]
        sgd_step(loaded.params, [np.ones_like(p) for p in before], 0.5)
        for p, old in zip(loaded.params, before):
            assert p.tobytes() == (old - 0.5).tobytes()

    def test_loaded_weights_are_views_of_their_own_bytes(self, tmp_path, tiny_ae):
        path = tmp_path / "ae.model"
        save_model(tiny_ae[0].to_archive(), path)
        arrays = [arr for _, arr in load_model(path).weights]
        assert all(arr.flags.writeable and not arr.flags.owndata for arr in arrays)
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :]
        )


def _edit_unit(edit):
    def apply(lines):
        unit = json.loads(lines[2])
        edit(unit)
        return lines[:2] + [json.dumps(unit)] + lines[3:]

    return apply


def _edit_header(edit):
    def apply(lines):
        header = json.loads(lines[1])
        edit(header)
        return [lines[0], json.dumps(header)] + lines[2:]

    return apply


# Each case edits the lines of a good library file.
MALFORMED_LIBRARIES = {
    "version-not-an-integer": lambda lines: ["UNITSEL-LIB x"] + lines[1:],
    "no-header-line": lambda lines: lines[:1],
    "header-not-json": lambda lines: [lines[0], "{"] + lines[2:],
    "header-missing-key": _edit_header(lambda h: h.pop("meter")),
    "truncated-unit-line": lambda lines: lines[:2] + [lines[2][: len(lines[2]) // 2]],
    "unit-line-not-json": lambda lines: lines[:2] + ["not json"] + lines[3:],
    "unit-missing-key": _edit_unit(lambda u: u.pop("origins")),
    "unit-no-origins": _edit_unit(lambda u: u.update(origins=[])),
    "measure-not-an-object": _edit_unit(lambda u: u.update(measures=[[]])),
    "note-without-dur": _edit_unit(lambda u: u["measures"][0]["notes"][0].pop("dur")),
    "unit-wrong-length": _edit_unit(lambda u: u.update(measures=u["measures"] * 2)),
}


class TestLibraryArchive:
    def test_round_trip(self, tmp_path, tiny_ae):
        _, lib = tiny_ae
        path = tmp_path / "lib.lib"
        save_library(lib, path)
        loaded = load_library(path)
        assert loaded.units == lib.units
        assert loaded.origins == lib.origins
        assert loaded.unit_length == lib.unit_length
        assert loaded.meter == lib.meter

    def test_save_load_save_byte_identical(self, tmp_path, tiny_ae):
        _, lib = tiny_ae
        p1 = tmp_path / "a.lib"
        p2 = tmp_path / "b.lib"
        save_library(lib, p1)
        save_library(load_library(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_count_mismatch_detected(self, tmp_path, tiny_ae):
        _, lib = tiny_ae
        path = tmp_path / "lib.lib"
        save_library(lib, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one unit
        with pytest.raises(ArchiveError, match="units"):
            load_library(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_LIBRARIES))
    def test_malformed_library_is_user_error(self, tmp_path, tiny_ae, case, capsys):
        good = tmp_path / "good.lib"
        save_library(tiny_ae[1], good)
        bad = tmp_path / "bad.lib"
        lines = MALFORMED_LIBRARIES[case](good.read_text().splitlines())
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveError, match="bad.lib"):
            load_library(bad)

        code = cli_main(["train-ae", "--library", str(bad), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err


def _library_text(measures, origins) -> str:
    return "\n".join(
        [
            "UNITSEL-LIB 1",
            json.dumps({"count": 1, "meter": [1, 1], "unit_length": 1}),
            json.dumps({"measures": measures, "origins": origins}),
        ]
    ) + "\n"


_HALF = {"pitch": 60, "dur": [1, 2]}


class TestSharedNotes:
    """Loaders share one Note per distinct note; exact types guard the cache."""

    @pytest.mark.parametrize("dur", [[1.0, 2], [1, 2.0]])
    def test_float_twin_after_cached_note_is_a_format_error(self, tmp_path, dur):
        # a cached [1, 2] note must not let its equal float twin through
        path = tmp_path / "twin.cor"
        twin = {"pitch": 60, "dur": dur}
        path.write_text(json.dumps({"id": "a", "measures": [{"notes": [_HALF, twin]}]}))
        with pytest.raises(CorpusFormatError, match=r"twin\.cor:1: dur"):
            load_corpus(path)

    def test_float_twin_on_a_later_line_is_a_format_error(self, tmp_path):
        path = tmp_path / "twin.cor"
        path.write_text(
            json.dumps({"id": "a", "measures": [{"notes": [_HALF, _HALF]}]})
            + "\n"
            + json.dumps({"id": "b", "measures": [{"notes": [_HALF, {"pitch": 60, "dur": [1.0, 2]}]}]})
            + "\n"
        )
        with pytest.raises(CorpusFormatError, match=r"twin\.cor:2: dur"):
            load_corpus(path)

    def test_float_twin_in_a_library_is_an_archive_error(self, tmp_path):
        path = tmp_path / "twin.lib"
        path.write_text(
            _library_text(
                [{"notes": [_HALF, {"pitch": 60, "dur": [1.0, 2]}]}], [["p", 0, ""]]
            )
        )
        with pytest.raises(ArchiveError, match=r"twin\.lib:3:"):
            load_library(path)

    def test_corpus_notes_are_shared(self):
        _assert_equal_notes_are_one_object(
            n for p in load_corpus(FIXTURE_CORPUS).pieces for n in p.notes
        )

    def test_library_notes_are_shared(self, tmp_path, tiny_ae):
        path = tmp_path / "lib.lib"
        save_library(tiny_ae[1], path)
        _assert_equal_notes_are_one_object(
            n for u in load_library(path).units for n in u.notes
        )


# Note fields that are not exact JSON integers or true/false: each is
# refused, not converted.
_INEXACT_NOTES = {
    "pitch-float": {"pitch": 60.7},
    "pitch-string": {"pitch": "60"},
    "pitch-true": {"pitch": True},
    "tie-prev-zero": {"tie_prev": 0},
    "tie-next-string": {"tie_next": "no"},
    "dur-true": {"dur": [True, 4]},
}
_QUARTERS = {"pitch": 60, "dur": [1, 4], "tie_prev": False, "tie_next": False}


class TestExactIntegers:
    """Every integer field of a corpus or library is an exact JSON integer."""

    @staticmethod
    def _corpus_line(piece_id, notes, meter=(1, 1)):
        return json.dumps({"id": piece_id, "meter": list(meter), "measures": [{"notes": notes}]})

    @pytest.mark.parametrize("case", sorted(_INEXACT_NOTES))
    def test_corpus_note_is_a_format_error_naming_file_and_line(self, tmp_path, case):
        path = tmp_path / "inexact.cor"
        bad = dict(_QUARTERS, **_INEXACT_NOTES[case])
        path.write_text(
            self._corpus_line("a", [_QUARTERS] * 4) + "\n"
            + self._corpus_line("b", [bad] + [_QUARTERS] * 3) + "\n"
        )
        with pytest.raises(CorpusFormatError, match=r"inexact\.cor:2: "):
            load_corpus(path)

    def test_corpus_meter_is_a_format_error_naming_file_and_line(self, tmp_path):
        path = tmp_path / "inexact.cor"
        path.write_text(self._corpus_line("a", [_QUARTERS] * 4, meter=(True, 4)) + "\n")
        with pytest.raises(CorpusFormatError, match=r"inexact\.cor:1: meter"):
            load_corpus(path)

    @pytest.mark.parametrize("case", sorted(_INEXACT_NOTES))
    def test_library_note_is_an_archive_error_naming_the_line(self, tmp_path, case):
        path = tmp_path / "inexact.lib"
        bad = dict(_QUARTERS, **_INEXACT_NOTES[case])
        path.write_text(_library_text([{"notes": [_QUARTERS] * 3 + [bad]}], [["p", 0, ""]]))
        with pytest.raises(ArchiveError, match=r"inexact\.lib:3: "):
            load_library(path)

    @pytest.mark.parametrize(
        "field,value",
        [("unit_length", 1.7), ("unit_length", "1"), ("unit_length", True),
         ("count", "3"), ("count", 3.0)],
    )
    def test_library_header_is_an_archive_error_on_line_2(self, tmp_path, field, value):
        path = tmp_path / "inexact.lib"
        header = dict(json.loads(_GOOD_LIBRARY[1]), **{field: value})
        lines = [_GOOD_LIBRARY[0], json.dumps(header), *_GOOD_LIBRARY[2:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveError, match=r"inexact\.lib:2: .*unit_length, count"):
            load_library(path)

    def test_exact_values_load(self, tmp_path):
        path = tmp_path / "exact.lib"
        path.write_text("\n".join(_GOOD_LIBRARY) + "\n")
        assert len(load_library(path)) == 3


def _assert_equal_notes_are_one_object(notes):
    first: dict = {}
    count = 0
    for n in notes:
        count += 1
        assert first.setdefault(n, n) is n, n
    assert len(first) < count  # the check saw repeated notes


# Each origin entry is one an archive must refuse.
BAD_ORIGINS = {
    "int-source-float-offset-int-transform-extra": [5, 1.5, 7, "x"],
    "int-source": [5, 1, "x"],
    "int-transform": ["p", 1, 7],
    "null-transform": ["p", 1, None],
    "float-offset": ["p", 1.5, "x"],
    "integral-float-offset": ["p", 1.0, "x"],
    "bool-offset": ["p", True, "x"],
    "string-offset": ["p", "1", "x"],
    "two-entries": ["p", 1],
    "four-entries": ["p", 1, "x", "y"],
    "not-a-list": "p",
    "object": {"source_id": "p", "offset": 1, "transform": "x"},
}


class TestLibraryOrigins:
    @pytest.mark.parametrize("case", sorted(BAD_ORIGINS))
    def test_bad_origin_is_an_archive_error(self, tmp_path, case):
        path = tmp_path / "bad.lib"
        origins = [["p", 0, ""], BAD_ORIGINS[case]]
        path.write_text(_library_text([{"notes": [{"pitch": 60, "dur": [1, 1]}]}], origins))
        with pytest.raises(ArchiveError, match=r"bad\.lib:3: .*origin"):
            load_library(path)

    def test_good_origins_load_as_given(self, tmp_path):
        path = tmp_path / "good.lib"
        path.write_text(
            _library_text(
                [{"notes": [{"pitch": 60, "dur": [1, 1]}]}], [["p", 0, ""], ["q", 3, "t+1"]]
            )
        )
        (origins,) = load_library(path).origins
        assert [(o.source_id, o.offset, o.transform) for o in origins] == [
            ("p", 0, ""),
            ("q", 3, "t+1"),
        ]


def _eager_origins(path) -> tuple:
    """Every unit line's origins, each entry built as a Provenance."""
    return tuple(
        tuple(Provenance(*o) for o in json.loads(line)["origins"])
        for line in path.read_text().splitlines()[2:]
    )


@pytest.fixture(scope="module")
def full_library(fixture_corpus, tmp_path_factory):
    """A FULL-mode library of the fixture (shifts -2..2) and its file."""
    lib = build_library(
        fixture_corpus, AugmentConfig(unit_length=1, transpose_shifts=(-2, -1, 0, 1, 2))
    )
    path = tmp_path_factory.mktemp("full") / "full.lib"
    save_library(lib, path)
    return lib, path


class TestDeferredOrigins:
    """A loaded library checks every origin but builds only each unit's own;
    the rest are built on the first read of ``origins``."""

    def test_save_of_a_load_is_byte_identical(self, full_library, tmp_path):
        _, path = full_library
        again = tmp_path / "again.lib"
        save_library(load_library(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_origins_equal_the_eager_parse(self, full_library):
        lib, path = full_library
        loaded = load_library(path)
        assert any(len(o) > 1 for o in lib.origins)
        assert loaded.origins == _eager_origins(path) == lib.origins
        assert sum(map(len, loaded.origins)) == sum(map(len, lib.origins))
        assert all(o[0] is u.provenance for u, o in zip(loaded.units, loaded.origins))

    @pytest.mark.parametrize("index", [2, 3])  # the third and the last of four
    @pytest.mark.parametrize("case", sorted(BAD_ORIGINS))
    def test_bad_later_origin_on_a_later_line_fails_the_load(self, tmp_path, case, index):
        origins = [["p", 0, ""], ["q", 1, "t+1"], ["r", 2, "dt"], ["s", 3, ""]]
        origins[index] = BAD_ORIGINS[case]
        lines = [
            "UNITSEL-LIB 1",
            json.dumps({"count": 2, "meter": [1, 1], "unit_length": 1}),
            json.dumps({"measures": [{"notes": [_HALF, _HALF]}], "origins": [["p", 0, ""]] * 2}),
            json.dumps({"measures": [{"notes": [{"pitch": 62, "dur": [1, 1]}]}], "origins": origins}),
        ]
        path = tmp_path / "bad.lib"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveError, match=r"bad\.lib:4: .*origin"):
            load_library(path)

    def test_selection_never_builds_the_other_origins(self, monkeypatch, tmp_path, small_setup):
        built = []

        def counted(units, lines):
            built.append(len(units))
            return deferred(units, lines)

        deferred = corpus_module._deferred_origins
        monkeypatch.setattr(corpus_module, "_deferred_origins", counted)
        path = tmp_path / "small.lib"
        save_library(small_setup["lib"], path)
        lib = load_library(path)
        elib = embed_library(small_setup["dssm"], lib)
        seed = small_setup["corpus"].pieces[0]
        piece = continue_piece(
            seed, 1, elib, small_setup["dssm"], small_setup["lm"], GenerationConfig(seed=7)
        )
        assert len(piece.measures) == len(seed.measures) + 1
        assert built == []
        assert lib.origins == small_setup["lib"].origins
        assert any(len(o) > 1 for o in lib.origins)
        assert built == [len(lib.units)]  # once, however often it is read


# JSON text that a damaged archive may hold in place of a value: junk types,
# non-integers and 1e999, which json reads as a float infinity.
_JUNK_TOKENS = [
    "1e999", "-1e999", "NaN", "1.5", "2.0", "0", "-1", "3", "true", "null",
    '"x"', '""', "[]", "[1.5]", "{}", '{"a": 1}',
]
_JUNK_SLOT = "@@junk@@"


def _value_slots(payload):
    """(container, key) of every hyperparameter, layer size and weight field."""
    slots = [(payload["hyperparameters"], h) for h in payload["hyperparameters"]]
    slots += [(payload["layer_dims"], i) for i in range(len(payload["layer_dims"]))]
    for weight in payload["weights"]:
        slots += [(weight, field) for field in weight]
        slots += [(weight["shape"], i) for i in range(len(weight["shape"]))]
    return slots


@st.composite
def _damaged_archive(draw, text):
    """A saved archive's text with one value replaced by a junk token or deep
    nesting, then up to three edits: a cut, a flipped byte, an inserted JSON
    token or a tail that is not UTF-8."""
    header, body = text.split("\n", 1)
    if draw(st.booleans()):
        payload = json.loads(body)
        container, key = draw(st.sampled_from(_value_slots(payload)))
        container[key] = _JUNK_SLOT
        body = json.dumps(payload).replace(
            json.dumps(_JUNK_SLOT), draw(st.sampled_from(_JUNK_TOKENS + [_DEEP]))
        ) + "\n"
    data = bytearray((header + "\n" + body).encode("utf-8"))
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["cut", "flip", "insert", "not-utf8"]))
        at = draw(st.integers(0, len(data)))
        if how == "cut":
            del data[at:]
        elif how == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif how == "insert":
            token = draw(st.sampled_from(_JUNK_TOKENS + [",", ":", "[", "]", "{", "}"]))
            data[at:at] = token.encode()
        elif how == "not-utf8":
            data += _NOT_UTF8.encode("utf-8", "surrogateescape")
    return bytes(data)


# A vocabulary entry's replacement that is never a valid entry of any family.
_JUNK_ENTRIES = [1.5, 2.0, True, False, None, "60", [], {}, math.inf, math.nan]


def _vocabulary_lists(vocabulary: dict) -> list[list]:
    """The entry lists of a vocabulary snapshot: one per non-empty feature
    family, or the note vocabulary's symbols."""
    if "symbols" in vocabulary:
        return [vocabulary["symbols"]]
    return [entries for entries in vocabulary["families"].values() if entries]


@st.composite
def _damaged_vocabulary(draw, vocabulary: dict):
    """A copy of a vocabulary snapshot with one entry no longer exactly its
    family's integers: replaced by junk, wrapped in a list, or with one of
    its integers replaced by junk, dropped or joined by another integer."""
    vocabulary = json.loads(json.dumps(vocabulary))
    entries = draw(st.sampled_from(_vocabulary_lists(vocabulary)))
    at = draw(st.integers(0, len(entries) - 1))
    entry = entries[at]
    hows = ["junk", "item", "drop", "extend"] if type(entry) is list else ["junk", "wrap"]
    how = draw(st.sampled_from(hows))
    if how == "junk":
        entries[at] = draw(st.sampled_from(_JUNK_ENTRIES))
    elif how == "wrap":
        entries[at] = [entry]
    elif how == "item":
        entry[draw(st.integers(0, len(entry) - 1))] = draw(st.sampled_from(_JUNK_ENTRIES))
    elif how == "drop":
        del entry[draw(st.integers(0, len(entry) - 1))]
    else:
        entry.append(draw(st.integers(-2, 2)))
    return vocabulary


def _with_vocabulary(good, bad, vocabulary: dict) -> None:
    """Write ``good``'s archive to ``bad`` with ``vocabulary`` and its hash,
    so that only the content check of the vocabulary can refuse it."""
    header, body = good.read_text(encoding="utf-8").split("\n", 1)
    payload = json.loads(body)
    payload["vocabulary"] = vocabulary
    payload["vocab_hash"] = sha256_hex(canonical_json(vocabulary))
    bad.write_text(header + "\n" + json.dumps(payload) + "\n", encoding="utf-8")


class TestArchiveFuzz:
    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_damaged_vocabulary_with_its_hash_is_an_archive_error(
        self, tmp_path, tiny_models, kind
    ):
        good = tmp_path / f"{kind}.model"
        save_model(tiny_models[kind].to_archive(), good)
        bad = tmp_path / "bad.model"
        vocabulary = tiny_models[kind].to_archive().vocabulary

        @settings(deadline=None, max_examples=60)
        @given(_damaged_vocabulary(vocabulary))
        def check(damaged):
            _with_vocabulary(good, bad, damaged)
            with pytest.raises(ArchiveError, match="vocabulary entry"):
                load_trained(bad)

        check()

    def test_short_note_entry_exits_1_from_the_cli(self, tmp_path, tiny_ae, capsys):
        model, lib = tiny_ae
        good = tmp_path / "autoencoder.model"
        save_model(model.to_archive(), good)
        vocabulary = model.to_archive().vocabulary
        vocabulary["families"]["note"][0] = [60]
        bad = tmp_path / "bad.model"
        _with_vocabulary(good, bad, vocabulary)
        save_library(lib, tmp_path / "lib.lib")
        code = cli_main([
            "eval-rank50", "--library", str(tmp_path / "lib.lib"), "--model", str(bad),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "'note' vocabulary entry" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_damaged_archive_loads_or_is_an_archive_error(
        self, tmp_path, tiny_models, kind
    ):
        good = tmp_path / f"{kind}.model"
        save_model(tiny_models[kind].to_archive(), good)
        bad = tmp_path / "bad.model"

        @settings(deadline=None, max_examples=60)
        @given(_damaged_archive(good.read_text(encoding="utf-8")))
        @example(f"UNITSEL-MODEL 1\n{_DEEP}\n".encode())
        @example(good.read_bytes() + _NOT_UTF8.encode("utf-8", "surrogateescape"))
        def check(data):
            bad.write_bytes(data)
            try:
                assert isinstance(load_trained(bad), ArchivedModel)
            except ArchiveError:
                pass

        check()

    @pytest.mark.parametrize("value", ["1e999", "1.5"])
    def test_hyperparameter_must_be_an_exact_integer(
        self, tmp_path, tiny_ae, tiny_models, value, capsys
    ):
        good = tmp_path / "dssm.model"
        save_model(tiny_models["dssm"].to_archive(), good)
        header, body = good.read_text().split("\n", 1)
        payload = json.loads(body)
        payload["hyperparameters"]["width"] = _JUNK_SLOT
        bad = tmp_path / "bad.model"
        body = json.dumps(payload).replace(json.dumps(_JUNK_SLOT), value)
        bad.write_text(header + "\n" + body + "\n")
        with pytest.raises(ArchiveError, match="hyperparameter 'width'"):
            load_trained(bad)

        save_library(tiny_ae[1], tmp_path / "lib.lib")
        save_model(tiny_models["lstm"].to_archive(), tmp_path / "lstm.model")
        code = cli_main([
            "generate", "--seed-piece", str(FIXTURE_CORPUS),
            "--library", str(tmp_path / "lib.lib"), "--dssm", str(bad),
            "--lm", str(tmp_path / "lstm.model"), "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "width" in err
        assert "Traceback" not in err


def _unreduce_first(entries: list) -> None:
    """Double the numerator and denominator of the first entry's last fraction."""
    entries[0] = entries[0][:-2] + [2 * entries[0][-2], 2 * entries[0][-1]]


# Each edit leaves every entry exact integers, yet the vocabulary no longer
# in the canonical form that a model's own snapshot writes.
_NOT_CANONICAL = {
    "unreduced-entry": (_unreduce_first, "canonical"),
    "repeated-entry": (lambda entries: entries.append(entries[0]), "duplicate"),
}


class TestCanonicalVocabulary:
    """An archive's vocabulary, hash recomputed, must be the canonical snapshot
    of the vocabulary it rebuilds, so the model's hash is the archive's."""

    @pytest.mark.parametrize("case", sorted(_NOT_CANONICAL))
    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_vocabulary_not_in_canonical_form_is_an_archive_error(
        self, tmp_path, tiny_models, kind, case
    ):
        edit, message = _NOT_CANONICAL[case]
        good = tmp_path / f"{kind}.model"
        save_model(tiny_models[kind].to_archive(), good)
        vocabulary = tiny_models[kind].to_archive().vocabulary
        edit(vocabulary["symbols"] if kind == "lstm" else vocabulary["families"]["dur"])
        bad = tmp_path / "bad.model"
        _with_vocabulary(good, bad, vocabulary)
        with pytest.raises(ArchiveError, match=message):
            load_trained(bad)


def _edited_archive(tmp_path, model, edit):
    """A saved archive of ``model`` whose JSON payload ``edit`` has changed."""
    good = tmp_path / "good.model"
    save_model(model.to_archive(), good)
    header, body = good.read_text(encoding="utf-8").split("\n", 1)
    payload = json.loads(body)
    edit(payload)
    bad = tmp_path / "bad.model"
    bad.write_text(header + "\n" + json.dumps(payload) + "\n", encoding="utf-8")
    return bad


def _with_hyperparameters(tmp_path, model, **values):
    """A saved archive of ``model`` with hyperparameters edited to ``values``."""
    return _edited_archive(tmp_path, model, lambda p: p["hyperparameters"].update(values))


def _with_non_finite_weight(tmp_path, model, value):
    """A saved archive of ``model`` whose last weight's first entry is ``value``."""

    def edit(payload):
        entry = payload["weights"][-1]
        arr = np.frombuffer(bytes.fromhex(entry["data"]), dtype="<f8").copy()
        arr[0] = value
        entry["data"] = arr.tobytes().hex()

    return _edited_archive(tmp_path, model, edit)


def _generate_notes(tmp_path, lm_path):
    return cli_main([
        "generate-notes", "--seed-piece", str(FIXTURE_CORPUS), "--lm", str(lm_path),
        "--measures", "1", "--out", str(tmp_path / "out"),
    ])


class TestHyperparameterSizes:
    """Weight shapes are compared with the shapes that the hyperparameters
    and the vocabulary imply before any model is built, so a huge
    hyperparameter is refused without allocating from it."""

    @pytest.mark.parametrize(
        "kind,name", [("autoencoder", "hidden"), ("dssm", "width"), ("lstm", "hidden")]
    )
    def test_huge_value_is_an_archive_error(self, tmp_path, tiny_models, kind, name):
        bad = _with_hyperparameters(tmp_path, tiny_models[kind], **{name: 10**13})
        expected_huge = r"has shape \(\d+, \d+\), expected \(\d{14}, \d+\)"
        with pytest.raises(ArchiveError, match=expected_huge):
            load_trained(bad)

    def test_huge_lstm_hidden_exits_1_from_the_cli(self, tmp_path, tiny_models, capsys):
        bad = _with_hyperparameters(tmp_path, tiny_models["lstm"], hidden=10**13)
        code = cli_main([
            "generate-notes", "--seed-piece", str(FIXTURE_CORPUS), "--lm", str(bad),
            "--measures", "1", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "lstm1.w" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind,name", [("dssm", "width"), ("lstm", "hidden")])
    def test_moderate_value_allocates_nothing_from_it(self, tmp_path, tiny_models, kind, name):
        # building either model at 5,000 would allocate hundreds of MB
        # (the LSTM's recurrent weights alone are 20,000 x 5,000 float64)
        bad = _with_hyperparameters(tmp_path, tiny_models[kind], **{name: 5000})
        tracemalloc.start()
        try:
            with pytest.raises(ArchiveError, match="expected"):
                load_trained(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("value", [10**13, 37])
    def test_context_len_other_than_training_is_an_archive_error(
        self, tmp_path, tiny_models, value
    ):
        # scoring refuses a window of any length but context_len, and
        # training writes only CONTEXT_LEN
        bad = _with_hyperparameters(tmp_path, tiny_models["lstm"], context_len=value)
        with pytest.raises(ArchiveError, match=f"context_len is {value}, expected 36"):
            load_trained(bad)

    @pytest.mark.parametrize("value", [10**13, 37])
    def test_context_len_other_than_training_exits_1_from_the_cli(
        self, tmp_path, tiny_models, capsys, value
    ):
        bad = _with_hyperparameters(tmp_path, tiny_models["lstm"], context_len=value)
        code = _generate_notes(tmp_path, bad)
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and f"context_len is {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [4, 37])
    def test_context_len_other_than_training_is_refused_on_construction(
        self, tiny_models, value
    ):
        # such a model could never score a window or load its own archive
        with pytest.raises(ValueError, match=f"context_len is {value}, expected 36"):
            LmModel(tiny_models["lstm"].vocab, hidden=8, context_len=value,
                    rng=np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_layer_dims_other_than_the_weights_imply_is_an_archive_error(
        self, tmp_path, tiny_models, kind
    ):
        # a model loaded from it would save other layer_dims than it was read with
        model = tiny_models[kind]
        bad = _edited_archive(tmp_path, model, lambda p: p.update(layer_dims=[7, 7, 7, 7]))
        implied = re.escape(str(model.to_archive().layer_dims))
        with pytest.raises(ArchiveError, match=rf"layer_dims \[7, 7, 7, 7\], expected {implied}"):
            load_trained(bad)

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    def test_layer_dims_match_the_built_model(self, tiny_models, kind):
        model = tiny_models[kind]
        hp = {h: getattr(model, h) for h in type(model).hyperparameters}
        built = [(type(layer), layer.in_dim, layer.out_dim) for layer in model.layers]
        # each entry's fields after the first three are constructor arguments
        assert [entry[:3] for entry in type(model).layer_dims(model.vocab, **hp)] == built
        for (layer_class, d_in, d_out), layer in zip(built, model.layers):
            shapes = layer_class.param_shapes(d_in, d_out)
            assert shapes == tuple(getattr(layer, p).shape for p in layer.param_names)


class TestNonFiniteWeights:
    """A diverged model is refused at load, not used to score or generate."""

    @pytest.mark.parametrize("kind", ["autoencoder", "dssm", "lstm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_is_an_archive_error(self, tmp_path, tiny_models, kind, value):
        bad = _with_non_finite_weight(tmp_path, tiny_models[kind], value)
        with pytest.raises(ArchiveError, match="holds non-finite values"):
            load_trained(bad)

    def test_nan_lstm_exits_1_from_the_cli(self, tmp_path, tiny_models, capsys):
        bad = _with_non_finite_weight(tmp_path, tiny_models["lstm"], math.nan)
        code = _generate_notes(tmp_path, bad)
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "'out.b' holds non-finite values" in err
        assert "Traceback" not in err
