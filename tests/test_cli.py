import argparse
import io
import json
import math
import shlex
import sys
import warnings
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from unitsel import cli, load_trained
from unitsel._util import file_sha256, write_json
from unitsel.augment import AugmentConfig
from unitsel.autoencoder import AutoencoderModel, embed_library
from unitsel.cli import build_parser, main, run_command
from unitsel.corpus import (
    LIBRARY_MAGIC, Corpus, load_corpus, load_library, save_corpus, save_model,
)
from unitsel.engine import SAMPLED, GenerationConfig
from unitsel.lm import LmModel, train_lm
from unitsel.music import Measure, Note, Piece, validate_piece
from unitsel.nn import TrainConfig

from conftest import FIXTURE_CORPUS

CORPUS = str(FIXTURE_CORPUS)


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@contextmanager
def _warnings_on_stderr():
    """Print every warning to sys.stderr, as a script run does, so that
    capsys reads what a user would see."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        yield


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full command chain once; commands under test reuse it, and
    ``summaries`` holds what each command printed."""
    root = tmp_path_factory.mktemp("cli")
    summaries = {}

    def run(*argv):
        printed = io.StringIO()
        with redirect_stdout(printed):
            code = main(list(argv))
        assert code == 0, f"command failed: {argv}"
        summaries[argv[0]] = printed.getvalue()

    run("split", "--corpus", CORPUS, "--out", str(root / "split"),
        "--train-fraction", "0.6", "--seed", "7")
    train_cor = str(root / "split" / "train.cor")
    test_cor = str(root / "split" / "test.cor")

    run("build-lib", "--corpus", train_cor, "--out", str(root / "lib"),
        "--unit-length", "1", "--shifts=-2,-1,0,1,2", "--mode", "transpose_only")
    lib = str(root / "lib" / "library.lib")

    run("train-ae", "--library", lib, "--out", str(root / "ae"),
        "--epochs", "4", "--batch-size", "16", "--hidden", "48",
        "--embedding", "24", "--seed", "7")
    ae = str(root / "ae" / "autoencoder.model")

    run("train-dssm", "--corpus", train_cor, "--out", str(root / "dssm"),
        "--unit-length", "1", "--shifts=-2,-1,0,1,2", "--epochs", "6",
        "--learning-rate", "0.2", "--seed", "7")
    dssm = str(root / "dssm" / "dssm.model")

    run("train-lm", "--corpus", train_cor, "--out", str(root / "lm"),
        "--shifts=-2,-1,0,1,2", "--epochs", "6", "--learning-rate", "1.0",
        "--hidden", "32", "--seed", "7")
    lm = str(root / "lm" / "lstm.model")

    return {
        "root": root,
        "train": train_cor,
        "test": test_cor,
        "lib": lib,
        "ae": ae,
        "dssm": dssm,
        "lm": lm,
        "summaries": summaries,
    }


class TestArtifacts:
    def test_split_manifest(self, pipeline):
        manifest = json.loads(
            (pipeline["root"] / "split" / "manifest.json").read_text()
        )
        assert manifest["command"] == "split"
        assert manifest["seed"] == 7
        assert "corpus" in manifest["input_hashes"]
        assert len(manifest["config_hash"]) == 64

    def test_library_loads(self, pipeline):
        lib = load_library(pipeline["lib"])
        assert len(lib) > 50
        assert lib.unit_length == 1

    def test_models_exist(self, pipeline):
        for key in ("ae", "dssm", "lm"):
            assert Path(pipeline[key]).exists()


# Each trained archive's directory in the pipeline, its curve, the pipeline's
# --epochs and the decimals its summary prints.
_TRAINED = {
    "train-ae": ("ae", "loss_curve", 4, 4),
    "train-dssm": ("dssm", "loss_curve", 6, 4),
    "train-lm": ("lm", "perplexity_curve", 6, 2),
}


def _strict_json(path):
    """A JSON file's value; Infinity, -Infinity and NaN, which are not JSON, raise."""

    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestCurves:
    def test_every_json_file_is_strict_json(self, pipeline):
        files = sorted(pipeline["root"].rglob("*.json"))
        assert len(files) >= 8  # five manifests and three curves
        for path in files:
            _strict_json(path)

    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        path = tmp_path / "curves.json"
        write_json({"curve": [math.inf, -math.inf, math.nan, 1.5]}, path)
        assert _strict_json(path) == {"curve": [None, None, None, 1.5]}

    @pytest.mark.parametrize("rate", ["1e3", "1e10"])
    def test_a_perplexity_far_above_uniform_is_refused(self, tmp_path, capsys, rate):
        # a huge finite rate saturates the gates: the weights stay finite, but
        # the perplexity is 1e37 or infinite against a vocabulary of 19
        out = tmp_path / "o"
        code = main(["train-lm", "--corpus", CORPUS, "--out", str(out), "--shifts=0",
                     "--epochs", "1", "--hidden", "8", "--learning-rate", rate,
                     "--seed", "7"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "error: the note model's final perplexity " in err
        assert "above the bound 190 (10 x the vocabulary size 19)" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", list(_TRAINED))
    def test_each_trainer_writes_its_curve_and_the_uniform_bound(self, pipeline, command):
        name, curve, epochs, decimals = _TRAINED[command]
        curves = json.loads((pipeline["root"] / name / "curves.json").read_text())
        assert set(curves) == {curve, "uniform"}
        assert len(curves[curve]) == epochs
        assert f" {curves[curve][-1]:.{decimals}f}) -> " in pipeline["summaries"][command]
        if command == "train-lm":  # a uniform guess has the vocabulary size as perplexity
            assert curves["uniform"] == load_trained(pipeline["lm"], "lstm").vocab.size
        else:  # and log(1 + negatives) as relevance loss
            assert curves["uniform"] == math.log(1 + TrainConfig.negatives)
            assert round(curves["uniform"], 4) == 1.6094


class TestReconstruct:
    def test_outputs_valid_corpus(self, pipeline, tmp_path):
        out = tmp_path / "recon"
        code = main([
            "reconstruct", "--corpus", pipeline["test"], "--library",
            pipeline["lib"], "--model", pipeline["ae"], "--out", str(out),
        ])
        assert code == 0
        corpus = load_corpus(out / "reconstructed.cor")
        source = load_corpus(pipeline["test"])
        assert len(corpus.pieces) == len(source.pieces)
        for p, src in zip(corpus.pieces, source.pieces):
            assert validate_piece(p) == []
            assert len(p.measures) == len(src.measures)


class TestInterpolate:
    def test_blend_endpoints(self, pipeline, tmp_path):
        test_ids = [p.id for p in load_corpus(pipeline["test"]).pieces]
        out = tmp_path / "interp"
        code = main([
            "interpolate", "--corpus", pipeline["test"], "--library",
            pipeline["lib"], "--model", pipeline["ae"], "--piece-a", test_ids[0],
            "--piece-b", test_ids[1], "--alphas", "0,0.5,1", "--out", str(out),
        ])
        assert code == 0
        corpus = load_corpus(out / "interpolated.cor")
        assert [p.id for p in corpus.pieces] == [
            "interp-0.00", "interp-0.50", "interp-1.00",
        ]


class TestGenerate:
    def test_extends_seed_by_units(self, pipeline, tmp_path):
        out = tmp_path / "gen"
        code = main([
            "generate", "--seed-piece", pipeline["test"], "--library",
            pipeline["lib"], "--dssm", pipeline["dssm"], "--lm", pipeline["lm"],
            "--units", "4", "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        corpus = load_corpus(out / "generated.cor")
        source = load_corpus(pipeline["test"])
        for p, src in zip(corpus.pieces, source.pieces):
            assert len(p.measures) == len(src.measures) + 4
            assert validate_piece(p) == []
        audit = json.loads((out / "audit.json").read_text())
        assert audit and all("shortlist" in step for step in audit)
        # each seed piece's records, in seed-corpus order, one per unit
        assert [(r["piece"], r["step"]) for r in audit] == [
            (p.id, step) for p in source.pieces for step in range(4)
        ]

    def test_note_level(self, pipeline, tmp_path):
        out = tmp_path / "gen-notes"
        code = main([
            "generate-notes", "--seed-piece", pipeline["test"], "--lm",
            pipeline["lm"], "--measures", "2", "--out", str(out),
        ])
        assert code == 0
        corpus = load_corpus(out / "generated-notes.cor")
        for p in corpus.pieces:
            assert validate_piece(p) == []


    def test_sampled_note_level_at_a_small_temperature(self, pipeline, tmp_path):
        out = tmp_path / "gen-notes-cold"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "generate-notes", "--seed-piece", pipeline["test"], "--lm",
                pipeline["lm"], "--measures", "4", "--out", str(out),
                "--sample", "--temperature", "0.003", "--seed", "7",
            ])
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        corpus = load_corpus(out / "generated-notes.cor")
        assert corpus.pieces
        for p in corpus.pieces:
            assert validate_piece(p) == []


class TestEval:
    def test_rank50_report(self, pipeline, tmp_path):
        out = tmp_path / "rank50"
        code = main([
            "eval-rank50", "--library", pipeline["lib"], "--model", pipeline["ae"],
            "--max-probes", "60", "--out", str(out), "--seed", "5",
        ])
        assert code == 0
        result = json.loads((out / "rank50.json").read_text())
        assert 1.0 <= result["mean_rank_at_50"] <= 50.0
        assert result["probe_count"] == 60

    def test_nextunit_deterministic_across_runs_and_threads(self, pipeline, tmp_path):
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            code = main([
                "eval-nextunit", "--corpus", pipeline["test"], "--library",
                pipeline["lib"], "--dssm", pipeline["dssm"], "--lm", pipeline["lm"],
                "--out", str(out), "--seed", "9", "--threads", threads,
            ])
            assert code == 0
            outputs.append(
                (
                    (out / "report.txt").read_bytes(),
                    (out / "report.txt.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]


class TestErrors:
    def test_missing_corpus_is_user_error(self, tmp_path, capsys):
        code = main([
            "train-ae", "--library", str(tmp_path / "nope.lib"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "not found" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_that_cannot_be_a_directory_is_a_user_error(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("a file\n")
        code = main(["split", "--corpus", CORPUS, "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot make the output directory: ")
        assert "Traceback" not in err

    def test_bad_flag_is_user_error(self, capsys):
        assert main(["build-lib", "--nonsense"]) == 1

    def test_wrong_model_kind(self, pipeline, tmp_path, capsys):
        code = main([
            "generate", "--seed-piece", pipeline["test"], "--library",
            pipeline["lib"], "--dssm", pipeline["ae"], "--lm", pipeline["lm"],
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "expected dssm" in capsys.readouterr().err

    def test_zero_norm_embedding_is_user_error(self, pipeline, tmp_path, capsys):
        # a zero head embeds every unit to the zero vector
        dssm = load_trained(pipeline["dssm"], "dssm")
        dssm.out.w[:] = 0.0
        dssm.out.b[:] = 0.0
        lib = load_library(pipeline["lib"])
        with pytest.raises(ValueError, match="library unit 0 .*zero-norm") as err:
            embed_library(dssm, lib)
        assert repr(lib.units[0].provenance.source_id) in str(err.value)

        zeroed = tmp_path / "zero.model"
        save_model(dssm.to_archive(), zeroed)
        common = ["--library", pipeline["lib"], "--dssm", str(zeroed), "--lm", pipeline["lm"]]
        for argv in (
            ["generate", "--seed-piece", pipeline["test"], *common],
            ["eval-nextunit", "--corpus", pipeline["test"], *common],
        ):
            code = main([*argv, "--out", str(tmp_path / argv[0])])
            err = capsys.readouterr().err
            assert code == 1
            assert "error:" in err and "zero-norm" in err
            assert "Traceback" not in err

    def test_invalid_corpus_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.cor"
        bad.write_text('{"id": "p", "meter": [1, 1], "measures": '
                       '[{"notes": [{"pitch": 60, "dur": [1, 4]}]}]}\n')
        code = main(["build-lib", "--corpus", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "duration-mismatch" in capsys.readouterr().err

    def test_seed_meter_differs_from_library(self, pipeline, tmp_path, capsys):
        seed = tmp_path / "waltz.cor"
        seed.write_text('{"id": "w", "meter": [3, 4], "measures": '
                        '[{"notes": [{"pitch": 60, "dur": [3, 4]}]}]}\n')
        code = main([
            "generate", "--seed-piece", str(seed), "--library", pipeline["lib"],
            "--dssm", pipeline["dssm"], "--lm", pipeline["lm"], "--out", str(tmp_path / "g"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot extend w" in err and "meter 3/4" in err

    @pytest.mark.parametrize(
        "measures",
        [
            '[{"notes": [{"pitch": 60}]}]',
            '[{"notes": [{"dur": [1, 1]}]}]',
            "[[]]",
            '{"notes": []}',
        ],
        ids=["note-without-dur", "note-without-pitch", "measure-not-an-object", "measures-not-a-list"],
    )
    def test_malformed_corpus_line_is_user_error(self, tmp_path, capsys, measures):
        bad = tmp_path / "bad.cor"
        bad.write_text(f'{{"id": "p", "measures": {measures}}}\n')
        code = main(["build-lib", "--corpus", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: invalid corpus" in err and f"{bad}:1:" in err
        assert "Traceback" not in err


# Each command's input files by flag, in the order the runner loads them,
# each named by its pipeline key ("corpus" is the fixture corpus).
_COMMAND_INPUTS = {
    "split": {"corpus": "corpus"},
    "build-lib": {"corpus": "train"},
    "train-ae": {"library": "lib"},
    "train-dssm": {"corpus": "train"},
    "train-lm": {"corpus": "train"},
    "reconstruct": {"corpus": "test", "library": "lib", "model": "ae"},
    "interpolate": {"corpus": "test", "library": "lib", "model": "ae"},
    "generate": {"seed_piece": "test", "library": "lib", "dssm": "dssm", "lm": "lm"},
    "generate-notes": {"seed_piece": "test", "lm": "lm"},
    "eval-rank50": {"library": "lib", "model": "ae"},
    "eval-nextunit": {"corpus": "test", "library": "lib", "dssm": "dssm", "lm": "lm"},
}
# The pipeline's output directory of each command it runs.
_PIPELINE_OUT = {
    "split": "split", "build-lib": "lib", "train-ae": "ae", "train-dssm": "dssm", "train-lm": "lm",
}
# Small runs of the other commands: the flags besides the inputs.
_SMALL_RUNS = {
    "reconstruct": [],
    "interpolate": ["--piece-a={a}", "--piece-b={b}", "--alphas=0"],
    "generate": ["--units=1"],
    "generate-notes": ["--measures=1"],
    "eval-rank50": ["--max-probes=5"],
    "eval-nextunit": ["--max-probes=5", "--regimes=random"],
}


def _input_flags(inputs: dict) -> list[str]:
    return [f"--{name.replace('_', '-')}={path}" for name, path in inputs.items()]


class TestRunner:
    """Every command's input files are loaded, embedded and hashed by one runner."""

    @pytest.mark.parametrize("command", list(_COMMAND_INPUTS))
    def test_manifest_hashes_exactly_the_input_flags(self, pipeline, tmp_path, command):
        files = {"corpus": CORPUS, **pipeline}
        inputs = {name: files[key] for name, key in _COMMAND_INPUTS[command].items()}
        if command in _PIPELINE_OUT:
            out = pipeline["root"] / _PIPELINE_OUT[command]
        else:
            a, b = (p.id for p in load_corpus(pipeline["test"]).pieces[:2])
            flags = [flag.format(a=a, b=b) for flag in _SMALL_RUNS[command]]
            out = tmp_path / "o"
            assert main([command, *_input_flags(inputs), *flags, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_hashes"] == {
            name: file_sha256(path) for name, path in inputs.items()
        }

    # the flags are given in reverse, so the order named is the runner's
    @pytest.mark.parametrize(
        "command,missing",
        [(command, list(inputs)) for command, inputs in _COMMAND_INPUTS.items() if len(inputs) > 1]
        + [("generate", ["library", "lm"])],
    )
    def test_the_first_unreadable_input_in_load_order_is_named(
        self, pipeline, tmp_path, capsys, command, missing
    ):
        files = {"corpus": CORPUS, **pipeline}
        inputs = {name: files[key] for name, key in _COMMAND_INPUTS[command].items()}
        inputs.update({name: str(tmp_path / f"no-{name}") for name in missing})
        pieces = ["--piece-a=a", "--piece-b=b"] if command == "interpolate" else []
        out = tmp_path / "o"
        code = main([command, *_input_flags(dict(reversed(inputs.items()))), *pieces,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and f"{inputs[missing[0]]}: file not found" in err
        assert not any(inputs[name] in err for name in missing[1:])
        assert not (out / "manifest.json").exists()

    def test_interpolating_an_unknown_piece_is_a_user_error(self, pipeline, tmp_path, capsys):
        known = load_corpus(pipeline["test"]).pieces[0].id
        out = tmp_path / "o"
        code = main([
            "interpolate", "--corpus", pipeline["test"], "--library", pipeline["lib"],
            "--model", pipeline["ae"], "--piece-a", "no-such-piece", "--piece-b", known,
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: piece 'no-such-piece' not in {pipeline['test']}\n"
        assert not (out / "manifest.json").exists()

    def test_an_artifact_that_cannot_be_written_is_a_user_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "train.cor").mkdir(parents=True)  # a directory where split writes a file
        code = main(["split", "--corpus", CORPUS, "--out", str(out), "--seed", "7"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {out / 'train.cor'}: cannot write (Is a directory)\n"
        assert not (out / "manifest.json").exists()

    def test_a_failed_split_rerun_leaves_no_earlier_manifest(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["split", "--corpus", CORPUS, "--out", str(out), "--seed", "7"]) == 0
        (out / "train.cor").unlink()
        (out / "train.cor").mkdir()
        code = main(["split", "--corpus", CORPUS, "--out", str(out), "--seed", "8"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {out / 'train.cor'}: cannot write (Is a directory)\n"
        assert not (out / "manifest.json").exists()

    def test_a_failed_generate_rerun_leaves_no_earlier_manifest(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["generate", "--seed-piece", pipeline["test"], "--library", pipeline["lib"],
                "--dssm", pipeline["dssm"], "--lm", pipeline["lm"], "--units=1", "--sample",
                "--out", str(out)]
        assert main([*argv, "--seed", "7"]) == 0
        (out / "audit.json").unlink()
        (out / "audit.json").mkdir()
        code = main([*argv, "--seed", "8"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.endswith(f"error: {out / 'audit.json'}: cannot write (Is a directory)\n")
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_a_manifest_that_cannot_be_removed_is_a_user_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "manifest.json").mkdir(parents=True)
        code = main(["split", "--corpus", CORPUS, "--out", str(out), "--seed", "7"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {out / 'manifest.json'}: cannot write (Is a directory)\n"
        assert not (out / "train.cor").exists()


# Each input flag and a command that reads it; the pipeline gives the other files.
_INPUT_COMMANDS = {
    "--corpus": lambda p, bad: ["split", "--corpus", bad],
    "--seed-piece": lambda p, bad: ["generate-notes", "--seed-piece", bad, "--lm", p["lm"]],
    "--library": lambda p, bad: ["eval-rank50", "--library", bad, "--model", p["ae"]],
    "--model": lambda p, bad: ["eval-rank50", "--library", p["lib"], "--model", bad],
    "--dssm": lambda p, bad: ["generate", "--seed-piece", p["test"], "--library", p["lib"],
                              "--dssm", bad, "--lm", p["lm"]],
    "--lm": lambda p, bad: ["generate-notes", "--seed-piece", p["test"], "--lm", bad],
}
# The line each flag's file starts with: a magic line, or none for a corpus.
_FIRST_LINE = {"--corpus": "", "--seed-piece": "", "--library": "UNITSEL-LIB 1\n"}


class TestUnreadableInputs:
    """A file that cannot be read, decoded or parsed is a user error naming it."""

    @pytest.mark.parametrize("content", ["directory", "not-utf8", "deep"])
    @pytest.mark.parametrize("flag", list(_INPUT_COMMANDS))
    def test_unreadable_input_is_a_user_error(self, pipeline, tmp_path, capsys, flag, content):
        magic = _FIRST_LINE.get(flag, "UNITSEL-MODEL 1\n")
        bad = tmp_path / "bad"
        if content == "directory":
            bad.mkdir()
        elif content == "not-utf8":
            bad.write_bytes(magic.encode() + b"\xff\xfe\n")
        else:  # json.loads raises RecursionError on it
            bad.write_text(magic + "[" * 100_000 + "]" * 100_000 + "\n")
        code = main([*_INPUT_COMMANDS[flag](pipeline, str(bad)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error:") and str(bad) in err
        assert "Traceback" not in err

    def test_corpus_error_names_the_line_counting_blank_lines(self, tmp_path, capsys):
        bad = tmp_path / "blanks.cor"
        first = FIXTURE_CORPUS.read_text(encoding="utf-8").splitlines()[0]
        bad.write_text(first + '\n\n\n{"id": "p", "measures": [{"notes": [{"pitch": 60}]}]}\n')
        code = main(["split", "--corpus", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{bad}:4: dur" in err and "Traceback" not in err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_fraction": 0.8, "seed": 42}))
        out = tmp_path / "split"
        code = main([
            "split", "--corpus", CORPUS, "--out", str(out),
            "--config", str(cfg), "--seed", "7",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train_fraction"] == 0.8  # from config file
        assert manifest["seed"] == 7  # explicit flag beat the config value

    def test_config_path_joined_with_equals(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_fraction": 0.8}))
        for name, flag in (("spaced", ["--config", str(cfg)]), ("joined", [f"--config={cfg}"])):
            out = tmp_path / name
            assert main(["split", "--corpus", CORPUS, "--out", str(out), *flag]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["train_fraction"] == 0.8, name
            assert len(load_corpus(out / "train.cor").pieces) == 10, name

    @pytest.mark.parametrize("path", ["", "."], ids=["empty", "directory"])
    def test_config_path_that_is_not_a_file_is_a_user_error(self, tmp_path, capsys, path):
        code = main(["split", "--corpus", CORPUS, "--out", str(tmp_path / "o"), f"--config={path}"])
        err = capsys.readouterr().err
        assert code == 1
        assert "file not found or not readable" in err and "Traceback" not in err

    @pytest.mark.parametrize("shifts", [[-1, 0, 1], "-1,0,1"], ids=["list", "string"])
    def test_config_shifts_match_the_flag(self, tmp_path, shifts):
        def manifest_config(name, *extra):
            out = tmp_path / name
            code = main([
                "build-lib", "--corpus", CORPUS, "--mode", "transpose_only",
                "--out", str(out), *extra,
            ])
            assert code == 0
            config = json.loads((out / "manifest.json").read_text())["config"]
            config.pop("out")
            return config

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shifts": shifts}))
        from_file = manifest_config("file", "--config", str(cfg))
        assert from_file == manifest_config("flag", "--shifts=-1,0,1")
        assert from_file["shifts"] == [-1, 0, 1]


# Flags of split and build-lib (with "_" or "-"), plus keys no command knows
# (seed is a flag of split only).
_CONFIG_KEYS = [
    "train_fraction", "train-fraction", "seed", "unit_length", "unit-length",
    "shifts", "add_constants", "mul_constants", "mul-constants", "no_double_time",
    "mode", "out", "corpus", "config", "colour", "", "-", "a b", "shifts=1",
]
# Flags of the other fuzzed commands other than their sizes, likewise;
# train-dssm has the flags of train-lm but --hidden, plus --negatives and
# --unit-length, so it shares their list (for train-lm those two keys, and
# no_double_time for both, are flags the command does not know).
_TRAIN_LM_KEYS = [
    "seed", "learning_rate", "learning-rate", "dropout_keep", "dropout-keep",
    "negatives", "batch_size", "batch-size", "shifts", "unit_length", "no_double_time",
    "out", "corpus", "config", "colour", "", "a b",
]
_GENERATE_NOTES_KEYS = [
    "seed", "temperature", "sample", "seed_piece", "seed-piece", "lm",
    "out", "config", "colour", "", "a b",
]
_TRAIN_AE_KEYS = [
    "seed", "learning_rate", "learning-rate", "dropout_keep", "dropout-keep",
    "negatives", "batch_size", "batch-size", "library", "out", "config", "colour", "", "a b",
]
_GENERATE_KEYS = _GENERATE_NOTES_KEYS + [
    "library", "dssm", "shortlist_fraction", "shortlist-fraction",
]
_RANK50_KEYS = ["seed", "library", "model", "out", "config", "colour", "", "a b"]
# seed is a flag reconstruct and interpolate do not know
_RECONSTRUCT_KEYS = _RANK50_KEYS + ["corpus"]
_INTERPOLATE_KEYS = _RECONSTRUCT_KEYS + ["piece_a", "piece-a", "piece_b", "alphas"]
_NEXTUNIT_KEYS = [
    "seed", "corpus", "library", "dssm", "lm", "regimes", "out", "config", "colour", "", "a b",
]
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["1/0", "0/1", "1/2", "-2", "2,1/0", "transpose_only", "full", "1e999"]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
# --threads starts that many worker threads, so no value can ask for more than 4
_THREADS = st.one_of(
    st.integers(-3, 4), st.sampled_from(["x", "", "1.5", "2", None, True, False, [1, 2], {}])
)


# Training's flags take scalars more often than _JSON_VALUES gives them, so
# that more examples get as far as training or generating.
_SCALAR_FLAGS = st.one_of(
    st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    _JSON_VALUES,
)
# Per command: the keys drawn for a config file, their values, and the sizes
# it always sets. Memory and run time grow with a size, so sizes are drawn
# from small ranges only.
_EPOCHS = st.integers(0, 1)
_WIDTH = st.integers(-1, 8)
_MAX_PROBES = st.integers(-1, 20)
_REGIMES = st.one_of(
    _SCALAR_FLAGS, st.sampled_from(["lstm", "dssm+lstm,random", "lstm,,dssm", "dssm,nonsense"])
)
_FUZZED = {
    "split": (_CONFIG_KEYS, _JSON_VALUES, {}),
    "build-lib": (_CONFIG_KEYS, _JSON_VALUES, {}),
    "train-lm": (_TRAIN_LM_KEYS, _SCALAR_FLAGS, {"epochs": _EPOCHS, "hidden": _WIDTH}),
    "generate-notes": (_GENERATE_NOTES_KEYS, _SCALAR_FLAGS, {"measures": st.integers(-1, 2)}),
    # dropout at a width of 8 or less zeroes a whole row in almost every run
    "train-ae": (
        _TRAIN_AE_KEYS,
        _SCALAR_FLAGS,
        {"epochs": _EPOCHS, "hidden": _WIDTH, "embedding": _WIDTH,
         "dropout-keep": st.one_of(st.just(1), _SCALAR_FLAGS)},
    ),
    "train-dssm": (_TRAIN_LM_KEYS, _SCALAR_FLAGS, {"epochs": _EPOCHS}),
    "generate": (_GENERATE_KEYS, _SCALAR_FLAGS, {"units": st.integers(-1, 2)}),
    "eval-rank50": (_RANK50_KEYS, _SCALAR_FLAGS, {"max-probes": _MAX_PROBES}),
    "eval-nextunit": (_NEXTUNIT_KEYS, _REGIMES, {"max-probes": _MAX_PROBES}),
    "reconstruct": (_RECONSTRUCT_KEYS, _SCALAR_FLAGS, {}),
    "interpolate": (_INTERPOLATE_KEYS, _SCALAR_FLAGS, {}),
}
# Passed as flags for the sizes a config file does not set: a drawn object
# always sets them, but other JSON can be an object too.
_SMALL_SIZES = {
    "epochs": 1, "hidden": 8, "embedding": 8, "dropout-keep": 1, "measures": 1, "units": 1,
    "max-probes": 20,
}


# The commands that take --threads: those that run a thread pool.
_THREADED = {"reconstruct", "interpolate", "generate", "eval-rank50", "eval-nextunit"}


@st.composite
def _config_bytes(draw, keys=_CONFIG_KEYS, values=_JSON_VALUES, sizes=None, threads=False):
    """Config-file contents: a JSON object of known and unknown flags (with
    ``threads``, sometimes a --threads value), any other JSON document, text
    that is not JSON, or bytes that are not UTF-8."""
    shape = draw(st.sampled_from(["object", "object", "object", "json", "text", "bytes"]))
    if shape == "object":
        doc = draw(st.dictionaries(st.sampled_from(keys), values, max_size=4))
        if threads and draw(st.booleans()):
            doc["threads"] = draw(_THREADS)
        for name, size in (sizes or {}).items():
            doc[name] = draw(size)
        return json.dumps(doc).encode()
    if shape == "json":
        return json.dumps(draw(_JSON_VALUES)).encode()
    if shape == "text":
        return draw(st.text(max_size=20)).encode("utf-8", "surrogatepass")
    return draw(st.binary(max_size=20)) + b"\xff\xfe"


def _unset_sizes(data: bytes, sizes) -> list[str]:
    """Small explicit flags for the sizes that a config file does not set."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError):
        doc = None  # refused before any size is read
    given_keys = doc if isinstance(doc, dict) else {}
    return [f"--{name}={_SMALL_SIZES[name]}" for name in sizes if name not in given_keys]


# The small library's transpositions: 83 units, enough for a 50-unit pool.
_SMALL_SHIFTS = "--shifts=-6,-5,-4,-3,-2,-1,0,1,2,3,4,5,6"
# Each command's input flags; a word without "--" names the class fixture
# that makes the file. Commands not listed read the small corpus.
_FUZZ_INPUTS = {
    "train-ae": ["--library", "small_lib"],
    "generate": ["--seed-piece", "small_corpus", "--library", "small_lib",
                 "--dssm", "small_dssm", "--lm", "small_lm"],
    "generate-notes": ["--seed-piece", "small_corpus", "--lm", "small_lm"],
    "eval-rank50": ["--library", "small_lib", "--model", "small_ae"],
    "eval-nextunit": ["--corpus", "small_corpus", "--library", "small_lib",
                      "--dssm", "small_dssm", "--lm", "small_lm"],
    "reconstruct": ["--corpus", "small_corpus", "--library", "small_lib", "--model", "small_ae"],
    "interpolate": ["--corpus", "small_corpus", "--library", "small_lib", "--model", "small_ae",
                    "--piece-a=toy-2025-000", "--piece-b=toy-2025-002"],
}


def _artifact(tmp_path_factory, argv, artifact):
    out = tmp_path_factory.mktemp("fuzz-input")
    assert main([*argv, "--out", str(out)]) == 0
    return str(out / artifact)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory, fixture_corpus):
    path = tmp_path_factory.mktemp("fuzz") / "small.cor"
    pieces = tuple(Piece(p.id, p.measures[:4]) for p in fixture_corpus.pieces[:3])
    save_corpus(Corpus(pieces=pieces, meter=fixture_corpus.meter), path)
    return str(path)


@pytest.fixture(scope="module")
def small_lm(tmp_path_factory, small_corpus):
    return _artifact(
        tmp_path_factory,
        ["train-lm", "--corpus", small_corpus, "--shifts=0", "--epochs", "1", "--hidden", "8"],
        "lstm.model",
    )


@pytest.fixture(scope="module")
def small_lib(tmp_path_factory, small_corpus):
    return _artifact(
        tmp_path_factory,
        ["build-lib", "--corpus", small_corpus, "--mode", "transpose_only", _SMALL_SHIFTS],
        "library.lib",
    )


@pytest.fixture(scope="module")
def small_ae(tmp_path_factory, small_lib):
    return _artifact(
        tmp_path_factory,
        ["train-ae", "--library", small_lib, "--epochs", "1", "--hidden", "8",
         "--embedding", "8", "--dropout-keep", "1"],
        "autoencoder.model",
    )


@pytest.fixture(scope="module")
def small_dssm(tmp_path_factory, small_corpus):
    return _artifact(
        tmp_path_factory,
        ["train-dssm", "--corpus", small_corpus, _SMALL_SHIFTS, "--epochs", "1"],
        "dssm.model",
    )


def _small_inputs(request, command) -> list[str]:
    """The command's input flags, each naming its small file."""
    return [
        word if word.startswith("--") else request.getfixturevalue(word)
        for word in _FUZZ_INPUTS.get(command, ["--corpus", "small_corpus"])
    ]


class TestConfigFuzz:
    """Whatever a config file holds, every fuzzed command succeeds or exits 1
    with an error message and no warning; never an internal error."""

    @pytest.mark.parametrize("command", list(_FUZZED))
    def test_config_file_succeeds_or_is_a_user_error(self, request, tmp_path, capsys, command):
        keys, values, sizes = _FUZZED[command]
        inputs = _small_inputs(request, command)
        cfg = tmp_path / "cfg.json"

        @settings(
            deadline=None, max_examples=150,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(_config_bytes(keys, values, sizes, threads=command in _THREADED))
        @example(b'{"mul_constants": "1/0"}')
        @example(b'{"mul_constants": [2, "1/0"]}')
        @example(b"[" * 100_000 + b"]" * 100_000)
        @example(b'{"shifts": []}')
        @example(b'{"train_fraction": NaN, "seed": 1e999}')
        @example(b'{"learning_rate": NaN, "temperature": 0}')
        @example(b'{"learning_rate": 1e300, "epochs": 1, "hidden": 8}')
        @example(b'{"sample": true, "temperature": 1e-300, "measures": 1}')
        @example(b'{"negatives": 3000, "epochs": 1, "hidden": 8, "embedding": 8}')
        @example(b'{"regimes": "dssm,nonsense", "max-probes": 20}')
        def check(data):
            cfg.write_bytes(data)
            capsys.readouterr()
            with _warnings_on_stderr():
                code = main([command, *inputs, *_unset_sizes(data, sizes),
                             "--out", str(tmp_path / "o"), "--config", str(cfg)])
            err = capsys.readouterr().err
            assert code in (0, 1), err
            assert "Traceback" not in err
            if code == 1:
                assert "error:" in err
                assert "Warning" not in err, err

        check()


def _recording(args: argparse.Namespace):
    """A copy of ``args`` that records the name of every attribute read, and
    the set it records them in."""
    read: set[str] = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    return Recording(**vars(args)), read


# Read outside the commands: --out and --config by main.
_UNREAD_ALLOWED = {"out", "config"}


class TestEveryFlagReachesItsCommand:
    @pytest.mark.parametrize("command", list(_FUZZED))
    def test_every_parsed_flag_is_read(self, request, tmp_path, command):
        sizes = [f"--{name}={_SMALL_SIZES[name]}" for name in _FUZZED[command][2]]
        out = tmp_path / "o"
        args = build_parser().parse_args(
            [command, *_small_inputs(request, command), *sizes, "--out", str(out)]
        )
        recorded, read = _recording(args)
        out.mkdir()
        run_command(recorded, out)
        # the subcommand's name and its function are set by the parser, not flags
        flags = set(vars(args)) - {"command", "func"}
        assert flags - read - _UNREAD_ALLOWED == set()


class TestTrainingUserErrors:
    def test_zero_denominator_flag_is_a_user_error(self, tmp_path, capsys):
        code = main(["build-lib", "--corpus", CORPUS, "--out", str(tmp_path / "o"),
                     "--mul-constants", "1/2,1/0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err

    def test_dropout_zeroed_row_is_a_user_error(self, tmp_path, capsys):
        code = main(["train-dssm", "--corpus", CORPUS, "--out", str(tmp_path / "o"),
                     "--shifts=0", "--epochs", "1", "--dropout-keep", "0.05", "--seed", "7"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: cannot train the relevance model: epoch 1, batch 1:" in err
        assert "dropout zeroed a whole row" in err and "Traceback" not in err

    def test_corpus_without_a_two_note_piece_is_a_user_error(self, tmp_path, capsys):
        whole = Measure((Note(60, Fraction(1)),), Fraction(1))
        path = tmp_path / "one-note.cor"
        pieces = (Piece("a", (whole,)), Piece("b", (whole,)))
        save_corpus(Corpus(pieces=pieces, meter=Fraction(1)), path)
        out = tmp_path / "o"
        code = main(["train-lm", "--corpus", str(path), "--out", str(out), "--shifts=0",
                     "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "error: cannot train the note model:" in err and "Traceback" not in err
        assert not (out / "lstm.model").exists()

    @pytest.mark.parametrize("shifts", ["--shifts=", "--shifts=99"])
    def test_library_of_no_units_is_not_saved(self, tmp_path, capsys, shifts):
        out = tmp_path / "o"
        code = main(["build-lib", "--corpus", CORPUS, "--out", str(out), shifts])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "error:" in err and "--shifts" in err and "Traceback" not in err
        assert not (out / "library.lib").exists()

    def test_training_on_a_library_of_no_units_is_a_user_error(self, tmp_path, capsys):
        path = tmp_path / "empty.lib"
        header = json.dumps({"count": 0, "meter": [1, 1], "unit_length": 1})
        path.write_text(f"{LIBRARY_MAGIC}\n{header}\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(["train-ae", "--library", str(path), "--out", str(out), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "error: cannot train the autoencoder:" in err and "Traceback" not in err
        assert not (out / "autoencoder.model").exists()

    @pytest.mark.parametrize("command", ["train-ae", "train-dssm"])
    def test_more_negatives_than_cases_is_a_user_error(self, tmp_path, capsys, command):
        if command == "train-ae":
            assert main(["build-lib", "--corpus", CORPUS, "--out", str(tmp_path / "lib"),
                         "--mode", "transpose_only", "--shifts=0"]) == 0
            inputs = ["--library", str(tmp_path / "lib" / "library.lib")]
        else:
            inputs = ["--corpus", CORPUS, "--shifts=0"]
        capsys.readouterr()
        out = tmp_path / "o"
        code = main([command, *inputs, "--out", str(out), "--epochs", "1",
                     "--negatives", "100000"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "error: cannot train the" in err and "100000 negatives" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


def _bad_flag_cases():
    """One case per flag value no command can run with: the command line
    (built from the pipeline's files, so only the flag is wrong), the flag
    and the value."""
    train = {
        "train-ae": lambda p: ["train-ae", "--library", p["lib"]],
        "train-dssm": lambda p: ["train-dssm", "--corpus", p["train"], "--shifts=0"],
        "train-lm": lambda p: ["train-lm", "--corpus", p["train"], "--shifts=0"],
    }
    generate = lambda p: [
        "generate", "--seed-piece", p["test"], "--library", p["lib"],
        "--dssm", p["dssm"], "--lm", p["lm"],
    ]
    notes = lambda p: ["generate-notes", "--seed-piece", p["test"], "--lm", p["lm"]]
    rank50 = lambda p: ["eval-rank50", "--library", p["lib"], "--model", p["ae"]]
    nextunit = lambda p: [
        "eval-nextunit", "--corpus", p["test"], "--library", p["lib"],
        "--dssm", p["dssm"], "--lm", p["lm"],
    ]
    cases = [
        ("train-lm-hidden-0", train["train-lm"], "--hidden", "0"),
        ("train-lm-hidden-negative", train["train-lm"], "--hidden", "-3"),
        ("train-lm-learning-rate-nan", train["train-lm"], "--learning-rate", "nan"),
        ("generate-shortlist-fraction-0", generate, "--shortlist-fraction", "0"),
        ("generate-temperature-0", generate, "--temperature", "0"),
        ("generate-units-negative", generate, "--units", "-1"),
        ("generate-notes-temperature-0", notes, "--temperature", "0"),
        ("eval-rank50-max-probes-negative", rank50, "--max-probes", "-1"),
        ("eval-nextunit-max-probes-negative", nextunit, "--max-probes", "-1"),
    ]
    for command, argv in train.items():
        for flag, value in (
            ("--batch-size", "0"), ("--epochs", "0"), ("--negatives", "0"),
            ("--dropout-keep", "0"), ("--dropout-keep", "1.5"),
        ):
            if (command, flag) != ("train-lm", "--negatives"):  # train-lm has no --negatives
                cases.append((f"{command}{flag}-{value}", argv, flag, value))
    return [pytest.param(argv, flag, value, id=case_id) for case_id, argv, flag, value in cases]


# The pipeline's input files of each command that has no --threads.
_UNTHREADED_INPUTS = {
    "split": lambda p: ["--corpus", p["train"]],
    "build-lib": lambda p: ["--corpus", p["train"]],
    "train-ae": lambda p: ["--library", p["lib"]],
    "train-dssm": lambda p: ["--corpus", p["train"], "--shifts=0"],
    "train-lm": lambda p: ["--corpus", p["train"], "--shifts=0"],
    "generate-notes": lambda p: ["--seed-piece", p["test"], "--lm", p["lm"]],
}
# The same for the commands that have --threads but no --seed.
_UNSEEDED_INPUTS = {
    "reconstruct": lambda p: ["--corpus", p["test"], "--library", p["lib"], "--model", p["ae"]],
    "interpolate": lambda p: ["--corpus", p["test"], "--library", p["lib"], "--model", p["ae"],
                              "--piece-a=a", "--piece-b=b"],
}


class TestBadFlagValues:
    @pytest.mark.parametrize("argv,flag,value", _bad_flag_cases())
    def test_bad_value_is_a_user_error_naming_the_flag(
        self, pipeline, tmp_path, capsys, argv, flag, value
    ):
        out = tmp_path / "o"
        code = main([*argv(pipeline), flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: argument {flag}: must be" in err and "Traceback" not in err
        assert not out.exists()

    # train-dssm and train-lm read the corpus at its transpositions only,
    # train-lm reads neither units nor negatives, only the commands that run
    # a thread pool read --threads, and build-lib, reconstruct and
    # interpolate draw no random stream, so these flags are gone
    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command in ("train-dssm", "train-lm")
            for flag in ("--add-constants=5", "--mul-constants=3", "--no-double-time")
        ]
        + [("train-lm", "--unit-length=4"), ("train-lm", "--negatives=9")]
        + [(command, "--threads=2") for command in _UNTHREADED_INPUTS]
        + [(command, "--seed=7") for command in ("build-lib", *_UNSEEDED_INPUTS)],
    )
    def test_removed_flag_is_a_user_error_naming_it(
        self, pipeline, tmp_path, capsys, command, flag
    ):
        out = tmp_path / "o"
        inputs = {**_UNTHREADED_INPUTS, **_UNSEEDED_INPUTS}[command](pipeline)
        code = main([command, *inputs, flag, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and flag in err and "Traceback" not in err
        assert not out.exists()

    def test_diverged_training_saves_no_model(self, tmp_path, capsys):
        # a finite rate this large sends the relevance model's weights to NaN
        out = tmp_path / "o"
        code = main(["train-dssm", "--corpus", CORPUS, "--out", str(out), "--shifts=0",
                     "--epochs", "2", "--learning-rate", "1e300", "--seed", "7"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: training diverged" in err and "--learning-rate" in err
        assert "Traceback" not in err
        assert not (out / "dssm.model").exists()


class TestWarnings:
    def test_a_user_error_prints_only_its_error_line(self, tmp_path, capsys):
        # the diverging run raises numpy RuntimeWarnings before it is refused
        with _warnings_on_stderr():
            code = main(["train-dssm", "--corpus", CORPUS, "--out", str(tmp_path / "o"),
                         "--shifts=0", "--epochs", "1", "--learning-rate", "1e300"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "error: training diverged to non-finite weights; lower --learning-rate"
        ]

    def test_a_successful_run_still_prints_its_warnings(self, tmp_path, capsys, monkeypatch):
        # train-lm refuses the huge rates whose infinite perplexity warned,
        # so the trainer is wrapped to warn on a run that succeeds
        def warning_train_lm(*args, **kwargs):
            warnings.warn("divide by zero encountered in log", RuntimeWarning)
            return train_lm(*args, **kwargs)

        monkeypatch.setattr(cli, "train_lm", warning_train_lm)
        out = tmp_path / "o"
        with _warnings_on_stderr():
            code = main(["train-lm", "--corpus", CORPUS, "--out", str(out), "--shifts=0",
                         "--epochs", "1", "--hidden", "8", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        assert "RuntimeWarning: divide by zero encountered in log" in captured.err
        assert captured.out.startswith("trained note model (vocab 19, final perplexity ")
        assert captured.out.endswith(f") -> {out / 'lstm.model'}\n")
        assert (out / "manifest.json").exists()


class TestThreadCount:
    # Only counts below 1 are run here: a large count would start that many
    # threads. The input files are missing: the bad value is reported first.
    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_thread_count_below_one_is_a_user_error(self, tmp_path, capsys, count, source):
        if source == "flag":
            extra = ["--threads", count]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"threads": int(count)}))
            extra = ["--config", str(cfg)]
        out = tmp_path / "o"
        code = main(["eval-rank50", "--library", "no.lib", "--model", "no.model",
                     "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "--threads" in err and "Traceback" not in err
        assert not out.exists()


# Commands whose every input file is missing: a bad flag value must be
# reported first, before any input is read.
_LIST_AND_FRACTION_FLAGS = [
    pytest.param(
        ["eval-nextunit", "--corpus", "no.cor", "--library", "no.lib", "--dssm", "no.model",
         "--lm", "no.model"],
        "regimes", value, id=f"regimes-{case}",
    )
    for case, value in [("unknown", "foo"), ("repeated", "lstm,lstm,dssm"), ("empty-name", "lstm,")]
] + [
    pytest.param(
        ["interpolate", "--corpus", "no.cor", "--library", "no.lib", "--model", "no.model",
         "--piece-a", "a", "--piece-b", "b"],
        "alphas", value, id=f"alphas-{case}",
    )
    for case, value in [
        ("above-1", "0,1.5"), ("negative", "-0.25"), ("nan", "0.5,nan"),
        ("repeated", "0.5,0.5"), ("same-piece-id", "0.001,0.002"),
    ]
] + [
    pytest.param(
        ["split", "--corpus", "no.cor"], "train-fraction", value, id=f"train-fraction-{value}"
    )
    for value in ["0", "1", "1.5", "nan"]
]


class TestListAndFractionFlags:
    @pytest.mark.parametrize("argv,flag,value", _LIST_AND_FRACTION_FLAGS)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_value_is_a_user_error_naming_the_flag(
        self, tmp_path, capsys, argv, flag, value, source
    ):
        if source == "flag":
            extra = [f"--{flag}={value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag.replace("-", "_"): value.split(",")}))
            extra = ["--config", str(cfg)]
        out = tmp_path / "o"
        code = main([*argv, "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: argument --{flag}: must be" in err and "Traceback" not in err
        assert not out.exists()


# Each command's required flags; parsing reads none of their values.
_REQUIRED_FLAGS = {
    "split": ["--corpus"],
    "build-lib": ["--corpus"],
    "train-ae": ["--library"],
    "train-dssm": ["--corpus"],
    "train-lm": ["--corpus"],
    "reconstruct": ["--corpus", "--library", "--model"],
    "interpolate": ["--corpus", "--library", "--model", "--piece-a", "--piece-b"],
    "generate": ["--seed-piece", "--library", "--dssm", "--lm"],
    "generate-notes": ["--seed-piece", "--lm"],
    "eval-rank50": ["--library", "--model"],
    "eval-nextunit": ["--corpus", "--library", "--dssm", "--lm"],
}
# The library value that each flag's default feeds.
_LIBRARY_DEFAULTS = {
    "learning_rate": TrainConfig.learning_rate,
    "dropout_keep": TrainConfig.dropout_keep,
    "epochs": TrainConfig.epochs,
    "batch_size": TrainConfig.batch_size,
    "negatives": TrainConfig.negatives,
    "seed": TrainConfig.seed,
    "shortlist_fraction": GenerationConfig.shortlist_fraction,
    "temperature": GenerationConfig.temperature,
    "sample": GenerationConfig.mode == SAMPLED,
    "unit_length": AugmentConfig.unit_length,
    "shifts": AugmentConfig.transpose_shifts,
    "add_constants": AugmentConfig.interval_add_constants,
    "mul_constants": AugmentConfig.interval_mul_constants,
    "no_double_time": not AugmentConfig.enable_double_time,
    "mode": AugmentConfig.mode,
}
# The model whose hyperparameter table holds a command's size defaults.
_MODEL_OF = {"train-ae": AutoencoderModel, "train-lm": LmModel}
# Defaults that no library function or config holds.
_CLI_ONLY = {"threads", "train_fraction", "units", "measures", "max_probes", "regimes", "alphas"}


class TestFlagDefaults:
    def test_every_command_is_listed(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        assert set(commands) == set(_REQUIRED_FLAGS)

    @pytest.mark.parametrize("command", list(_REQUIRED_FLAGS))
    def test_each_default_is_the_library_value_it_feeds(self, command):
        required = _REQUIRED_FLAGS[command]
        args = build_parser().parse_args([command, "--out=o", *(f"{f}=x" for f in required)])
        given = {"command", "func", "out", "config"} | {f[2:].replace("-", "_") for f in required}
        hyperparameters = getattr(_MODEL_OF.get(command), "hyperparameters", {})
        # --seed feeds a TrainConfig or a GenerationConfig, whose defaults agree
        assert GenerationConfig.seed == TrainConfig.seed
        for name, value in vars(args).items():
            if name in given:
                continue
            if name in hyperparameters:
                expected = hyperparameters[name]
            else:
                assert name in _LIBRARY_DEFAULTS or name in _CLI_ONLY, name
                expected = _LIBRARY_DEFAULTS.get(name, value)
            assert (type(value), value) == (type(expected), expected), name


def _readme_commands() -> list[list[str]]:
    """Every ``unitsel ...`` command line of README.md, continuation lines
    joined, as the argument words after ``unitsel``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("unitsel ")]


class TestReadmeCommands:
    def test_the_walkthrough_runs_every_command(self):
        assert {argv[0] for argv in _readme_commands()} == set(_REQUIRED_FLAGS)

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_readme_command_parses(self, argv, capsys):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"unitsel {' '.join(argv)}: {capsys.readouterr().err}")
