"""Command-line surface for the unit-selection pipeline.

Every subcommand writes its artifacts plus a manifest.json (resolved
config, config hash, input-file hashes, seed where the command takes one)
into the output directory, so any artifact can be regenerated bit-exactly
from the manifest and the inputs; ``main`` runs every command. Exit codes: 0 success, 1 user error,
2 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
import warnings
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, load_trained
from ._util import (
    WriteError,
    _write_errors,
    canonical_json,
    decode_json,
    file_sha256,
    read_text,
    sha256_hex,
    write_json,
    write_text,
)
from .augment import FULL, TRANSPOSE_ONLY, AugmentConfig, build_library, transpose_corpus
from .autoencoder import (
    AutoencoderModel,
    collision_rate,
    embed_library,
    interpolate,
    rank_at_50,
    reconstruct,
    train_autoencoder,
)
from .corpus import (
    ArchiveError,
    CorpusFormatError,
    CorpusValidationError,
    load_corpus,
    load_library,
    save_corpus,
    save_library,
    save_model,
    split_corpus,
    Corpus,
)
from .dssm import make_training_pairs, train_dssm
from .engine import (
    DETERMINISTIC,
    SAMPLED,
    GenerationConfig,
    continue_piece,
    continue_piece_notes,
)
from .evaluation import REGIME_ORDER, next_unit_ranking, report
from .features import build_vocab
from .lm import LmModel, build_note_vocab, tokenize, train_lm
from .music import UNIT_LENGTHS, Piece, slice_units
from .nn import TrainConfig, stream_rng


class UserError(Exception):
    """Anything the operator can fix: bad paths, bad flags, bad data."""


def _fraction_arg(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            # a ValueError, which argparse reports as a bad flag value
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _bounded(convert, ok, requirement: str):
    """A flag type that also refuses the values no command can run with."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_COUNT = _bounded(int, lambda v: v >= 1, "at least 1")
_OPTIONAL_COUNT = _bounded(int, lambda v: v >= 0, "at least 0")
_SHARE = _bounded(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_POSITIVE = _bounded(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_OPEN_SHARE = _bounded(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction_arg(v) for v in text.split(",") if v.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _load_checked(path: str, kind: str):
    """Load a "corpus", a "library" or a model of ``kind``; any failure is a UserError."""
    try:
        if kind == "corpus":
            return load_corpus(path)
        return load_library(path) if kind == "library" else load_trained(path, kind)
    except (CorpusFormatError, CorpusValidationError) as exc:
        raise UserError(f"invalid corpus {path}: {exc}") from exc
    except ArchiveError as exc:
        raise UserError(str(exc)) from exc


@contextmanager
def _user_error(prefix: str = ""):
    """Report a ValueError raised inside as a UserError, its text after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise UserError(f"{prefix}{exc}") from exc


def _save_trained(model, out: Path, uniform: float) -> Path:
    """Save a trained model unless it diverged, since no command could load
    it, and beside it ``curves.json``: its curve and ``uniform``, the score
    of a uniform guess. Returns the archive's path."""
    if not all(np.isfinite(p).all() for p in model.params):
        raise UserError("training diverged to non-finite weights; lower --learning-rate")
    path = out / f"{model.kind}.model"
    save_model(model.to_archive(), path)
    write_json({model.curve: getattr(model, model.curve), "uniform": uniform}, out / "curves.json")
    return path


# Each flag that names an input file: the kind of file it holds and its
# help, in the order a command loads them. The manifest hashes each one.
_INPUTS = {
    "corpus": ("corpus", "corpus file"),
    "seed_piece": ("corpus", "corpus file of seed pieces"),
    "library": ("library", "unit library file"),
    "model": ("autoencoder", "autoencoder archive"),
    "dssm": ("dssm", "relevance model archive"),
    "lm": ("lstm", "note LSTM archive"),
}
# The input flags of the feature models that embed a command's library.
_EMBEDDERS = ("model", "dssm")


def _write_manifest(args, out: Path) -> None:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "config") and not callable(v)
    }
    # str() writes the Fractions of --mul-constants as "1/2"
    config = json.loads(json.dumps(config, default=str))
    manifest = {
        "command": args.command,
        "package_version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        "config_hash": sha256_hex(canonical_json(config)),
        "input_hashes": {
            name: file_sha256(getattr(args, name)) for name in _INPUTS if hasattr(args, name)
        },
    }
    write_json(manifest, out / "manifest.json")


def _transposed_corpus(args, corpus: Corpus):
    """The sequence models' material: the corpus at its --shifts only, and the config."""
    cfg = AugmentConfig(
        unit_length=getattr(args, "unit_length", AugmentConfig.unit_length),
        transpose_shifts=args.shifts,
        mode=TRANSPOSE_ONLY,
    )
    return transpose_corpus(corpus, cfg), cfg


def _train_config(args) -> TrainConfig:
    """Training settings from the flags; train-lm has no --negatives."""
    return TrainConfig(
        learning_rate=args.learning_rate,
        dropout_keep=args.dropout_keep,
        negatives=getattr(args, "negatives", TrainConfig.negatives),
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )


def _generation_config(args) -> GenerationConfig:
    """Selection settings from the flags; generate-notes has no --shortlist-fraction."""
    default = GenerationConfig.shortlist_fraction
    return GenerationConfig(
        shortlist_fraction=getattr(args, "shortlist_fraction", default),
        mode=SAMPLED if args.sample else DETERMINISTIC,
        temperature=args.temperature,
        seed=args.seed,
    )


def _each_piece(corpus: Corpus, make, verb: str) -> list[Piece]:
    """``make(piece)`` for every piece; a ValueError names the piece."""
    pieces = []
    for piece in corpus.pieces:
        with _user_error(f"cannot {verb} {piece.id}: "):
            pieces.append(make(piece))
    return pieces


def _save_pieces(pieces: list[Piece], meter, path: Path) -> None:
    save_corpus(Corpus(pieces=tuple(pieces), meter=meter), path)


def _max_probes(probes: list, args, stream: str) -> list:
    """At most --max-probes of ``probes`` (0 keeps all), in order, drawn from ``stream``."""
    if args.max_probes and len(probes) > args.max_probes:
        sel = stream_rng(args.seed, stream).choice(len(probes), size=args.max_probes, replace=False)
        probes = [probes[i] for i in sorted(sel)]
    return probes


def cmd_build_lib(args, inputs: dict, out: Path) -> str:
    cfg = AugmentConfig(
        unit_length=args.unit_length,
        transpose_shifts=args.shifts,
        interval_add_constants=args.add_constants,
        interval_mul_constants=args.mul_constants,
        enable_double_time=not args.no_double_time,
        mode=args.mode,
    )
    lib = build_library(inputs["corpus"], cfg)
    if not lib.units:
        raise UserError("the library would have no units; check --shifts and --unit-length")
    save_library(lib, out / "library.lib")
    return f"built library of {len(lib)} units -> {out / 'library.lib'}"


def cmd_train_ae(args, inputs: dict, out: Path) -> str:
    lib = inputs["library"]
    with _user_error("cannot train the autoencoder: "):
        vocab = build_vocab(lib)
        model = train_autoencoder(
            lib, vocab, _train_config(args), hidden=args.hidden, embedding=args.embedding
        )
    path = _save_trained(model, out, math.log(1 + args.negatives))
    return (
        f"trained autoencoder ({args.epochs} epochs, final loss "
        f"{model.loss_curve[-1]:.4f}) -> {path}"
    )


def cmd_train_dssm(args, inputs: dict, out: Path) -> str:
    tcorp, cfg = _transposed_corpus(args, inputs["corpus"])
    with _user_error():
        pairs = make_training_pairs(tcorp, args.unit_length)
        vocab = build_vocab(build_library(tcorp, cfg))
    with _user_error("cannot train the relevance model: "):
        model = train_dssm(pairs, vocab, _train_config(args))
    path = _save_trained(model, out, math.log(1 + args.negatives))
    return (
        f"trained relevance model on {len(pairs)} pairs (final loss "
        f"{model.loss_curve[-1]:.4f}) -> {path}"
    )


def cmd_train_lm(args, inputs: dict, out: Path) -> str:
    tcorp, _ = _transposed_corpus(args, inputs["corpus"])
    vocab = build_note_vocab(tcorp)
    streams = [tokenize(p, vocab) for p in tcorp.pieces]
    with _user_error("cannot train the note model: "):
        model = train_lm(streams, vocab, _train_config(args), hidden=args.hidden)
    # a uniform guess scores V; short honest runs end near it
    final, bound = model.perplexity_curve[-1], 10 * vocab.size
    if not final <= bound:  # also refuses NaN
        raise UserError(
            f"the note model's final perplexity {final:.4g} is above the bound {bound} "
            f"(10 x the vocabulary size {vocab.size}), so it was not saved; "
            "lower --learning-rate"
        )
    path = _save_trained(model, out, vocab.size)
    return (
        f"trained note model (vocab {vocab.size}, final perplexity "
        f"{model.perplexity_curve[-1]:.2f}) -> {path}"
    )


def cmd_reconstruct(args, inputs: dict, out: Path) -> str:
    corpus, elib, model = inputs["corpus"], inputs["embedded"], inputs["model"]
    pieces = _each_piece(corpus, lambda p: reconstruct(p, elib, model), "reconstruct")
    _save_pieces(pieces, corpus.meter, out / "reconstructed.cor")
    return f"reconstructed {len(pieces)} pieces -> {out / 'reconstructed.cor'}"


def cmd_interpolate(args, inputs: dict, out: Path) -> str:
    corpus, elib, model = inputs["corpus"], inputs["embedded"], inputs["model"]
    by_id = {p.id: p for p in corpus.pieces}
    for which in (args.piece_a, args.piece_b):
        if which not in by_id:
            raise UserError(f"piece {which!r} not in {args.corpus}")
    length = inputs["library"].unit_length

    def head_unit(piece_id: str):
        piece = by_id[piece_id]
        units = slice_units(piece, length)
        if not units:
            raise UserError(f"piece {piece_id!r} is shorter than one unit")
        return units[0]

    a, b = head_unit(args.piece_a), head_unit(args.piece_b)
    pieces = []
    for alpha in args.alphas:
        with _user_error():
            unit = interpolate(a, b, float(alpha), elib, model)
        pieces.append(Piece(id=f"interp-{float(alpha):.2f}", measures=unit.measures))
    _save_pieces(pieces, corpus.meter, out / "interpolated.cor")
    return f"interpolated {len(pieces)} blends -> {out / 'interpolated.cor'}"


def cmd_generate(args, inputs: dict, out: Path) -> str:
    seed_corpus, elib = inputs["seed_piece"], inputs["embedded"]
    cfg = _generation_config(args)
    audit: list = []

    def extend(p: Piece) -> Piece:
        records: list = []
        piece = continue_piece(p, args.units, elib, inputs["dssm"], inputs["lm"], cfg, audit=records)
        for record in records:
            record["piece"] = p.id
        audit.extend(records)
        return piece

    pieces = _each_piece(seed_corpus, extend, "extend")
    _save_pieces(pieces, seed_corpus.meter, out / "generated.cor")
    write_json(audit, out / "audit.json")
    return f"generated {len(pieces)} pieces -> {out / 'generated.cor'}"


def cmd_generate_notes(args, inputs: dict, out: Path) -> str:
    seed_corpus, lm_model = inputs["seed_piece"], inputs["lm"]
    cfg = _generation_config(args)
    pieces = _each_piece(
        seed_corpus, lambda p: continue_piece_notes(p, args.measures, lm_model, cfg), "extend"
    )
    _save_pieces(pieces, seed_corpus.meter, out / "generated-notes.cor")
    return f"generated {len(pieces)} pieces -> {out / 'generated-notes.cor'}"


def cmd_eval_rank50(args, inputs: dict, out: Path) -> str:
    elib, model = inputs["embedded"], inputs["model"]
    probes = _max_probes(list(inputs["library"].units), args, "rank50-probes")
    with _user_error():
        mean_rank, accuracy = rank_at_50(model, elib, probes, args.seed)
    collisions = collision_rate(elib, threads=args.threads)
    result = {
        "mean_rank_at_50": mean_rank,
        "accuracy_at_50": accuracy,
        "collision_rate_per_100k": collisions,
        "probe_count": len(probes),
        "seed": args.seed,
    }
    text = (
        f"mean rank @ 50      {mean_rank:.4f}\n"
        f"accuracy @ 50       {100.0 * accuracy:.2f}%\n"
        f"collisions per 100k {collisions:.1f}\n"
        f"probes              {len(probes)}\n"
    )
    write_text(out / "rank50.txt", text)
    write_json(result, out / "rank50.json")
    return text


def cmd_eval_nextunit(args, inputs: dict, out: Path) -> str:
    elib, dssm_model, lm_model = inputs["embedded"], inputs["dssm"], inputs["lm"]
    probes = make_training_pairs(inputs["corpus"], inputs["library"].unit_length, strict=False)
    if not probes:
        raise UserError("corpus yields no probe pairs at this unit length")
    probes = _max_probes(probes, args, "nextunit-probes")
    with _user_error():
        rows = [
            next_unit_ranking(
                probes, elib, dssm_model, lm_model, regime, args.seed, threads=args.threads
            )
            for regime in args.regimes
        ]
    return report(rows, out / "report.txt")


def cmd_split(args, inputs: dict, out: Path) -> str:
    corpus = inputs["corpus"]
    with _user_error():
        train, test = split_corpus(corpus, args.train_fraction, args.seed)
    save_corpus(train, out / "train.cor")
    save_corpus(test, out / "test.cor")
    return f"split {len(corpus.pieces)} pieces -> {len(train.pieces)} train / {len(test.pieces)} test"


def run_command(args, out: Path) -> str:
    """Load each input file the command has, in ``_INPUTS`` order, embed the
    library with the command's feature model, if it has one, and return
    ``cmd_*(args, inputs, out)``: ``inputs`` maps each input flag to its
    loaded file and, where there is one, "embedded" to the embedded library."""
    inputs = {
        name: _load_checked(getattr(args, name), kind)
        for name, (kind, _) in _INPUTS.items()
        if hasattr(args, name)
    }
    for name in _EMBEDDERS:
        if name in inputs:
            with _user_error("cannot embed the library: "):
                inputs["embedded"] = embed_library(inputs[name], inputs["library"], args.threads)
    return args.func(args, inputs, out)


def _add_common(p: argparse.ArgumentParser, *inputs: str, seed: bool = True) -> None:
    """--out, the required input flags (names of ``_INPUTS``), --seed where a
    random stream is drawn, --threads where a library is embedded, --config."""
    p.add_argument("--out", required=True, help="output directory for artifacts")
    for name in inputs:
        p.add_argument(f"--{name.replace('_', '-')}", required=True, help=_INPUTS[name][1])
    if seed:
        p.add_argument("--seed", type=int, default=0, help="global random seed")
    if set(inputs) & set(_EMBEDDERS):
        help_text = "worker threads for embedding and batched scoring"
        p.add_argument("--threads", type=_COUNT, default=1, help=help_text)
    p.add_argument("--config", help="JSON file of flag defaults (flags win)")


def _add_shifts(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--shifts",
        type=_int_list,
        default=None,
        help="comma-separated transpose shifts (default: all in-range)",
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The TrainConfig flags of every trainer, at its defaults."""
    p.add_argument("--learning-rate", type=_POSITIVE, default=TrainConfig.learning_rate)
    p.add_argument("--dropout-keep", type=_SHARE, default=TrainConfig.dropout_keep)
    p.add_argument("--epochs", type=_COUNT, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=_COUNT, default=TrainConfig.batch_size)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitsel",
        description="Unit-selection melody engine: build libraries, train models, "
        "reconstruct, generate, and evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"unitsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-lib", help="build a unit library from a corpus")
    _add_common(p, "corpus", seed=False)
    p.add_argument("--unit-length", type=int, default=AugmentConfig.unit_length, choices=UNIT_LENGTHS)
    _add_shifts(p)
    p.add_argument(
        "--add-constants", type=_int_list, default=AugmentConfig.interval_add_constants,
        help="interval addition constants (full mode)",
    )
    p.add_argument(
        "--mul-constants", type=_fraction_list, default=AugmentConfig.interval_mul_constants,
        help="interval multiplication constants, e.g. 1/2,2 (full mode)",
    )
    p.add_argument("--no-double-time", action="store_true")
    p.add_argument("--mode", choices=(FULL, TRANSPOSE_ONLY), default=FULL)
    p.set_defaults(func=cmd_build_lib)

    p = sub.add_parser("train-ae", help="train the autoencoder on a library")
    _add_common(p, "library")
    _add_train_flags(p)
    p.add_argument("--negatives", type=_COUNT, default=TrainConfig.negatives)
    for name, default in AutoencoderModel.hyperparameters.items():
        p.add_argument(f"--{name}", type=_COUNT, default=default)
    p.set_defaults(func=cmd_train_ae)

    p = sub.add_parser("train-dssm", help="train the successor-relevance model")
    _add_common(p, "corpus")
    p.add_argument("--unit-length", type=int, default=AugmentConfig.unit_length, choices=UNIT_LENGTHS)
    _add_shifts(p)
    _add_train_flags(p)
    p.add_argument("--negatives", type=_COUNT, default=TrainConfig.negatives)
    p.set_defaults(func=cmd_train_dssm)

    p = sub.add_parser("train-lm", help="train the note-level language model")
    _add_common(p, "corpus")
    _add_shifts(p)
    _add_train_flags(p)
    p.add_argument("--hidden", type=_COUNT, default=LmModel.hyperparameters["hidden"])
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("reconstruct", help="reconstruct pieces by unit selection")
    _add_common(p, "corpus", "library", "model", seed=False)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("interpolate", help="blend two units in embedding space")
    _add_common(p, "corpus", "library", "model", seed=False)
    p.add_argument("--piece-a", required=True)
    p.add_argument("--piece-b", required=True)
    p.add_argument(
        "--alphas",
        type=_bounded(  # each names its piece by two decimals, interp-0.25
            _float_list,
            lambda vs: all(0 <= v <= 1 for v in vs) and len({f"{v:.2f}" for v in vs}) == len(vs),
            "values in [0, 1] that differ in two decimals",
        ),
        default=(0.0, 0.25, 0.5, 0.75, 1.0),
    )
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("generate", help="extend a seed piece by unit selection")
    _add_common(p, "seed_piece", "library", "dssm", "lm")
    p.add_argument("--units", type=_COUNT, default=4)
    p.add_argument("--shortlist-fraction", type=_SHARE, default=GenerationConfig.shortlist_fraction)
    p.add_argument("--sample", action="store_true", help="sample instead of argmax")
    p.add_argument("--temperature", type=_POSITIVE, default=GenerationConfig.temperature)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("generate-notes", help="extend a seed piece note by note")
    _add_common(p, "seed_piece", "lm")
    p.add_argument("--measures", type=_COUNT, default=4)
    p.add_argument("--sample", action="store_true")
    p.add_argument("--temperature", type=_POSITIVE, default=GenerationConfig.temperature)
    p.set_defaults(func=cmd_generate_notes)

    p = sub.add_parser("eval-rank50", help="identity-retrieval ranking of a library")
    _add_common(p, "library", "model")
    p.add_argument("--max-probes", type=_OPTIONAL_COUNT, default=0, help="0 = all units")
    p.set_defaults(func=cmd_eval_rank50)

    p = sub.add_parser("eval-nextunit", help="next-unit ranking on held-out pieces")
    _add_common(p, "corpus", "library", "dssm", "lm")
    p.add_argument(
        "--regimes",
        type=_bounded(
            lambda t: tuple(v.strip() for v in t.split(",")),
            lambda rs: set(rs) <= set(REGIME_ORDER) and len(set(rs)) == len(rs),
            f"distinct names among {', '.join(REGIME_ORDER)}",
        ),
        default=("lstm", "dssm", "dssm+lstm"),
        help=f"comma-separated subset of {', '.join(REGIME_ORDER)}",
    )
    p.add_argument("--max-probes", type=_OPTIONAL_COUNT, default=0)
    p.set_defaults(func=cmd_eval_nextunit)

    p = sub.add_parser("split", help="deterministic train/test corpus split")
    _add_common(p, "corpus")
    p.add_argument("--train-fraction", type=_OPEN_SHARE, default=0.6)
    p.set_defaults(func=cmd_split)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Config file supplies defaults; explicit flags win.

    The path is given as ``--config PATH`` or ``--config=PATH``. Each value
    is injected as one ``--flag=value`` word, so a value that starts with
    "-" is not read as a flag; a JSON list is joined with commas.
    """
    for at, word in enumerate(argv):
        if word == "--config":
            if at + 1 >= len(argv):
                raise UserError("--config needs a file path")
            cfg_path = Path(argv[at + 1])
            break
        if word.startswith("--config="):
            cfg_path = Path(word[len("--config=") :])
            break
    else:
        return argv
    overrides = decode_json(read_text(cfg_path, UserError), UserError, f"config file {cfg_path}")
    if not isinstance(overrides, dict):
        raise UserError("config file must hold a JSON object of flag values")
    injected: list[str] = []
    for key, value in overrides.items():
        flag = f"--{key.replace('_', '-')}"
        if flag in argv:
            continue  # explicit flag wins
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        elif isinstance(value, list):
            injected.append(f"{flag}={','.join(str(v) for v in value)}")
        else:
            injected.append(f"{flag}={value}")
    # insert after the subcommand so argparse scopes them correctly
    return argv[:1] + injected + argv[1:] if injected else argv


# The flags that size a model, in the order they are named.
_SIZE_FLAGS = ("hidden", "embedding")


def _out_of_memory(args, exc: MemoryError) -> str:
    """The message of a run the machine cannot hold, naming the size flags
    the command read and their values."""
    sizes = ", ".join(f"--{h} {getattr(args, h)}" for h in _SIZE_FLAGS if hasattr(args, h))
    at = f" at {sizes}; smaller sizes need less memory" if sizes else ""
    return f"out of memory ({exc}){at}"


def main(argv: list[str] | None = None) -> int:
    """Run one command: make --out and remove any manifest an earlier run
    left there, then ``run_command``, whose ``cmd_*`` writes the artifacts and
    returns a summary, then write the manifest and print the summary. A
    failed run thus leaves no manifest beside what it rewrote, and each
    artifact is written whole or not at all. A ``MemoryError`` (a size the
    machine cannot hold) is a user error. Warnings are printed only on
    success: a user error prints its ``error:`` line alone."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(list(argv)))
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise UserError(f"cannot make the output directory: {exc}") from exc
        with _write_errors(out / "manifest.json"):
            (out / "manifest.json").unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            try:
                summary = run_command(args, out)
            except MemoryError as exc:  # numpy refuses an impossible size at once
                raise UserError(_out_of_memory(args, exc)) from exc
        _write_manifest(args, out)
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
        print(summary.rstrip("\n"))  # the evaluation reports end in a newline
        return 0
    except SystemExit as exc:
        # argparse exits on bad flags (its code 2) and on --help/--version
        # (code 0); bad flags are a user error in our convention
        return 0 if exc.code in (0, None) else 1
    except (UserError, WriteError) as exc:  # WriteError: an artifact that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
