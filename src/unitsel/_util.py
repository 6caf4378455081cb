"""Shared plumbing: file writers and readers, hashing, fixed-chunk parallel map."""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

# Work is always cut into chunks of this many items, regardless of the
# thread count, so results are bit-identical for any --threads value.
CHUNK = 256


def canonical_json(obj) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def exact_ints(values, what: str, length: int | None = None) -> list[int]:
    """A JSON list of exact integers: 1.5, true and 1e999 are refused, not truncated."""
    if type(values) is not list or any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    if length is not None and len(values) != length:
        raise ValueError(f"{what} must be a list of {length} integers, got {values!r}")
    return values


def read_text(path, error: type[Exception]) -> str:
    """A file's UTF-8 text; a file that cannot be read (a directory, say) or
    is not UTF-8 raises ``error`` naming the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except OSError as exc:  # a missing file, a directory, no permission
        raise error(f"{path}: file not found or not readable ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def decode_json(text: str, error: type[Exception], where: str):
    """One JSON value; text that is not JSON, or JSON nested too deeply to
    decode, raises ``error`` naming ``where``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: cannot decode JSON ({exc})") from None


def json_lines(path, error: type[Exception], magic: str | None = None) -> Iterator[tuple]:
    """(line number, value, text) of each JSON line of a UTF-8 file, decoded
    as it is reached. Lines are numbered as an editor numbers them: blank
    lines count and are skipped. With ``magic`` (``"UNITSEL-LIB 1"``, say)
    the first line must be that word and version. Every failure raises
    ``error`` naming the path and, where there is one, the line."""
    path = os.fspath(path)  # a str formats faster than a Path into each line's name
    text, start, lineno = read_text(path, error), 0, 0
    # str.find runs at memory speed; str.split and str.count step a character at a time
    while start <= len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line, start, lineno = text[start:end], end + 1, lineno + 1
        if lineno == 1 and magic is not None:
            if line.split() != magic.split():
                wrong = "magic" if line.split()[:1] != magic.split()[:1] else "version"
                raise error(f"{path}:1: bad {wrong}, expected {magic!r}")
        elif line.strip():
            yield lineno, decode_json(line, error, f"{path}:{lineno}"), line


class WriteError(Exception):
    """An artifact could not be written; the message names its path."""


@contextmanager
def _write_errors(path):
    """Report an ``OSError`` raised inside (a directory in the way, a full
    disk, no permission) as a :class:`WriteError` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise WriteError(f"{path}: cannot write ({exc.strerror or exc})") from None


@contextmanager
def _writing(path, mode: str = "w"):
    """The one artifact writer: a file opened on ``path.tmp`` in the same
    directory, in ``mode`` (``"w"`` for UTF-8 text, ``"wb"`` for bytes),
    which ``os.replace`` moves onto ``path`` once the block has written it.

    So no reader ever sees half an artifact: any exception inside, an
    interrupt included, removes the ``.tmp`` and leaves ``path`` as it
    was. An ``OSError`` is reported as a :class:`WriteError` naming ``path``.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with _write_errors(path):
            with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
                yield fh
            os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_lines(path, lines: Iterable[str]) -> None:
    """A UTF-8 file of one line per item (a magic line is the first item)."""
    with _writing(path) as fh:
        fh.writelines(part for line in lines for part in (line, "\n"))  # no copy of a line


def write_text(path, text: str) -> None:
    """A UTF-8 text file."""
    with _writing(path) as fh:
        fh.write(text)


def _finite_or_null(obj):
    """``obj`` with each non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(obj, path) -> None:
    """Readable JSON file: two-space indent, sorted keys, final newline.

    JSON has no infinity or NaN, so a non-finite float is written as null."""
    text = json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False)
    write_text(path, text + "\n")


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def chunked_map(
    fn: Callable[[int, int], T], n_items: int, threads: int = 1
) -> list[T]:
    """Apply fn(start, stop) over fixed-size chunks of [0, n_items).

    Chunk boundaries do not depend on ``threads``, and results are merged
    in chunk order, so the output is identical for any thread count.
    """
    if n_items <= 0:
        return []
    spans = [(s, min(s + CHUNK, n_items)) for s in range(0, n_items, CHUNK)]
    if threads <= 1 or len(spans) == 1:
        return [fn(s, e) for s, e in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, s, e) for s, e in spans]
        return [f.result() for f in futures]
