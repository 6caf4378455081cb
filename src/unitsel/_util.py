"""Shared plumbing: JSON writers and readers, hashing, fixed-chunk parallel map."""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, TypeVar

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


def write_json(obj, path) -> None:
    """Readable JSON file: two-space indent, sorted keys, final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
