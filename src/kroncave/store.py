"""Canonical partition text and the append-only coefficient cache.

The text form is the cross-surface contract: comma-separated weakly
decreasing positive integers, "-" for the empty partition. The cache is one
JSON object per line so appends are crash-safe and files from different
machines can be concatenated; values are stored as decimal strings so any
JSON reader reparses them exactly.
"""

from __future__ import annotations

import json
import logging
import os

from .errors import PartitionParseError, StoreIOError
from .partitions import Partition, canonical_key

try:
    import fcntl
except ImportError:  # non-POSIX: appends stay atomic enough for single writers
    fcntl = None

log = logging.getLogger(__name__)

ENGINE_VERSION = "0.1.0"
EMPTY_TEXT = "-"
CACHE_ENV_VAR = "KRONCAVE_CACHE"
DEFAULT_CACHE_PATH = "./kroncave-cache.jsonl"

CACHE_KINDS = ("kron", "lr", "redkron")


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p) if p else EMPTY_TEXT


def parse_partition_text(s: str) -> Partition:
    """Parse the canonical text form, rejecting anything else."""
    if s == EMPTY_TEXT:
        return ()
    if not s:
        raise PartitionParseError("empty partition text", 0)
    parts = []
    pos = 0
    for token in s.split(","):
        if not (token.isascii() and token.isdigit()):
            raise PartitionParseError(f"malformed token {token!r}", pos)
        if token[0] == "0":
            raise PartitionParseError(f"zero part or leading zero in {token!r}", pos)
        value = int(token)
        if parts and parts[-1] < value:
            raise PartitionParseError(
                f"parts not weakly decreasing: {parts[-1]} < {value}", pos
            )
        parts.append(value)
        pos += len(token) + 1
    return tuple(parts)


def resolve_cache_path(flag_value: str | None = None) -> str:
    """Flag beats the KRONCAVE_CACHE environment variable beats the default."""
    if flag_value:
        return flag_value
    return os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_PATH


def _canonical_args(lam: Partition, mu: Partition, nu: Partition):
    # every cached coefficient kind is symmetric under swapping lam and mu
    a, b = sorted((tuple(lam), tuple(mu)), key=canonical_key)
    return a, b, tuple(nu)


class CoefficientCache:
    """Append-only JSONL store keyed by (kind, lam, mu, nu).

    Reads tolerate corrupt or partially written lines (skipped with a
    warning), treat keys whose records disagree as misses (also with a
    warning) and ignore records from other engine versions. Appends take an
    advisory lock when the platform provides one.
    """

    def __init__(self, path: str):
        self.path = path
        self._index: dict | None = None
        self._conflicts: set = set()

    # -- loading -----------------------------------------------------------

    def _load(self) -> dict:
        if self._index is not None:
            return self._index
        index: dict = {}
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    record = self._parse_line(line, lineno)
                    if record is None:
                        continue
                    key, value = record
                    first = index.setdefault(key, value)
                    if first != value and key not in self._conflicts:
                        log.warning(
                            "%s:%d: conflicting cache records for %s (%s vs %s); "
                            "treating it as a miss",
                            self.path, lineno, key, first, value,
                        )
                        self._conflicts.add(key)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StoreIOError(f"cannot read cache {self.path}: {exc}") from exc
        for key in self._conflicts:
            del index[key]
        self._index = index
        return index

    def _parse_line(self, line: str, lineno: int):
        try:
            obj = json.loads(line)
            kind = obj["kind"]
            if kind not in CACHE_KINDS:
                raise ValueError(f"unknown kind {kind!r}")
            lam = parse_partition_text(obj["lambda"])
            mu = parse_partition_text(obj["mu"])
            nu = parse_partition_text(obj["nu"])
            text = obj["value"]
            if not (isinstance(text, str) and text.isascii() and text.isdigit()):
                raise ValueError(f"value {text!r} is not a non-negative decimal string")
            version = obj["engineVersion"]
        except (KeyError, ValueError, TypeError) as exc:
            log.warning("%s:%d: skipping corrupt cache line (%s)", self.path, lineno, exc)
            return None
        if version != ENGINE_VERSION:
            return None  # stale engine entries are silently ignored
        a, b, c = _canonical_args(lam, mu, nu)
        return (kind, a, b, c), int(text)

    # -- queries -----------------------------------------------------------

    def get(self, kind: str, lam: Partition, mu: Partition, nu: Partition):
        a, b, c = _canonical_args(lam, mu, nu)
        return self._load().get((kind, a, b, c))

    def put(self, kind: str, lam: Partition, mu: Partition, nu: Partition, value: int):
        key = (kind, *_canonical_args(lam, mu, nu))
        index = self._load()
        if index.get(key) == value:
            return
        index[key] = value
        if key not in self._conflicts:  # one more line cannot settle a conflict
            self._write(key, value)

    def _write(self, key, value: int):
        kind, a, b, c = key
        obj = {
            "kind": kind,
            "lambda": format_partition(a),
            "mu": format_partition(b),
            "nu": format_partition(c),
            "value": str(value),
            "engineVersion": ENGINE_VERSION,
        }
        line = json.dumps(obj, separators=(",", ":")) + "\n"
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                try:
                    fh.write(line)
                    fh.flush()
                finally:
                    if fcntl is not None:
                        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        except OSError as exc:
            raise StoreIOError(f"cannot append to cache {self.path}: {exc}") from exc

    def __len__(self):
        return len(self._load())


class RecordingCache(CoefficientCache):
    """Cache view for scan workers: reads the shared file, buffers its writes.

    Workers never touch the file; the parent process drains each worker's
    buffer of (key, value) pairs and replays them with put(*key, value).
    """

    def __init__(self, path: str):
        super().__init__(path)
        self.buffer: list[tuple] = []

    def _write(self, key, value: int):
        self.buffer.append((key, value))

    def drain(self) -> list[tuple]:
        out, self.buffer = self.buffer, []
        return out
