"""Canonical partition text and the append-only reduced Kronecker cache.

The text form is the cross-surface contract: comma-separated weakly
decreasing positive integers, "-" for the empty partition. The cache holds
reduced Kronecker values only, one JSON object per line with kind "redkron",
so appends are crash-safe and files from different machines can be
concatenated; values are stored as decimal strings so any JSON reader
reparses them exactly. A line of any other kind (older files hold "kron"
and "lr" lines) is a corrupt line: skipped with a warning.

A cache is only ever the file its caller names: the CLI attaches one for
`scan --cache PATH` alone, and no default file or environment variable
stands in for it.
"""

from __future__ import annotations

import json
import logging

from .errors import PartitionParseError, StoreIOError
from .partitions import Partition, canonical_key

try:
    import fcntl
except ImportError:  # non-POSIX: appends stay atomic enough for single writers
    fcntl = None

log = logging.getLogger(__name__)

ENGINE_VERSION = "0.1.0"
EMPTY_TEXT = "-"


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


def _canonical_args(lam: Partition, mu: Partition, nu: Partition):
    # a reduced Kronecker coefficient is symmetric under swapping lam and mu
    lam, mu = tuple(lam), tuple(mu)
    if canonical_key(mu) < canonical_key(lam):
        lam, mu = mu, lam
    return lam, mu, tuple(nu)


def _parse_field(text, parsed: dict) -> Partition:
    """A record's partition field, parsed once per distinct text in one load."""
    if type(text) is not str:
        raise ValueError(f"partition field {text!r} is not a string")
    p = parsed.get(text)
    if p is None:
        p = parsed[text] = parse_partition_text(text)
    return p


def _record_line(key, value: int) -> str:
    a, b, c = key
    obj = {
        "kind": "redkron",
        "lambda": format_partition(a),
        "mu": format_partition(b),
        "nu": format_partition(c),
        "value": str(value),
        "engineVersion": ENGINE_VERSION,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


class CoefficientCache:
    """Append-only JSONL store of reduced Kronecker values keyed by (lam, mu, nu).

    Reads tolerate corrupt or partially written lines (skipped with a
    warning), treat keys whose records disagree as misses (also with a
    warning) and ignore records from other engine versions. Each put_many
    (and so each put) appends its new lines under one open and one advisory
    lock, when the platform provides one.
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
        parsed: dict = {}  # partition text -> partition, for this load only
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    record = self._parse_line(line, lineno, parsed)
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

    def _parse_line(self, line: str, lineno: int, parsed: dict):
        try:
            obj = json.loads(line)
            kind = obj["kind"]
            if kind != "redkron":
                raise ValueError(f"unknown kind {kind!r}")
            lam = _parse_field(obj["lambda"], parsed)
            mu = _parse_field(obj["mu"], parsed)
            nu = _parse_field(obj["nu"], parsed)
            text = obj["value"]
            if not (isinstance(text, str) and text.isascii() and text.isdigit()):
                raise ValueError(f"value {text!r} is not a non-negative decimal string")
            version = obj["engineVersion"]
        except (KeyError, ValueError, TypeError) as exc:
            log.warning("%s:%d: skipping corrupt cache line (%s)", self.path, lineno, exc)
            return None
        if version != ENGINE_VERSION:
            return None  # stale engine entries are silently ignored
        return _canonical_args(lam, mu, nu), int(text)

    # -- queries -----------------------------------------------------------

    def get(self, lam: Partition, mu: Partition, nu: Partition):
        return self._load().get(_canonical_args(lam, mu, nu))

    def put(self, lam: Partition, mu: Partition, nu: Partition, value: int):
        self.put_many([((lam, mu, nu), value)])

    def put_many(self, records):
        """put(*triple, value) for each (triple, value) in order, appending every
        new line under one open and one lock."""
        index = self._load()
        new = []
        for triple, value in records:
            key = _canonical_args(*triple)
            if index.get(key) == value:
                continue
            index[key] = value
            if key not in self._conflicts:  # one more line cannot settle a conflict
                new.append((key, value))
        if new:
            self._write(new)

    def _write(self, records: list):
        text = "".join(_record_line(key, value) for key, value in records)
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                try:
                    fh.write(text)
                    fh.flush()
                finally:
                    if fcntl is not None:
                        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        except OSError as exc:
            raise StoreIOError(f"cannot append to cache {self.path}: {exc}") from exc

    def view(self) -> "RecordingCache":
        """A RecordingCache on this file that starts from this cache's records,
        so a scan and its workers parse the file once."""
        view = RecordingCache(self.path)
        view._index = dict(self._load())
        view._conflicts = set(self._conflicts)
        return view

    def __len__(self):
        return len(self._load())


class RecordingCache(CoefficientCache):
    """Cache view for scans: reads the shared file, buffers its writes.

    A view never writes the file. scan() checks each payload against a view
    (CoefficientCache.view), in its own process or in a worker, then drains
    the view's ((lam, mu, nu), value) pairs and appends them to the real
    cache with one put_many.
    """

    def __init__(self, path: str):
        super().__init__(path)
        self.buffer: list[tuple] = []

    def _write(self, records: list):
        self.buffer.extend(records)

    def drain(self) -> list[tuple]:
        out, self.buffer = self.buffer, []
        return out
