"""Canonical partition text and the append-only stable product cache.

The text form is the cross-surface contract: comma-separated weakly
decreasing positive integers, "-" for the empty partition. The cache holds
whole stable products [lam]*[mu] only, one JSON object per line with kind
"redtensor": the pair as partitions.pair_key orders it (smaller size first,
then tuple order) and its nonzero reduced Kronecker coefficients as
{nu text: decimal string}, nu in canonical_key order. The index is keyed by
pair_key too, so a record answers its pair in either order. Appends are
crash-safe and files from different machines can be concatenated;
coefficients are decimal strings so any JSON reader reparses them exactly.
A line of any other kind (older files hold per-triple "redkron", "kron" and
"lr" lines) is a corrupt line: skipped with a warning.

Every record is checked when the file is loaded, against the dimension
identity that the engine also checks on each product it computes
(coefficients.check_dimension_identity). A record that fails it, or names a
nu too large to pad to its n, is a corrupt line. Every f in the identity is
positive, so one wrong coefficient always fails; wrong coefficients whose
f-weighted errors cancel still pass.

A cache is only ever the file its caller names: the CLI attaches one for
`scan --cache PATH` alone, and no default file or environment variable
stands in for it.
"""

from __future__ import annotations

import json
import logging

from .coefficients import check_dimension_identity
from .errors import PartitionParseError, StoreIOError
from .partitions import Partition, canonical_key, pair_key

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


def _parse_field(text, parsed: dict) -> Partition:
    """A record's partition field, parsed once per distinct text in one load."""
    if type(text) is not str:
        raise ValueError(f"partition field {text!r} is not a string")
    p = parsed.get(text)
    if p is None:
        p = parsed[text] = parse_partition_text(text)
    return p


def _record_line(key, product: dict) -> str:
    lam, mu = key
    obj = {
        "kind": "redtensor",
        "lambda": format_partition(lam),
        "mu": format_partition(mu),
        "product": {
            format_partition(nu): str(product[nu]) for nu in sorted(product, key=canonical_key)
        },
        "engineVersion": ENGINE_VERSION,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


class CoefficientCache:
    """Append-only JSONL store of stable products keyed by pair_key(lam, mu).

    Reads tolerate corrupt or partially written lines and records that fail
    the dimension identity (skipped with a warning), treat pairs whose
    records disagree as misses (also with a warning) and ignore records from
    other engine versions. Each put appends its line under one open and one
    advisory lock, when the platform provides one.
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
                    key, product = record
                    first = index.setdefault(key, product)
                    if first != product and key not in self._conflicts:
                        log.warning(
                            "%s:%d: conflicting cache records for %s * %s; "
                            "treating it as a miss",
                            self.path, lineno, *map(format_partition, key),
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
            if kind != "redtensor":
                raise ValueError(f"unknown kind {kind!r}")
            lam = _parse_field(obj["lambda"], parsed)
            mu = _parse_field(obj["mu"], parsed)
            fields = obj["product"]
            if type(fields) is not dict:
                raise ValueError(f"product {fields!r} is not an object")
            product = {}
            for text, value in fields.items():
                if not (isinstance(value, str) and value.isascii() and value.isdigit()
                        and value[0] != "0"):
                    raise ValueError(f"coefficient {value!r} is not a positive decimal string")
                product[_parse_field(text, parsed)] = int(value)
            if obj["engineVersion"] != ENGINE_VERSION:
                return None  # stale engine entries are silently ignored
            check_dimension_identity(lam, mu, product)
        except (KeyError, ValueError, TypeError) as exc:
            log.warning("%s:%d: skipping corrupt cache line (%s)", self.path, lineno, exc)
            return None
        return pair_key(lam, mu), product

    # -- queries -----------------------------------------------------------

    def get(self, lam: Partition, mu: Partition):
        """The stored product {nu: coefficient} of lam and mu, or None."""
        return self._load().get(pair_key(lam, mu))

    def put(self, lam: Partition, mu: Partition, product: dict):
        """Record the product of lam and mu, appending its line unless the
        index already holds it."""
        index = self._load()
        key = pair_key(lam, mu)
        if index.get(key) == product:
            return
        index[key] = product
        if key not in self._conflicts:  # one more line cannot settle a conflict
            self._write(key, product)

    def _write(self, key, product: dict):
        line = _record_line(key, product)
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

