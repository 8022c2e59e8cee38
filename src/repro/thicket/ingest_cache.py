"""Content-addressed cache of composed Thicket tables.

A repeated ``analyze`` over an unchanged campaign should not re-parse a
single payload. Every profile already has a content address — archive
entries carry their CRC32 in the ``.calipack`` index, loose sealed
files declare theirs in the seal footer — so the *source set* has one
too: the SHA-256 over the ordered ``(name, crc32)`` pairs. The cache
stores the fully composed dataframe + metadata tables under that key;
any change to any cell (``run --resume`` re-executing it, ``fsck``
quarantining it, a repack) changes a CRC, changes the key, and the
stale entry simply never matches again. No explicit invalidation
protocol, no mtime heuristics.

Entries are single files in a ``.ingest_cache/`` directory::

    #thicket-ingest-cache v1 header=<len> blob=<len> crc32=<8 hex>
    <header JSON>
    <blob bytes>

The header describes both tables column by column; the blob carries the
column data plus the JSON-encoded source list (``sources_ref``), kept
out of the header so its size never taxes a column-selective scan. Numeric columns are raw array buffers (``ndarray.tobytes``
/ ``np.frombuffer`` by exact dtype string, so a cache load reproduces
dtypes bit-for-bit); string/object columns are dictionary-encoded
(unique values + a ``u4`` code array — profile ids, region names, and
paths are massively repetitive); anything else falls back to JSON.
Loading is a handful of buffer views — no JSON parse of profile
payloads, no row iteration. The whole file is CRC-guarded and written
via the durable tmp+replace protocol; a damaged or mismatched cache
entry is treated as a miss, never an error.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.dataframe import Frame
from repro.faults import fault_point
from repro.util.fsio import write_durable_bytes

CACHE_DIR_NAME = ".ingest_cache"
CACHE_SUFFIX = ".tic"
_MAGIC = "#thicket-ingest-cache v1"
#: byte budget for a directory's cache entries (LRU eviction after a
#: store); overridable via $REPRO_INGEST_CACHE_BYTES
CACHE_BYTES_ENV = "REPRO_INGEST_CACHE_BYTES"
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


def cache_key(sources: list[tuple[str, str]]) -> str:
    """The source set's content address: ordered (name, crc32hex) pairs."""
    digest = hashlib.sha256()
    for name, crc in sources:
        digest.update(f"{name}:{crc}\n".encode("utf-8"))
    return digest.hexdigest()[:24]


def cache_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / f"thicket-{key}{CACHE_SUFFIX}"


def default_cache_dir(source: str | Path) -> Path:
    """Where a campaign's cache lives: beside its first source."""
    p = Path(str(source).split("::", 1)[0])
    base = p.parent if p.suffix else p
    return base / CACHE_DIR_NAME


# ------------------------------------------------------------------ encode
def _encode_frame(frame: Frame, blob: bytearray) -> dict[str, Any]:
    columns = []
    for name in frame.columns:
        arr = frame[name]
        spec: dict[str, Any] = {"name": name}
        if arr.dtype != object:
            raw = np.ascontiguousarray(arr).tobytes()
            spec.update(
                kind="raw", dtype=arr.dtype.str,
                offset=len(blob), nbytes=len(raw),
                crc32=f"{zlib.crc32(raw) & 0xFFFFFFFF:08x}",
            )
            blob.extend(raw)
        else:
            values = arr.tolist()
            if all(v is None or isinstance(v, str) for v in values):
                uniq: dict[Any, int] = {}
                codes = [uniq.setdefault(v, len(uniq)) for v in values]
                raw = np.asarray(codes, dtype="<u4").tobytes()
                spec.update(
                    kind="dict", values=list(uniq),
                    offset=len(blob), nbytes=len(raw),
                    crc32=f"{zlib.crc32(raw) & 0xFFFFFFFF:08x}",
                )
                blob.extend(raw)
            else:
                spec.update(kind="json", values=[_jsonable(v) for v in values])
        columns.append(spec)
    return {"nrows": frame.nrows, "columns": columns}


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value


def _decode_frame(spec: dict[str, Any], blob: bytes) -> Frame:
    nrows = int(spec["nrows"])
    cols: dict[str, np.ndarray] = {}
    for col in spec["columns"]:
        kind = col["kind"]
        if kind == "raw":
            raw = blob[col["offset"] : col["offset"] + col["nbytes"]]
            arr = np.frombuffer(raw, dtype=np.dtype(col["dtype"])).copy()
        elif kind == "dict":
            raw = blob[col["offset"] : col["offset"] + col["nbytes"]]
            codes = np.frombuffer(raw, dtype="<u4")
            values = np.empty(len(col["values"]), dtype=object)
            values[:] = col["values"]
            arr = values[codes] if len(values) else np.empty(0, dtype=object)
        elif kind == "json":
            arr = np.empty(len(col["values"]), dtype=object)
            arr[:] = col["values"]
        else:
            raise ValueError(f"unknown cache column kind {kind!r}")
        if len(arr) != nrows:
            raise ValueError(
                f"cache column {col['name']!r} has {len(arr)} rows, "
                f"expected {nrows}"
            )
        cols[col["name"]] = arr
    frame = Frame()
    frame._cols = cols
    frame._nrows = nrows
    return frame


# ------------------------------------------------------------- store / load
def store(
    cache_dir: str | Path,
    sources: list[tuple[str, str]],
    dataframe: Frame,
    metadata: Frame,
) -> Path:
    """Persist composed tables for this exact source set; prune old entries."""
    blob = bytearray()
    header = {
        "dataframe": _encode_frame(dataframe, blob),
        "metadata": _encode_frame(metadata, blob),
    }
    # The source list scales with the campaign (100k profiles -> megabytes
    # of JSON) while the column specs stay tiny; storing it as its own
    # blob buffer keeps the header cheap to parse, so a column-selective
    # scan never pays for the source inventory it doesn't need.
    src_raw = json.dumps(sources, separators=(",", ":")).encode("utf-8")
    header["sources_ref"] = {
        "offset": len(blob),
        "nbytes": len(src_raw),
        "crc32": f"{zlib.crc32(src_raw) & 0xFFFFFFFF:08x}",
    }
    blob.extend(src_raw)
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = header_bytes + bytes(blob)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    # hcrc seals the header JSON alone so a partial (column-selective)
    # reader can verify the header without touching the blob; per-column
    # crc32 fields in the specs cover each buffer slice the same way.
    hcrc = zlib.crc32(header_bytes) & 0xFFFFFFFF
    head = (
        f"{_MAGIC} header={len(header_bytes)} blob={len(blob)} "
        f"crc32={crc:08x} hcrc={hcrc:08x}\n"
    ).encode("ascii")
    target = cache_path(cache_dir, cache_key(sources))
    fault_point("ingest-cache.pre-store", path=target)
    out = write_durable_bytes(target, head + body)
    _prune(Path(cache_dir), budget=cache_budget_bytes())
    return out


def _load_verified(path: Path) -> tuple[dict, bytes] | None:
    """Whole-file read + CRC verify: ``(header, blob)``, or None on damage."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    try:
        nl = raw.index(b"\n")
        head = raw[:nl].decode("ascii")
        if not head.startswith(_MAGIC):
            return None
        fields = dict(
            part.split("=", 1) for part in head[len(_MAGIC):].split()
        )
        header_len = int(fields["header"])
        blob_len = int(fields["blob"])
        declared_crc = int(fields["crc32"], 16)
        body = raw[nl + 1 :]
        if len(body) != header_len + blob_len:
            return None
        if zlib.crc32(body) & 0xFFFFFFFF != declared_crc:
            return None
        header = json.loads(body[:header_len].decode("utf-8"))
        return header, body[header_len:]
    except (ValueError, KeyError, IndexError, UnicodeDecodeError):
        return None


def _sources_from_blob(header: dict, blob: bytes) -> list[list[str]] | None:
    """The stored source list, wherever this file's layout put it.

    Newer files carry a ``sources_ref`` buffer in the blob (CRC-guarded
    like any column); older ones inlined ``sources`` in the header JSON.
    """
    if "sources" in header:
        return [list(s) for s in header["sources"]]
    ref = header.get("sources_ref")
    if not isinstance(ref, dict):
        return None
    try:
        raw = blob[int(ref["offset"]) : int(ref["offset"]) + int(ref["nbytes"])]
    except (ValueError, KeyError, TypeError):
        return None
    return _decode_sources(raw, ref)


def load(
    cache_dir: str | Path, sources: list[tuple[str, str]]
) -> tuple[Frame, Frame] | None:
    """(dataframe, metadata) on a verified hit; None on any miss/damage."""
    loaded = _load_verified(cache_path(cache_dir, cache_key(sources)))
    if loaded is None:
        return None
    header, blob = loaded
    if _sources_from_blob(header, blob) != [list(s) for s in sources]:
        return None  # hash collision or hand-renamed file
    try:
        dataframe = _decode_frame(header["dataframe"], blob)
        metadata = _decode_frame(header["metadata"], blob)
    except (ValueError, KeyError, IndexError):
        return None
    return dataframe, metadata


def find_prefix(
    cache_dir: str | Path, sources: list[tuple[str, str]]
) -> tuple[int, Frame, Frame] | None:
    """The longest cached *prefix* of ``sources``: ``(count, df, md)``.

    Incremental analyze calls this on an exact-key miss after a campaign
    grew: a cache entry stored for the first N sources (N < len) means
    only sources[N:] need composing, and the suffix tables splice onto
    the cached ones. Candidate headers are read cheaply (head line +
    header JSON, ``hcrc``-verified); the winning file is then re-read
    fully CRC-verified. Anything damaged is just not a candidate.
    """
    want = [list(s) for s in sources]
    best: tuple[int, Path] | None = None
    try:
        entries = list(Path(cache_dir).glob("thicket-*" + CACHE_SUFFIX))
    except OSError:
        return None
    for path in entries:
        got = _read_header_at(path)
        if got is None:
            continue
        header, blob_base = got
        stored = _peek_sources(path, header, blob_base)
        if stored is None:
            continue
        n = len(stored)
        if not 0 < n < len(want) or stored != want[:n]:
            continue
        if best is None or n > best[0]:
            best = (n, path)
    if best is None:
        return None
    loaded = _load_verified(best[1])
    if loaded is None:
        return None
    header, blob = loaded
    try:
        dataframe = _decode_frame(header["dataframe"], blob)
        metadata = _decode_frame(header["metadata"], blob)
    except (ValueError, KeyError, IndexError):
        return None
    return best[0], dataframe, metadata


def _parse_head(head: str) -> dict[str, int] | None:
    """The head line's fields; None unless it parses (hcrc optional)."""
    if not head.startswith(_MAGIC):
        return None
    try:
        fields = dict(part.split("=", 1) for part in head[len(_MAGIC):].split())
        out = {
            "header": int(fields["header"]),
            "blob": int(fields["blob"]),
            "crc32": int(fields["crc32"], 16),
        }
        if "hcrc" in fields:
            out["hcrc"] = int(fields["hcrc"], 16)
        return out
    except (ValueError, KeyError):
        return None


def _read_header_at(path: Path) -> tuple[dict, int] | None:
    """``(header, blob_base)`` — no blob read, ``hcrc``-verified.

    Files without an ``hcrc`` field (older writers) are skipped: without
    it the header cannot be verified short of reading the whole file,
    and partial readers must never trust unverified bytes. ``blob_base``
    is the file offset where the blob starts, for targeted buffer reads.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.readline(4096)
            try:
                fields = _parse_head(head.decode("ascii").rstrip("\n"))
            except UnicodeDecodeError:
                return None
            if fields is None or "hcrc" not in fields:
                return None
            header_bytes = handle.read(fields["header"])
    except OSError:
        return None
    if len(header_bytes) != fields["header"]:
        return None
    if zlib.crc32(header_bytes) & 0xFFFFFFFF != fields["hcrc"]:
        return None
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return header, len(head) + fields["header"]


def _peek_sources(
    path: Path, header: dict, blob_base: int
) -> list[list[str]] | None:
    """The stored source list via a targeted read — no full-file load."""
    if "sources" in header:
        return [list(s) for s in header["sources"]]
    ref = header.get("sources_ref")
    if not isinstance(ref, dict):
        return None
    try:
        with open(path, "rb") as handle:
            handle.seek(blob_base + int(ref["offset"]))
            raw = handle.read(int(ref["nbytes"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return _decode_sources(raw, ref)


def _decode_sources(raw: bytes, ref: dict) -> list[list[str]] | None:
    """CRC-verify and parse one ``sources_ref`` buffer; None on damage."""
    try:
        if len(raw) != int(ref["nbytes"]):
            return None
        if zlib.crc32(raw) & 0xFFFFFFFF != int(ref["crc32"], 16):
            return None
        return [list(s) for s in json.loads(raw.decode("utf-8"))]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


class ColumnStore:
    """Column-selective reader over one table of a ``.tic`` cache file.

    The lazy query engine's scan source: ``load_columns`` reads only the
    requested columns' byte ranges from the blob (per-column CRC
    verified) and hands dictionary-encoded string columns back as
    :class:`repro.dataframe.DictColumn` — codes, not objects — so
    pushed-down equality predicates never decode what they reject.
    Damage raises :class:`ValueError` (a scan is an explicit read, not a
    cache probe; silently returning nothing would be a wrong answer).
    """

    def __init__(self, path: str | Path, table: str = "metadata") -> None:
        if table not in ("dataframe", "metadata"):
            raise ValueError(
                f"table must be 'dataframe' or 'metadata', got {table!r}"
            )
        self.path = Path(path)
        self.table = table
        got = _read_header_at(self.path)
        if got is None:
            raise ValueError(
                f"{self.path}: not a verifiable ingest-cache file "
                f"(missing, damaged, or pre-hcrc format)"
            )
        header, self._blob_base = got
        spec = header.get(table)
        if not isinstance(spec, dict):
            raise ValueError(f"{self.path}: cache file has no {table!r} table")
        self._spec = spec
        self.nrows = int(spec["nrows"])
        self._columns: dict[str, dict] = {
            c["name"]: c for c in spec["columns"]
        }

    def load_columns(
        self, names: "frozenset[str] | set[str] | None" = None
    ) -> tuple[dict[str, Any], int]:
        """``(columns, nrows)`` for ``names`` (None = all), header order.

        Raw numeric columns come back as owned ndarrays, dict-encoded
        string columns as :class:`DictColumn`, JSON-fallback columns as
        object arrays. Unknown names raise KeyError like a Frame lookup.
        """
        from repro.dataframe.expr import DictColumn

        if names is not None:
            for name in names:
                if name not in self._columns:
                    raise KeyError(
                        f"no column {name!r}; have {list(self._columns)}"
                    )
        out: dict[str, Any] = {}
        with open(self.path, "rb") as handle:
            for name, col in self._columns.items():
                if names is not None and name not in names:
                    continue
                kind = col["kind"]
                if kind == "json":
                    arr = np.empty(len(col["values"]), dtype=object)
                    arr[:] = col["values"]
                    if len(arr) != self.nrows:
                        raise ValueError(
                            f"{self.path}: column {name!r} has {len(arr)} "
                            f"rows, expected {self.nrows}"
                        )
                    out[name] = arr
                    continue
                raw = self._read_buffer(handle, col)
                if kind == "raw":
                    arr = np.frombuffer(raw, dtype=np.dtype(col["dtype"])).copy()
                    if len(arr) != self.nrows:
                        raise ValueError(
                            f"{self.path}: column {name!r} has {len(arr)} "
                            f"rows, expected {self.nrows}"
                        )
                    out[name] = arr
                elif kind == "dict":
                    codes = np.frombuffer(raw, dtype="<u4")
                    if len(codes) != self.nrows:
                        raise ValueError(
                            f"{self.path}: column {name!r} has {len(codes)} "
                            f"rows, expected {self.nrows}"
                        )
                    values = np.empty(len(col["values"]), dtype=object)
                    values[:] = col["values"]
                    out[name] = DictColumn(codes, values)
                else:
                    raise ValueError(
                        f"{self.path}: unknown cache column kind {kind!r}"
                    )
        return out, self.nrows

    def _read_buffer(self, handle, col: dict) -> bytes:
        handle.seek(self._blob_base + int(col["offset"]))
        raw = handle.read(int(col["nbytes"]))
        if len(raw) != int(col["nbytes"]):
            raise ValueError(
                f"{self.path}: column {col['name']!r} buffer truncated"
            )
        declared = col.get("crc32")
        if declared is None:
            raise ValueError(
                f"{self.path}: column {col['name']!r} has no buffer CRC "
                f"(pre-partial-read cache format)"
            )
        if zlib.crc32(raw) & 0xFFFFFFFF != int(declared, 16):
            raise ValueError(
                f"{self.path}: column {col['name']!r} buffer CRC mismatch"
            )
        return raw


def cache_budget_bytes() -> int:
    """The directory byte budget ($REPRO_INGEST_CACHE_BYTES or default)."""
    import os

    raw = os.environ.get(CACHE_BYTES_ENV)
    if raw is not None:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_CACHE_BYTES


def verify_cache_file(path: str | Path) -> bool:
    """Does this ``.tic`` file verify against its whole-body seal?

    fsck's probe: a damaged entry is already a silent miss to readers;
    verifying it out-of-band lets a repairing fsck pass reclaim the
    bytes instead of paying for the miss forever.
    """
    return _load_verified(Path(path)) is not None


def _prune(cache_dir: Path, budget: int) -> None:
    """Byte-budget LRU eviction: drop oldest entries until under budget.

    Every filesystem call tolerates a concurrent delete (two analyze
    processes can prune the same directory): an entry that vanishes
    between the listing and its stat/unlink simply stops counting.
    """
    entries: list[tuple[float, int, Path]] = []
    try:
        listing = list(cache_dir.glob("thicket-*" + CACHE_SUFFIX))
    except OSError:  # pragma: no cover - racing cleanup of the dir itself
        return
    for path in listing:
        try:
            stat = path.stat()
        except OSError:
            continue  # deleted under us: no longer occupies budget
        entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort()
    total = sum(size for _, size, _ in entries)
    for _, size, stale in entries:
        if total <= budget:
            break
        try:
            stale.unlink()
        except OSError:
            pass  # already gone: the race did our work
        total -= size
