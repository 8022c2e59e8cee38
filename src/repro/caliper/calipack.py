"""``.calipack``: a packed, append-only campaign profile archive.

A paper-scale campaign produces thousands of small sealed ``.cali``
files; opening, fsyncing, and re-scanning them one at a time is the
ingest wall. A ``.calipack`` collapses a campaign directory into one
append-only container:

::

    #calipack v1
    #calipack-entry name=<fname> len=<bytes>
    <sealed .cali bytes, verbatim>
    #calipack-entry name=<fname> len=<bytes>
    <sealed .cali bytes, verbatim>
    ...
    <index JSON>
    #calipack-footer v1 index_off=<off> index_len=<len> crc32=<8 hex>

Entries are the *exact* bytes :func:`repro.caliper.cali.write_cali`
would have written (payload + CRC32 seal), so ``unpack`` restores
byte-identical files and every entry stays independently verifiable.
The index records ``(name, offset, length, crc32)`` per entry — the
CRC here covers the stored entry bytes and doubles as the entry's
content address for the ingest cache. The index itself is sealed by
the footer's CRC32.

Durability mirrors the profile store: appends go through a single
``os.write`` after truncating any garbage tail left by a crashed or
fault-injected append, the handle is fsynced on :meth:`CalipackWriter.
close` (which writes index + footer), and whole-archive rewrites go
through the durable tmp+``os.replace`` machinery. An archive that
crashed before ``close`` has no footer; :func:`recover_entries` scans
the entry framing headers and salvages every complete entry — the
supervisor runs exactly this when merging per-worker segments.

Member references use ``<archive>::<entry name>`` strings (manifest
``file`` fields, CLI arguments, fsck reports).
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO

from repro.caliper.cali import _analyze_bytes, serialize_cali
from repro.caliper.records import CaliProfile
from repro.faults import fault_point
from repro.util.fsio import durable_replace, fsync_dir, tmp_sibling
from repro.util.memo import Derived

ARCHIVE_SUFFIX = ".calipack"
ARCHIVE_NAME = "campaign" + ARCHIVE_SUFFIX
SEGMENT_DIR = "segments"
MEMBER_SEP = "::"

MAGIC = b"#calipack v1\n"
INDEX_FORMAT = "calipack-index"
INDEX_VERSION = 1

_ENTRY_RE = re.compile(rb"#calipack-entry name=([^\n ]+) len=(\d+)\n")
_FOOTER_RE = re.compile(
    rb"#calipack-footer v1 index_off=(\d+) index_len=(\d+) "
    rb"crc32=([0-9a-fA-F]{8})\n?$"
)
#: generous bound on the footer line's size, for the tail read
_FOOTER_TAIL = 128


class CalipackError(ValueError):
    """A structurally damaged archive (bad magic, index, or footer)."""


#: index sentinel for a global whose value is not a JSON scalar — the
#: attribute exists but cannot be compared at the index level, so a
#: predicate referencing it never skips the entry.
NONSCALAR_ATTR: Mapping[str, bool] = MappingProxyType({"__nonscalar__": True})


@dataclass(frozen=True)
class ArchiveEntry:
    """One archived profile: where it lives and what its bytes hash to.

    ``attrs`` (sealed archives only) carries the entry's scalar globals
    as indexed attributes: ``thicket.ingest.index_pushdown`` evaluates
    a metadata filter once over all entries' attrs and skips the entries
    it provably rejects — no payload read, no JSON parse. ``metrics``
    lists the entry's metric column names in document order, letting a
    filtered composition reconstruct the exact column order a full
    composition would produce. None for either means the index predates
    them or the entry was unparseable; such entries are never skipped.
    Entries read from a sealed index are shared (:func:`sealed_index`),
    so ``attrs`` is a read-only mapping and ``metrics`` a tuple.
    """

    name: str
    offset: int
    length: int
    crc32: int
    attrs: Mapping[str, object] | None = field(default=None, compare=False)
    metrics: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def crc_hex(self) -> str:
        return f"{self.crc32:08x}"


def member_ref(archive: str | Path, name: str) -> str:
    """The ``<archive>::<name>`` reference for one archived profile."""
    return f"{archive}{MEMBER_SEP}{name}"


def split_member_ref(source: str) -> tuple[str, str] | None:
    """Parse ``<archive>::<name>``; None when ``source`` is not one."""
    if MEMBER_SEP not in source:
        return None
    archive, _, name = source.rpartition(MEMBER_SEP)
    if not archive.endswith(ARCHIVE_SUFFIX) or not name:
        return None
    return archive, name


def is_archive(source: str | Path) -> bool:
    return str(source).endswith(ARCHIVE_SUFFIX)


def _entry_header(name: str, length: int) -> bytes:
    if " " in name or "\n" in name:
        raise ValueError(f"entry name may not contain spaces/newlines: {name!r}")
    return f"#calipack-entry name={name} len={length}\n".encode("ascii")


class CalipackWriter:
    """Append entries to one archive; ``close()`` writes index + footer.

    A writer owns its file exclusively (per-worker segments, or the
    supervisor's merge). ``append_bytes`` truncates any garbage tail a
    previous failed append left behind, so framing never goes bad, and
    keeps the in-memory index authoritative. Entries replace earlier
    ones of the same name (last-wins — a retried cell supersedes the
    crashed attempt's profile).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._entries: dict[str, ArchiveEntry] = {}
        if self.path.exists():
            entries, good_end = scan_entries(self.path)
            for entry in entries:
                self._entries[entry.name] = entry
            self._handle = open(self.path, "r+b")
            self._handle.truncate(good_end)
            self._handle.seek(good_end)
        else:
            self._handle = open(self.path, "w+b")
            self._handle.write(MAGIC)
        self._good_end = self._handle.tell()
        self._closed = False

    def __enter__(self) -> "CalipackWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def entries(self) -> list[ArchiveEntry]:
        return list(self._entries.values())

    def append_bytes(
        self, name: str, data: bytes, interrupted: bool = False
    ) -> ArchiveEntry:
        """Append one sealed ``.cali`` blob under ``name``.

        ``interrupted`` (or a fault at ``calipack.append``) simulates an
        append cut off half-way: part of the entry lands, then
        ``OSError``.
        """
        if self._closed:
            raise ValueError(f"writer for {self.path} is closed")
        # A failed append leaves a partial tail: cut it before writing.
        self._handle.truncate(self._good_end)
        self._handle.seek(self._good_end)
        header = _entry_header(name, len(data))
        if interrupted or fault_point("calipack.append", path=name) is not None:
            # Simulate an interrupted append: half the entry lands, then
            # the failure. The next append (or recovery scan) drops it.
            blob = header + data
            self._handle.write(blob[: max(1, len(blob) // 2)])
            self._handle.flush()
            raise OSError(f"injected I/O write failure for {self.path}::{name}")
        self._handle.write(header)
        offset = self._handle.tell()
        self._handle.write(data)
        self._handle.flush()
        # The entry's bytes are on disk but not yet acknowledged: a crash
        # here leaves a complete-but-unindexed (or, torn, a partial) tail
        # that the next reopen's recovery scan must classify correctly.
        fault_point(
            "calipack.mid-entry-append",
            path=self.path,
            torn_file=self.path,
            torn_base=self._good_end,
        )
        self._good_end = self._handle.tell()
        entry = ArchiveEntry(
            name=name,
            offset=offset,
            length=len(data),
            crc32=zlib.crc32(data) & 0xFFFFFFFF,
        )
        self._entries[name] = entry
        return entry

    def append_profile(self, name: str, profile: CaliProfile) -> ArchiveEntry:
        """Serialize and append one profile under ``name``."""
        return self.append_bytes(name, serialize_cali(profile))

    def _collect_schemas(
        self,
    ) -> tuple[dict[str, tuple[dict, list[str]]], dict[str, list[str]]]:
        """Indexed (attrs, metrics) per entry + the archive column registry.

        Both are recomputed from the stored entry bytes at seal time —
        never carried from a source index — so the sealed index is a
        pure function of the entry set and canonical merges stay
        byte-deterministic. Unparseable (damaged) entries contribute
        nothing and simply get no schema.
        """
        schema_by_name: dict[str, tuple[dict, list[str]]] = {}
        metrics: dict[str, None] = {}
        globals_: dict[str, None] = {}
        for entry in self._entries.values():
            self._handle.seek(entry.offset)
            data = self._handle.read(entry.length)
            schema = extract_entry_schema(data)
            if schema is None:
                continue
            attrs, entry_metrics, entry_globals = schema
            schema_by_name[entry.name] = (attrs, entry_metrics)
            for name in entry_metrics:
                metrics.setdefault(name)
            for name in entry_globals:
                globals_.setdefault(name)
        return schema_by_name, {
            "metrics": list(metrics),
            "globals": list(globals_),
        }

    def close(self) -> Path:
        """Seal the archive: write the index and footer, fsync."""
        if self._closed:
            return self.path
        self._closed = True
        self._handle.truncate(self._good_end)
        schema_by_name, columns = self._collect_schemas()
        self._handle.seek(self._good_end)
        fault_point("calipack.pre-index", path=self.path)
        entries_payload = []
        for e in self._entries.values():
            record: dict[str, object] = {
                "name": e.name,
                "offset": e.offset,
                "length": e.length,
                "crc32": e.crc_hex,
            }
            schema = schema_by_name.get(e.name)
            if schema is not None:
                record["attrs"], record["metrics"] = schema
            entries_payload.append(record)
        index = json.dumps(
            {
                "format": INDEX_FORMAT,
                "version": INDEX_VERSION,
                "columns": columns,
                "entries": entries_payload,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        crc = zlib.crc32(index) & 0xFFFFFFFF
        self._handle.write(index)
        self._handle.flush()
        fault_point(
            "calipack.pre-footer",
            path=self.path,
            torn_file=self.path,
            torn_base=self._good_end,
        )
        self._handle.write(
            f"\n#calipack-footer v1 index_off={self._good_end} "
            f"index_len={len(index)} crc32={crc:08x}\n".encode("ascii")
        )
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:  # pragma: no cover - fs without fsync
            pass
        self._handle.close()
        fsync_dir(self.path.parent)
        return self.path

    def abort(self) -> None:
        """Close the handle without sealing (tests / error paths)."""
        if not self._closed:
            self._closed = True
            self._handle.close()


class ArchiveSink:
    """A lazily opened archive the executor streams cell profiles into.

    ``ref_archive`` is the archive name reported back in manifests and
    cell results: per-worker segments report member refs against the
    final merged campaign archive, which :func:`merge_segments`
    guarantees on drain (and campaign startup salvages after a crash),
    so recorded refs never dangle on a stranded segment file.
    """

    def __init__(
        self, path: str | Path, ref_archive: str | Path | None = None
    ) -> None:
        self.path = Path(path)
        self.ref_archive = (
            Path(ref_archive) if ref_archive is not None else self.path
        )
        self._writer: CalipackWriter | None = None

    def append(self, name: str, profile: CaliProfile) -> str:
        """Append one cell's profile; returns its member ref.

        The packed twin of :func:`~repro.caliper.cali.write_cali`, with
        the same ``profile.seal`` fault site: ``corrupt`` seals the entry
        with a wrong CRC, so fsck and ingest have a damaged entry to
        detect; ``raise`` interrupts the append half-way, leaving the
        partial tail the next append or recovery scan must drop.
        """
        if self._writer is None:
            self._writer = CalipackWriter(self.path)
        fault = fault_point("profile.seal", path=name)
        action = fault.action if fault is not None else ""
        self._writer.append_bytes(
            name,
            serialize_cali(profile, corrupt_crc=action == "corrupt"),
            interrupted=action == "raise",
        )
        return member_ref(self.ref_archive, name)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


# ------------------------------------------------------------------ reading
def _read_footer(handle: BinaryIO) -> tuple[int, int, int] | None:
    """``(index_off, index_len, crc32)`` from the footer, or None."""
    size = os.fstat(handle.fileno()).st_size
    handle.seek(max(0, size - _FOOTER_TAIL))
    tail = handle.read()
    at = tail.rfind(b"#calipack-footer ")
    if at < 0:
        return None
    match = _FOOTER_RE.match(tail[at:])
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2)), int(match.group(3), 16)


#: sealed archives whose parsed index one process keeps (LRU beyond it)
INDEX_MEMO_SIZE = 4

# Resolved path -> parsed index. Daemon HTTP threads and the scheduler
# thread read archives concurrently, hence the lock.
_index_memo: OrderedDict[Path, "SealedIndex"] = OrderedDict()
_index_memo_lock = threading.Lock()


class SealedIndex:
    """One archive's verified, parsed index, shared by every reader.

    Memoized per process (:func:`sealed_index`), so nothing here is
    handed out mutably: ``entries`` is a tuple of frozen entries whose
    ``attrs`` are read-only mappings and ``metrics`` tuples. Readers
    that derive more from the index (``thicket.ingest``'s columnar
    view) keep it in ``derived``, so it lives and dies with the parse
    it came from.
    """

    __slots__ = ("raw", "entries", "derived")

    def __init__(self, raw: bytes, entries: tuple[ArchiveEntry, ...]) -> None:
        self.raw = raw
        self.entries = entries
        self.derived = Derived()


def sealed_index(path: str | Path) -> SealedIndex:
    """The archive's verified index, parsed at most once per content.

    Every call re-checks the magic, the footer, the exact index length
    and the index CRC through one handle. The parse is then reused only
    when the verified index bytes *equal* the memoized ones: mtime and
    size are never trusted, so any rewrite that changes the index,
    same-size and mtime-restored included, parses afresh. Raises
    :class:`CalipackError` for a missing/damaged footer or index.
    """
    p = Path(path)
    raw = _read_verified_index(p)
    key = p.resolve()
    with _index_memo_lock:
        hit = _index_memo.get(key)
        if hit is not None and hit.raw == raw:
            _index_memo.move_to_end(key)
            return hit
    index = SealedIndex(raw, _decode_index(p, raw))
    with _index_memo_lock:
        _index_memo[key] = index
        _index_memo.move_to_end(key)
        while len(_index_memo) > INDEX_MEMO_SIZE:
            _index_memo.popitem(last=False)
    return index


def clear_index_memo() -> None:
    """Forget every memoized index (cold-start measurements, tests)."""
    with _index_memo_lock:
        _index_memo.clear()


def _read_verified_index(p: Path) -> bytes:
    with open(p, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise CalipackError(f"{p}: not a calipack archive")
        footer = _read_footer(handle)
        if footer is None:
            raise CalipackError(f"{p}: no archive footer (unfinished archive?)")
        index_off, index_len, declared_crc = footer
        handle.seek(index_off)
        raw = handle.read(index_len)
    if len(raw) != index_len:
        raise CalipackError(f"{p}: index truncated")
    if zlib.crc32(raw) & 0xFFFFFFFF != declared_crc:
        raise CalipackError(f"{p}: index CRC mismatch")
    return raw


def _decode_index(p: Path, raw: bytes) -> tuple[ArchiveEntry, ...]:
    """The one JSON decode of a verified index (frozen entries)."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CalipackError(f"{p}: unreadable index ({exc})") from exc
    if payload.get("format") != INDEX_FORMAT:
        raise CalipackError(f"{p}: not a {INDEX_FORMAT} index")
    return tuple(
        ArchiveEntry(
            name=e["name"],
            offset=int(e["offset"]),
            length=int(e["length"]),
            crc32=int(e["crc32"], 16),
            attrs=_frozen_attrs(e.get("attrs")),
            metrics=None if e.get("metrics") is None else tuple(e["metrics"]),
        )
        for e in payload.get("entries", [])
    )


def _frozen_attrs(attrs: dict | None) -> Mapping[str, object] | None:
    if attrs is None:
        return None
    return MappingProxyType({
        name: NONSCALAR_ATTR if is_nonscalar_attr(value) else value
        for name, value in attrs.items()
    })


def load_index(path: str | Path) -> list[ArchiveEntry]:
    """The archive's sealed entry index (verifying its CRC).

    Raises :class:`CalipackError` for a missing/damaged footer or index
    — callers that want salvage semantics use :func:`scan_entries`.
    """
    return list(sealed_index(path).entries)


def extract_entry_schema(
    data: bytes,
) -> tuple[dict, list[str], list[str]] | None:
    """``(attrs, metric_names, global_names)`` from sealed ``.cali`` bytes.

    ``attrs`` maps each global to its scalar value, or to
    :data:`NONSCALAR_ATTR` when the value is structured. Metric names
    come back in document (first-seen walk) order, matching the column
    order the columnar composer produces. Damaged or non-JSON entries
    return None.
    """
    status, _, payload = _analyze_bytes(data)
    if status not in ("ok", "unsealed"):
        return None
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(doc, dict):
        return None
    globals_ = doc.get("globals")
    if not isinstance(globals_, dict):
        globals_ = {}
    attrs: dict[str, object] = {}
    for key, value in globals_.items():
        if value is None or isinstance(value, (str, int, float, bool)):
            attrs[str(key)] = value
        else:
            attrs[str(key)] = dict(NONSCALAR_ATTR)
    metrics: dict[str, None] = {}
    records = doc.get("records")
    stack = list(reversed(records)) if isinstance(records, list) else []
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            continue
        node_metrics = node.get("metrics")
        if isinstance(node_metrics, dict):
            for name in node_metrics:
                metrics.setdefault(str(name))
        children = node.get("children")
        if isinstance(children, list):
            stack.extend(reversed(children))
    return attrs, list(metrics), [str(k) for k in globals_]


def is_nonscalar_attr(value: object) -> bool:
    """True for the :data:`NONSCALAR_ATTR` sentinel (or any structured
    attr value a future writer might store): anything but a JSON
    scalar."""
    return not (value is None or isinstance(value, (str, int, float, bool)))


def scan_frames(path: str | Path) -> tuple[list[ArchiveEntry], int]:
    """Every *complete* entry frame in append order, duplicates included.

    The raw framing walk behind :func:`scan_entries`, without the
    last-wins dedup — retention's archive compaction uses it to count
    (and then drop) superseded duplicate frames. ``good_end`` is the
    offset just past the last complete entry.
    """
    p = Path(path)
    raw = p.read_bytes()
    if not raw.startswith(MAGIC):
        raise CalipackError(f"{p}: not a calipack archive")
    frames: list[ArchiveEntry] = []
    pos = len(MAGIC)
    good_end = pos
    while pos < len(raw):
        match = _ENTRY_RE.match(raw, pos)
        if match is None:
            break  # index / footer / partial tail
        length = int(match.group(2))
        offset = match.end()
        if offset + length > len(raw):
            break  # truncated final entry: drop it
        data = raw[offset : offset + length]
        name = match.group(1).decode("ascii", "replace")
        frames.append(
            ArchiveEntry(
                name=name,
                offset=offset,
                length=length,
                crc32=zlib.crc32(data) & 0xFFFFFFFF,
            )
        )
        pos = offset + length
        good_end = pos
    return frames, good_end


def scan_entries(path: str | Path) -> tuple[list[ArchiveEntry], int]:
    """Salvage scan: walk the entry framing headers directly.

    Returns ``(entries, good_end)`` where ``good_end`` is the offset
    just past the last *complete* entry — a partial tail (crashed
    append) or an old index/footer region is excluded. Works on
    unfinished (footer-less) segments; last-wins on duplicate names.
    """
    frames, good_end = scan_frames(path)
    entries: dict[str, ArchiveEntry] = {}
    for entry in frames:
        entries[entry.name] = entry
    return list(entries.values()), good_end


def load_entries(path: str | Path) -> list[ArchiveEntry]:
    """Index when sealed, salvage scan otherwise (crashed segments)."""
    try:
        return load_index(path)
    except CalipackError:
        entries, _ = scan_entries(path)
        return entries


def read_entry_bytes(
    path: str | Path, entry: ArchiveEntry, verify: bool = True
) -> bytes:
    """One entry's stored (sealed ``.cali``) bytes, CRC-checked."""
    with open(path, "rb") as handle:
        handle.seek(entry.offset)
        data = handle.read(entry.length)
    if len(data) != entry.length:
        raise ValueError(
            f"{member_ref(path, entry.name)}: truncated archive entry "
            f"({len(data)} of {entry.length} bytes)"
        )
    if verify and zlib.crc32(data) & 0xFFFFFFFF != entry.crc32:
        raise ValueError(
            f"{member_ref(path, entry.name)}: corrupt archive entry "
            f"(index CRC mismatch)"
        )
    return data


def find_entry(path: str | Path, name: str) -> ArchiveEntry:
    for entry in load_entries(path):
        if entry.name == name:
            return entry
    raise KeyError(f"{path}: no archive entry named {name!r}")


def verify_entry(path: str | Path, entry: ArchiveEntry) -> tuple[str, str]:
    """Classify one entry like ``verify_cali``: archive CRC, then seal."""
    with open(path, "rb") as handle:
        handle.seek(entry.offset)
        data = handle.read(entry.length)
    if len(data) != entry.length:
        return "truncated", f"{len(data)} of {entry.length} entry bytes on disk"
    if zlib.crc32(data) & 0xFFFFFFFF != entry.crc32:
        return "corrupt", "archive index CRC mismatch"
    status, detail, payload = _analyze_bytes(data)
    if status in ("ok", "unsealed"):
        try:
            json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return "corrupt", f"sealed payload is not JSON ({exc})"
    return status, detail


# --------------------------------------------------------------- conversion
def write_archive(path: Path, items) -> None:
    """Write a fresh sealed archive at ``path`` from ``(name, bytes)``
    pairs, in order — the one rebuild every rewrite of an archive uses.

    Any error while the pairs are produced or appended aborts the writer
    and removes the partial file before it propagates; the caller owns
    the scratch name and the swap into place.
    """
    writer = CalipackWriter(path)
    try:
        for name, data in items:
            writer.append_bytes(name, data)
    except BaseException:
        writer.abort()
        path.unlink(missing_ok=True)
        raise
    writer.close()


def pack_directory(
    directory: str | Path,
    archive: str | Path | None = None,
    remove: bool = True,
) -> tuple[Path, list[ArchiveEntry]]:
    """Pack every loose ``.cali`` in ``directory`` into one archive.

    Entries store the files' bytes verbatim (seals included). With
    ``remove`` (the default) the loose files are deleted afterwards and
    the campaign manifest's ``file`` fields are rewritten to
    ``<archive>::<name>`` member refs. The archive is built in a tmp
    sibling and durably replaced, so a crash mid-pack loses nothing.
    """
    directory = Path(directory)
    target = Path(archive) if archive is not None else directory / ARCHIVE_NAME
    files = sorted(directory.glob("*.cali"))
    tmp = tmp_sibling(target)

    def items():
        if target.exists():  # repack: carry existing entries over
            for entry in load_entries(target):
                yield entry.name, read_entry_bytes(target, entry)
        for path in files:
            yield path.name, path.read_bytes()

    write_archive(tmp, items())
    durable_replace(tmp, target)
    entries = load_index(target)
    if remove:
        for path in files:
            path.unlink()
        _rewrite_manifest_refs(directory, target, pack=True)
    return target, entries


def unpack_archive(
    archive: str | Path,
    directory: str | Path | None = None,
    remove: bool = True,
) -> list[Path]:
    """Restore an archive's entries as loose ``.cali`` files (verbatim)."""
    archive = Path(archive)
    directory = Path(directory) if directory is not None else archive.parent
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for entry in load_entries(archive):
        out = directory / entry.name
        tmp = tmp_sibling(out)
        tmp.write_bytes(read_entry_bytes(archive, entry))
        durable_replace(tmp, out)
        written.append(out)
    if remove:
        archive.unlink()
        _rewrite_manifest_refs(directory, archive, pack=False)
    return written


def _rewrite_manifest_refs(directory: Path, archive: Path, pack: bool) -> None:
    """Point manifest ``file`` fields at the archive (or back at files)."""
    from repro.suite.manifest import MANIFEST_NAME, CampaignManifest

    try:
        manifest = CampaignManifest.read(directory / MANIFEST_NAME)
    except (OSError, ValueError):
        return
    if manifest is None:
        return
    changed = False
    for key, entry in manifest.cells.items():
        file = entry.get("file")
        if not file:
            continue
        ref = split_member_ref(file)
        if pack and ref is None:
            file = member_ref(archive, Path(file).name)
        elif not pack and ref is not None:
            file = str(directory / ref[1])
        else:
            continue
        manifest.record(
            key,
            entry.get("status"),
            file=file,
            failed_kernels=entry.get("failed_kernels"),
            elapsed_s=entry.get("elapsed_s"),
            rerun_reason=entry.get("rerun_reason"),
        )
        changed = True
    if changed:
        manifest.compact()


def _natural_key(name: str) -> tuple:
    """Numeric-aware sort key: ``worker-2`` orders before ``worker-10``.

    Plain lexicographic ordering folds ``worker-10`` before ``worker-2``,
    which inverts last-wins precedence for respawned workers whose ids
    passed one digit width. Digit runs compare as integers; text runs as
    text (tagged so mixed shapes stay comparable).
    """
    return tuple(
        (0, int(part)) if part.isdigit() else (1, part)
        for part in re.split(r"(\d+)", name)
        if part
    )


def _merge_archives(sources: list[Path], target: Path) -> Path:
    """Fold ``sources`` (in order, last-wins) into ``target`` canonically.

    The merged archive is rebuilt name-sorted in a tmp sibling and
    durably replaced, so its bytes are a pure function of its entry set:
    no matter how many segments or shards produced it, or in what
    completion order entries arrived, the same entries give the same
    archive — the property the sharded merge's bit-identity guarantee
    rests on.
    """
    entries: dict[str, tuple[Path, ArchiveEntry]] = {}
    for source in sources:
        for entry in load_entries(source):
            entries[entry.name] = (source, entry)
    tmp = tmp_sibling(target)
    # verify=False: damaged entries carry over byte-for-byte — detecting
    # and quarantining them is fsck's job, and a merge must never fail a
    # campaign over one bad profile.
    write_archive(tmp, (
        (name, read_entry_bytes(*entries[name], verify=False))
        for name in sorted(entries)
    ))
    durable_replace(tmp, target)
    return target


def canonicalize_archive(archive: str | Path) -> Path | None:
    """Rewrite an archive into its canonical (name-sorted) sealed form.

    Appends land in completion order, which resume, retry, and worker
    scheduling legitimately permute. Campaign completion canonicalizes
    the archive so serial, supervised, and sharded runs over the same
    cells end with byte-identical ``campaign.calipack`` files.
    """
    target = Path(archive)
    if not target.exists():
        return None
    return _merge_archives([target], target)


def merge_segments(
    directory: str | Path, archive: str | Path | None = None
) -> Path | None:
    """Merge ``segments/*.calipack`` into the campaign archive.

    The supervisor calls this on drain; campaign startup calls it too,
    so segments stranded by a crash are salvaged (footer-less segments
    go through the recovery scan). Segments fold in numeric-aware name
    order (``worker-2`` before ``worker-10``) with last-wins dedup, and
    the merged archive is rebuilt canonically (tmp + durable replace)
    before any segment is deleted — a crash between the replace and the
    deletions just re-merges idempotently. Returns the archive path, or
    None when there was nothing to merge.
    """
    directory = Path(directory)
    seg_dir = directory / SEGMENT_DIR
    segments = (
        sorted(
            seg_dir.glob("*" + ARCHIVE_SUFFIX),
            key=lambda p: _natural_key(p.name),
        )
        if seg_dir.is_dir()
        else []
    )
    if not segments:
        return None
    target = Path(archive) if archive is not None else directory / ARCHIVE_NAME
    sources = ([target] if target.exists() else []) + segments
    _merge_archives(sources, target)
    # Merged archive durable, no segment deleted yet: a crash here must
    # leave a re-runnable merge (last-wins dedup makes it idempotent).
    fault_point("calipack.mid-merge", path=target)
    for segment in segments:
        segment.unlink()
        # Between two segment deletions: the survivors re-merge into the
        # already-folded archive without changing it.
        fault_point("calipack.post-merge-unlink", path=target)
    try:
        seg_dir.rmdir()
    except OSError:
        pass
    return target


def merge_shards(
    directory: str | Path,
    shard_archives: list[str | Path],
    archive: str | Path | None = None,
) -> Path | None:
    """Fold per-shard archives into the campaign archive in one pass.

    Any existing campaign archive comes first, then the shard archives
    in the caller's order, through the same canonical rewrite as
    :func:`merge_segments` (tmp + durable replace). Last-wins holds
    across the whole concatenation, so callers order ``shard_archives``
    with superseded (failed, reassigned-away) shards first. A crash
    mid-merge leaves the campaign archive as it was and the shard
    archives intact, so the merge simply re-runs; shard archives are
    never deleted.
    """
    directory = Path(directory)
    target = Path(archive) if archive is not None else directory / ARCHIVE_NAME
    sources = [Path(p) for p in shard_archives if Path(p).exists()]
    if not sources:
        return None
    return _merge_archives(([target] if target.exists() else []) + sources, target)
