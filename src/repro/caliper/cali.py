"""``.cali`` profile serialization with an integrity-sealed footer.

Real Caliper writes a compact binary/text format; Thicket only needs the
structure (region tree, metrics, globals), so we serialize that structure
as JSON with a format marker and version. Round-trip fidelity is asserted
by tests.

Every file is *sealed*: after the JSON payload the writer appends a
one-line footer carrying the payload's byte length and CRC32::

    {... JSON payload ...}
    #cali-footer v1 len=8412 crc32=9fb31a02

Readers verify the seal before parsing, so a truncated or bit-rotted
profile is detected eagerly (``ValueError``) instead of poisoning a
Thicket composition hours later. :func:`verify_cali` classifies a file
without loading it (``ok`` / ``unsealed`` / ``truncated`` / ``corrupt``)
— the primitive behind ``rajaperf-sim fsck``. Pre-seal files (valid JSON,
no footer) still load and classify as ``unsealed``.

Writes are crash-safe: payload + footer land in a fsynced ``.tmp``
sibling which is ``os.replace``d over the target, then the directory is
fsynced — a crash (or injected I/O fault) mid-write never leaves a
truncated ``.cali`` under the target name.
"""

from __future__ import annotations

import json
import re
import zlib
from pathlib import Path
from typing import Any

from repro.caliper.records import CaliProfile, RegionRecord
from repro.faults import fault_point
from repro.util.fsio import tmp_sibling, write_durable_bytes

FORMAT_NAME = "cali-json"
FORMAT_VERSION = 1

FOOTER_MARKER = "#cali-footer"
FOOTER_VERSION = 1
_FOOTER_RE = re.compile(
    rf"{FOOTER_MARKER} v(\d+) len=(\d+) crc32=([0-9a-fA-F]{{8}})$"
)

#: verify_cali statuses
STATUS_OK = "ok"
STATUS_UNSEALED = "unsealed"
STATUS_TRUNCATED = "truncated"
STATUS_CORRUPT = "corrupt"


def _node_to_dict(node: RegionRecord) -> dict[str, Any]:
    return {
        "name": node.name,
        "metrics": dict(node.metrics),
        "children": [_node_to_dict(child) for child in node.children],
    }


def _node_from_dict(data: dict[str, Any], parent_path: tuple[str, ...]) -> RegionRecord:
    path = parent_path + (data["name"],)
    node = RegionRecord(name=data["name"], path=path, metrics=dict(data["metrics"]))
    node.children = [_node_from_dict(c, path) for c in data.get("children", [])]
    return node


def footer_line(payload: bytes, crc: int | None = None) -> str:
    """The seal for ``payload`` (``crc`` overrides, for fault injection)."""
    if crc is None:
        crc = zlib.crc32(payload) & 0xFFFFFFFF
    return f"{FOOTER_MARKER} v{FOOTER_VERSION} len={len(payload)} crc32={crc:08x}"


def serialize_cali(profile: CaliProfile, corrupt_crc: bool = False) -> bytes:
    """The exact sealed bytes of a ``.cali`` file: compact payload + footer.

    Payloads are written compact (no indentation) — smaller files, and a
    faster CRC + parse on every later ingest. ``corrupt_crc`` seals with
    a deliberately wrong CRC (the ``FOOTER_CORRUPTION`` fault).
    """
    payload_obj = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "globals": profile.globals,
        "records": [_node_to_dict(root) for root in profile.roots],
    }
    payload = json.dumps(
        payload_obj, separators=(",", ":"), default=_jsonable
    ).encode("utf-8")
    crc = None
    if corrupt_crc:
        crc = (zlib.crc32(payload) ^ 0xFFFFFFFF) & 0xFFFFFFFF
    return payload + ("\n" + footer_line(payload, crc) + "\n").encode("ascii")


def write_cali(profile: CaliProfile, path: str | Path) -> Path:
    """Serialize a profile to a sealed ``.cali`` (JSON) file; returns the path.

    The write is atomic and durable: payload + CRC32 footer land in a
    fsynced ``.tmp`` sibling which is then ``os.replace``d over the
    target (directory fsynced), so a crash (or injected I/O fault)
    mid-write never leaves a truncated ``.cali`` that would later
    poison analysis. Raises :class:`OSError` on failure; the target is
    untouched in that case.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    fault = fault_point("profile.seal", path=out.name)
    # Bit-rot simulation: the write completes, but the seal is wrong.
    corrupt = fault is not None and fault.action == "corrupt"
    data = serialize_cali(profile, corrupt_crc=corrupt)
    if fault is not None and fault.action == "raise":
        # Simulate an interrupted write: a truncated tmp file, then the
        # failure. The target file must remain absent/intact.
        tmp_sibling(out).write_bytes(data[: max(1, len(data) // 2)])
        raise OSError(f"injected I/O write failure for {out}")
    return write_durable_bytes(out, data)


def _analyze_bytes(raw: bytes) -> tuple[str, str, bytes]:
    """Classify raw ``.cali`` bytes: (status, detail, payload).

    ``status`` is one of :data:`STATUS_OK` (seal verified),
    :data:`STATUS_UNSEALED` (no footer, payload parses), or the damage
    classes :data:`STATUS_TRUNCATED` / :data:`STATUS_CORRUPT`.
    """
    text_match = re.search(rb"\n(#cali-footer [^\n]*)\n?$", raw)
    if text_match is not None:
        payload = raw[: text_match.start()]
        try:
            footer_text = text_match.group(1).decode("ascii")
        except UnicodeDecodeError:
            return STATUS_CORRUPT, "undecodable footer", payload
        parsed = _FOOTER_RE.match(footer_text)
        if parsed is None:
            # A footer that starts correctly but does not scan is almost
            # always a write cut off mid-seal.
            return STATUS_TRUNCATED, "incomplete integrity footer", payload
        declared_len = int(parsed.group(2))
        declared_crc = int(parsed.group(3), 16)
        if len(payload) < declared_len:
            return (
                STATUS_TRUNCATED,
                f"payload is {len(payload)} bytes, footer declares {declared_len}",
                payload,
            )
        if len(payload) > declared_len:
            return (
                STATUS_CORRUPT,
                f"payload is {len(payload)} bytes, footer declares {declared_len}",
                payload,
            )
        actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
        if actual_crc != declared_crc:
            return (
                STATUS_CORRUPT,
                f"crc32 {actual_crc:08x} != declared {declared_crc:08x}",
                payload,
            )
        return STATUS_OK, "", payload
    # No complete footer. A partial marker at EOF is a truncated seal.
    marker = FOOTER_MARKER.encode("ascii")
    for length in range(len(marker), 1, -1):
        if raw.endswith(b"\n" + marker[:length]):
            return STATUS_TRUNCATED, "file ends inside the integrity footer", raw
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return STATUS_CORRUPT, f"not utf-8 ({exc})", raw
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        if "Unterminated" in exc.msg or exc.pos >= len(text.rstrip()):
            return STATUS_TRUNCATED, f"JSON cut short ({exc.msg})", raw
        return STATUS_CORRUPT, f"invalid JSON ({exc.msg} at pos {exc.pos})", raw
    return STATUS_UNSEALED, "no integrity footer (pre-seal file)", raw


def verify_cali(path: str | Path) -> tuple[str, str]:
    """Integrity-check one ``.cali`` file without building a profile.

    Returns ``(status, detail)`` with status ``ok`` / ``unsealed`` /
    ``truncated`` / ``corrupt``. Never raises for damaged content (an
    unreadable *path* still raises :class:`OSError`).
    """
    raw = Path(path).read_bytes()
    status, detail, payload = _analyze_bytes(raw)
    if status in (STATUS_OK, STATUS_UNSEALED):
        # The seal guards bytes, not semantics — a sealed file written
        # by a buggy producer could still be non-JSON.
        try:
            json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return STATUS_CORRUPT, f"sealed payload is not JSON ({exc})"
    return status, detail


def parse_cali_payload(raw: bytes, source: str = "<bytes>") -> dict[str, Any]:
    """Raw sealed/unsealed ``.cali`` bytes -> the validated payload dict.

    The columnar ingest path stops here (it walks the plain dict tree
    instead of building :class:`RegionRecord` objects); :func:`read_cali`
    continues to a full profile. Damage raises :class:`ValueError` with
    the damage class in the message.
    """
    status, detail, payload_bytes = _analyze_bytes(raw)
    if status in (STATUS_TRUNCATED, STATUS_CORRUPT):
        raise ValueError(f"{source}: {status} .cali file: {detail}")
    payload = json.loads(payload_bytes.decode("utf-8"))
    if payload.get("format") != FORMAT_NAME:
        raise ValueError(f"{source}: not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{source}: unsupported version {payload.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return payload


def profile_from_payload(payload: dict[str, Any]) -> CaliProfile:
    """Build a full :class:`CaliProfile` from a parsed payload dict."""
    profile = CaliProfile(globals=dict(payload.get("globals", {})))
    profile.roots = [_node_from_dict(r, ()) for r in payload.get("records", [])]
    return profile


def read_cali(path: str | Path) -> CaliProfile:
    """Load a profile written by :func:`write_cali`, verifying its seal.

    A truncated or corrupt file raises :class:`ValueError` with the
    damage class in the message; unsealed (pre-footer) files still load.
    """
    return profile_from_payload(
        parse_cali_payload(Path(path).read_bytes(), str(path))
    )


def sealed_crc32(path: str | Path) -> int:
    """A ``.cali`` file's content identity *without* reading the payload.

    Sealed files declare their payload CRC32 in the footer — read just
    the tail and trust the seal (ingest verifies it before parsing
    anyway). Unsealed/damaged files fall back to a CRC over the whole
    file. This is what keys the content-addressed ingest cache.
    """
    p = Path(path)
    size = p.stat().st_size
    with open(p, "rb") as handle:
        handle.seek(max(0, size - 256))
        tail = handle.read()
    match = re.search(rb"\n(#cali-footer [^\n]*)\n?$", tail)
    if match is not None:
        parsed = _FOOTER_RE.match(match.group(1).decode("ascii", "replace"))
        if parsed is not None:
            return int(parsed.group(3), 16)
    return zlib.crc32(p.read_bytes()) & 0xFFFFFFFF


def _jsonable(value: Any) -> Any:
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
    except ImportError:  # pragma: no cover
        pass
    raise TypeError(f"cannot serialize {type(value)} to .cali JSON")
