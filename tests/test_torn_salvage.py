"""Torn-write salvage sweeps: every byte-boundary truncation is safe.

A torn write leaves an arbitrary prefix of the in-flight bytes on disk.
These sweeps truncate a sealed ``.calipack`` archive at *every* byte
boundary of its final entry, index, and footer, and a cache sidecar at
every boundary, asserting the recovery contract at each one:

* archive: :func:`~repro.caliper.calipack.load_entries` either salvages
  (returning entries whose bytes verify against the original) or raises
  an explicit :class:`~repro.caliper.calipack.CalipackError` — it never
  hands back wrong bytes;
* ingest cache: :func:`~repro.thicket.ingest_cache.load` always reports
  a silent miss (``None``) — never an exception, never a stale hit;
* job store: every truncation or bit-flip of a sealed job record or
  retention tombstone either raises the explicit damage error
  (:class:`~repro.service.jobstore.JobRecordDamaged` /
  :class:`~repro.service.jobstore.TombstoneDamaged`) or resolves to the
  byte-identical payload — a torn tombstone can never condemn a
  different job.
"""

import json
import zlib

import numpy as np
import pytest

from repro.caliper import calipack
from repro.caliper.cali import footer_line
from repro.dataframe import Frame
from repro.service import jobstore
from repro.thicket import ingest_cache


def _sealed_payload(tag: str, size: int = 40) -> bytes:
    """A minimal sealed .cali byte string with deterministic content."""
    body = json.dumps({"tag": tag, "pad": "x" * size}).encode()
    return body + b"\n" + footer_line(body).encode() + b"\n"


@pytest.fixture
def archive(tmp_path):
    """A sealed two-entry archive plus its pristine bytes and payloads."""
    path = tmp_path / "campaign.calipack"
    payloads = {
        "a.cali": _sealed_payload("a"),
        "b.cali": _sealed_payload("b"),
    }
    writer = calipack.CalipackWriter(path)
    for name, data in payloads.items():
        writer.append_bytes(name, data)
    writer.close()
    return path, path.read_bytes(), payloads


def _entry_b_offset(pristine: bytes) -> int:
    """Byte offset where the final entry's framing header starts."""
    at = pristine.find(b"#calipack-entry name=b.cali ")
    assert at > 0
    return at


class TestArchiveTruncationSweep:
    def test_every_boundary_salvages_or_errors(self, tmp_path, archive):
        path, pristine, payloads = archive
        start = _entry_b_offset(pristine)
        wrong = []
        for cut in range(start, len(pristine)):
            path.write_bytes(pristine[:cut])
            try:
                entries = calipack.load_entries(path)
            except calipack.CalipackError:
                continue  # explicit error: acceptable
            for entry in entries:
                try:
                    data = calipack.read_entry_bytes(path, entry, verify=True)
                except ValueError:
                    continue  # explicit per-entry error: acceptable
                if data != payloads.get(entry.name):
                    wrong.append((cut, entry.name))
        assert not wrong, f"wrong bytes served at truncations: {wrong[:5]}"

    def test_truncation_before_final_entry_keeps_first(self, archive):
        path, pristine, payloads = archive
        path.write_bytes(pristine[: _entry_b_offset(pristine)])
        entries = calipack.load_entries(path)  # salvage scan, no footer
        assert [e.name for e in entries] == ["a.cali"]
        assert calipack.read_entry_bytes(path, entries[0]) == payloads["a.cali"]

    def test_mid_final_entry_drops_partial_tail(self, archive):
        path, pristine, payloads = archive
        start = _entry_b_offset(pristine)
        # cut inside b's payload: salvage must drop b, keep a
        path.write_bytes(pristine[: start + 40])
        names = {e.name for e in calipack.load_entries(path)}
        assert "a.cali" in names
        if "b.cali" in names:  # only acceptable if the bytes still verify
            entry = calipack.find_entry(path, "b.cali")
            assert calipack.read_entry_bytes(path, entry) == payloads["b.cali"]

    def test_footer_only_torn_still_full_archive(self, archive):
        path, pristine, payloads = archive
        footer_at = pristine.rfind(b"#calipack-footer ")
        for cut in range(footer_at, len(pristine)):
            path.write_bytes(pristine[:cut])
            entries = calipack.load_entries(path)  # falls back to scan
            assert {e.name for e in entries} == set(payloads)
            for entry in entries:
                got = calipack.read_entry_bytes(path, entry, verify=True)
                assert got == payloads[entry.name]

    def test_index_torn_preserves_all_entries(self, archive):
        path, pristine, payloads = archive
        index_at = pristine.rfind(b'{"format"')
        footer_at = pristine.rfind(b"#calipack-footer ")
        assert 0 < index_at < footer_at
        for cut in range(index_at, footer_at):
            path.write_bytes(pristine[:cut])
            entries = calipack.load_entries(path)
            assert {e.name for e in entries} == set(payloads)

    def test_corrupt_index_crc_is_explicit(self, archive):
        path, pristine, payloads = archive
        index_at = pristine.rfind(b'{"format"')
        mutated = bytearray(pristine)
        mutated[index_at + 2] ^= 0xFF  # damage the index, keep the footer
        path.write_bytes(bytes(mutated))
        with pytest.raises(calipack.CalipackError, match="CRC"):
            calipack.load_index(path)
        # the salvage path still recovers every entry byte-for-byte
        entries = calipack.load_entries(path)
        assert {e.name for e in entries} == set(payloads)

    def test_seeded_sweep_is_deterministic(self, archive):
        from repro.faults import _torn_prefix

        _, pristine, _ = archive
        span = len(pristine)
        cuts = [_torn_prefix(seed, "campaign.calipack", span)
                for seed in range(8)]
        assert cuts == [_torn_prefix(seed, "campaign.calipack", span)
                        for seed in range(8)]
        assert all(0 <= c <= span for c in cuts)


# ------------------------------------------------------------ ingest cache
@pytest.fixture
def cache_entry(tmp_path):
    """A stored cache entry plus its sources key and pristine bytes."""
    dataframe = Frame({
        "name": np.array(["daxpy", "triad"], dtype=object),
        "Avg time/rank": np.array([1.5, 2.5]),
    })
    metadata = Frame({"profile": np.array(["p1", "p2"], dtype=object)})
    sources = [("a.cali", "00000001"), ("b.cali", "00000002")]
    cache_dir = tmp_path / ingest_cache.CACHE_DIR_NAME
    path = ingest_cache.store(cache_dir, sources, dataframe, metadata)
    return cache_dir, sources, path, path.read_bytes()


class TestCacheSidecarTruncationSweep:
    def test_intact_entry_hits(self, cache_entry):
        cache_dir, sources, _, _ = cache_entry
        hit = ingest_cache.load(cache_dir, sources)
        assert hit is not None
        dataframe, metadata = hit
        assert list(dataframe["Avg time/rank"]) == [1.5, 2.5]
        assert list(metadata["profile"]) == ["p1", "p2"]

    def test_every_truncation_is_silent_miss(self, cache_entry):
        cache_dir, sources, path, pristine = cache_entry
        for cut in range(len(pristine)):
            path.write_bytes(pristine[:cut])
            assert ingest_cache.load(cache_dir, sources) is None, (
                f"truncation at byte {cut} was not a silent miss"
            )

    def test_every_single_byte_flip_is_silent_miss_or_identical(
        self, cache_entry
    ):
        cache_dir, sources, path, pristine = cache_entry
        # sample a seeded spread of positions rather than every byte
        positions = sorted(
            {zlib.crc32(f"flip:{i}".encode()) % len(pristine)
             for i in range(64)}
        )
        for pos in positions:
            mutated = bytearray(pristine)
            mutated[pos] ^= 0xFF
            path.write_bytes(bytes(mutated))
            assert ingest_cache.load(cache_dir, sources) is None, (
                f"corrupt byte {pos} produced a hit"
            )

    def test_changed_source_set_never_hits(self, cache_entry):
        cache_dir, sources, _, _ = cache_entry
        resealed = [(name, "deadbeef") for name, _ in sources]
        assert ingest_cache.load(cache_dir, resealed) is None

    def test_renamed_entry_never_hits(self, cache_entry):
        cache_dir, sources, path, pristine = cache_entry
        other = [("c.cali", "00000003")]
        imposter = ingest_cache.cache_path(cache_dir, ingest_cache.cache_key(other))
        imposter.write_bytes(pristine)  # hand-renamed stale entry
        assert ingest_cache.load(cache_dir, other) is None


# -------------------------------------------------------- job-store seals
@pytest.fixture
def sealed_record():
    """A sealed job record's text plus its canonical payload."""
    record = jobstore.JobRecord(
        job_id="torn-test",
        tenant="acme",
        spec={"problem_size": 1024, "kernels": ["Basic_DAXPY"]},
        state=jobstore.STATE_SUCCEEDED,
        seq=7,
    )
    return jobstore.seal_record(record), record.to_payload()


class TestJobRecordTruncationSweep:
    def test_every_truncation_is_damaged_or_identical(self, sealed_record):
        text, payload = sealed_record
        for cut in range(len(text)):
            try:
                got = jobstore.parse_record_text(text[:cut])
            except jobstore.JobRecordDamaged:
                continue  # explicit damage: acceptable
            # a prefix that still parses must resolve to the same record
            assert got.to_payload() == payload, f"misparse at byte {cut}"

    def test_seeded_byte_flips_never_misparse(self, sealed_record):
        text, payload = sealed_record
        positions = sorted(
            {zlib.crc32(f"flip:{i}".encode()) % len(text)
             for i in range(64)}
        )
        for pos in positions:
            mutated = text[:pos] + chr(ord(text[pos]) ^ 0x01) + text[pos + 1:]
            try:
                got = jobstore.parse_record_text(mutated)
            except jobstore.JobRecordDamaged:
                continue
            assert got.to_payload() == payload, f"misparse at byte {pos}"


class TestTombstoneTruncationSweep:
    """A tombstone authorizes destruction: a torn one must condemn
    nothing (damage is explicit), never resolve to a different job."""

    PAYLOAD = {
        "job_id": "torn-test",
        "tenant": "acme",
        "state": jobstore.STATE_SUCCEEDED,
        "reason": "retention policy",
        "condemned_at": "2026-08-08T00:00:00",
    }

    def test_every_truncation_is_damaged_or_identical(self):
        text = jobstore.seal_tombstone(self.PAYLOAD)
        for cut in range(len(text)):
            try:
                got = jobstore.parse_tombstone_text(text[:cut])
            except jobstore.TombstoneDamaged:
                continue  # explicit damage: condemns nothing
            assert got == self.PAYLOAD, f"misparse at byte {cut}"

    def test_seeded_byte_flips_never_misparse(self):
        text = jobstore.seal_tombstone(self.PAYLOAD)
        positions = sorted(
            {zlib.crc32(f"flip:{i}".encode()) % len(text)
             for i in range(64)}
        )
        for pos in positions:
            mutated = text[:pos] + chr(ord(text[pos]) ^ 0x01) + text[pos + 1:]
            try:
                got = jobstore.parse_tombstone_text(mutated)
            except jobstore.TombstoneDamaged:
                continue
            assert got == self.PAYLOAD, f"misparse at byte {pos}"
