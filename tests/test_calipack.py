"""The ``.calipack`` archive: round trips, crash recovery, fsck healing."""

from __future__ import annotations

import json

import pytest

from repro.caliper import calipack
from repro.caliper.cali import read_cali, serialize_cali, write_cali
from repro.caliper.records import CaliProfile, RegionRecord
from repro import faults
from repro.faults import Fault, FaultPlan
from repro.suite.executor import SuiteExecutor
from repro.suite.fsck import fsck_directory
from repro.suite.run_params import RunParams


def make_profile(tag: str, value: float = 1.0) -> CaliProfile:
    profile = CaliProfile(globals={"machine": "m", "variant": tag})
    root = RegionRecord(name="RAJAPerf", path=("RAJAPerf",), metrics={})
    child = RegionRecord(
        name=f"K_{tag}", path=("RAJAPerf", f"K_{tag}"), metrics={"time": value}
    )
    root.children = [child]
    profile.roots = [root]
    return profile


def small_params(tmp_path, **overrides) -> RunParams:
    defaults = dict(
        problem_size=1000,
        kernels=("Basic_DAXPY",),
        variants=("Base_Seq", "RAJA_Seq"),
        machines=("SPR-DDR",),
        pack=True,
        output_dir=str(tmp_path),
    )
    defaults.update(overrides)
    return RunParams(**defaults)


# ----------------------------------------------------------- archive basics
def test_pack_unpack_round_trip_is_byte_identical(tmp_path):
    originals = {}
    for i in range(5):
        path = write_cali(make_profile(f"v{i}", float(i)), tmp_path / f"p{i}.cali")
        originals[path.name] = path.read_bytes()

    archive, entries = calipack.pack_directory(tmp_path)
    assert sorted(e.name for e in entries) == sorted(originals)
    assert not list(tmp_path.glob("*.cali"))

    for entry in entries:
        assert calipack.read_entry_bytes(archive, entry) == originals[entry.name]

    restored = calipack.unpack_archive(archive)
    assert not archive.exists()
    assert {p.name: p.read_bytes() for p in restored} == originals
    for path in restored:
        read_cali(path)  # seals survived the round trip


def test_entry_replacement_is_last_wins(tmp_path):
    archive = tmp_path / "a.calipack"
    with calipack.CalipackWriter(archive) as writer:
        writer.append_profile("x.cali", make_profile("old", 1.0))
        writer.append_profile("x.cali", make_profile("new", 2.0))
    entries = calipack.load_index(archive)
    assert len(entries) == 1
    data = calipack.read_entry_bytes(archive, entries[0])
    assert data == serialize_cali(make_profile("new", 2.0))


def test_member_ref_round_trip():
    ref = calipack.member_ref("/camp/campaign.calipack", "p.cali")
    assert calipack.split_member_ref(ref) == ("/camp/campaign.calipack", "p.cali")
    assert calipack.split_member_ref("/camp/plain.cali") is None
    assert calipack.split_member_ref("no-archive::p.cali") is None


def test_salvage_scan_recovers_unfinished_segment(tmp_path):
    """A crashed (footer-less) segment still yields its complete entries."""
    archive = tmp_path / "seg.calipack"
    writer = calipack.CalipackWriter(archive)
    writer.append_profile("a.cali", make_profile("a"))
    writer.append_profile("b.cali", make_profile("b"))
    writer.abort()  # no index, no footer: the crash case

    with pytest.raises(calipack.CalipackError):
        calipack.load_index(archive)
    names = sorted(e.name for e in calipack.load_entries(archive))
    assert names == ["a.cali", "b.cali"]


def test_interrupted_append_is_dropped_and_writer_recovers(tmp_path):
    archive = tmp_path / "seg.calipack"
    writer = calipack.CalipackWriter(archive)
    writer.append_profile("a.cali", make_profile("a"))
    with FaultPlan(
        [Fault(site="calipack.append", path="b.cali")]
    ):
        with pytest.raises(OSError):
            writer.append_profile("b.cali", make_profile("b"))
    writer.abort()

    # The partial tail is invisible to the scan...
    entries, _ = calipack.scan_entries(archive)
    assert [e.name for e in entries] == ["a.cali"]
    # ...and a reopened writer truncates it before appending.
    with calipack.CalipackWriter(archive) as writer2:
        writer2.append_profile("c.cali", make_profile("c"))
    names = sorted(e.name for e in calipack.load_index(archive))
    assert names == ["a.cali", "c.cali"]
    for entry in calipack.load_index(archive):
        assert calipack.verify_entry(archive, entry) == ("ok", "")


def test_merge_segments_combines_and_removes(tmp_path):
    seg_dir = tmp_path / calipack.SEGMENT_DIR
    for worker, tags in enumerate((("a", "b"), ("c",))):
        with calipack.CalipackWriter(
            seg_dir / f"worker-{worker}.calipack"
        ) as writer:
            for tag in tags:
                writer.append_profile(f"{tag}.cali", make_profile(tag))

    merged = calipack.merge_segments(tmp_path)
    assert merged == tmp_path / calipack.ARCHIVE_NAME
    assert sorted(e.name for e in calipack.load_index(merged)) == [
        "a.cali", "b.cali", "c.cali",
    ]
    assert not seg_dir.exists()
    assert calipack.merge_segments(tmp_path) is None  # nothing left


def test_merge_segments_orders_worker_segments_numerically(tmp_path):
    """``worker-10`` merges *after* ``worker-2``: last-wins must follow
    worker numbers, not lexicographic filename order."""
    seg_dir = tmp_path / calipack.SEGMENT_DIR
    for worker, value in ((10, 10.0), (2, 2.0)):
        with calipack.CalipackWriter(
            seg_dir / f"worker-{worker}.calipack"
        ) as writer:
            writer.append_profile("dup.cali", make_profile("dup", value))

    merged = calipack.merge_segments(tmp_path)
    (entry,) = calipack.load_index(merged)
    data = calipack.read_entry_bytes(merged, entry)
    assert data == serialize_cali(make_profile("dup", 10.0))


def test_merge_shards_folds_in_one_pass_with_last_wins(tmp_path):
    """The existing campaign archive, then the shard archives in caller
    order: a later source wins a duplicate, and no shard archive or
    intermediate is left changed or behind."""
    target = tmp_path / calipack.ARCHIVE_NAME
    with calipack.CalipackWriter(target) as writer:
        writer.append_profile("x.cali", make_profile("x", 0.0))
    shards = []
    for i, extra in enumerate(("a", "b", "c")):
        shard = tmp_path / f"shard-{i}.calipack"
        with calipack.CalipackWriter(shard) as writer:
            if i < 2:
                writer.append_profile("x.cali", make_profile("x", i + 1.0))
            writer.append_profile(f"{extra}.cali", make_profile(extra))
        shards.append(shard)
    before = [shard.read_bytes() for shard in shards]

    merged = calipack.merge_shards(tmp_path, shards)
    entries = {e.name: e for e in calipack.load_index(merged)}
    assert sorted(entries) == ["a.cali", "b.cali", "c.cali", "x.cali"]
    assert calipack.read_entry_bytes(merged, entries["x.cali"]) == serialize_cali(
        make_profile("x", 2.0)
    )
    assert [shard.read_bytes() for shard in shards] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [calipack.ARCHIVE_NAME] + [shard.name for shard in shards]
    )


def test_merged_archive_is_byte_stable_across_creation_order(tmp_path):
    """The merged archive is a pure function of the entry set: shuffling
    the order segments were created (and hence their mtimes and the
    append order within the sweep) must not change a single byte."""
    orders = (("0", "1", "2"), ("2", "0", "1"))
    archives = []
    for sub, order in zip(("a", "b"), orders):
        outdir = tmp_path / sub
        seg_dir = outdir / calipack.SEGMENT_DIR
        for worker in order:
            with calipack.CalipackWriter(
                seg_dir / f"worker-{worker}.calipack"
            ) as writer:
                writer.append_profile(
                    f"p{worker}.cali", make_profile(worker, float(worker))
                )
        archives.append(calipack.merge_segments(outdir).read_bytes())
    assert archives[0] == archives[1]


def _merge_armed(directory, schedule):
    faults.install(FaultPlan([schedule]))
    calipack.merge_segments(directory)


def test_remerge_after_partial_segment_unlink_is_idempotent(tmp_path):
    """Crash between the two segment deletions (the
    ``calipack.post-merge-unlink`` boundary): the merged archive is
    already durable, one segment is gone, one remains. Re-running the
    merge must converge on byte-identical output."""
    import multiprocessing

    from repro.faults import CHAOS_KILL_EXITCODE

    def seed_segments(outdir):
        seg_dir = outdir / calipack.SEGMENT_DIR
        for worker, tags in enumerate((("a", "b"), ("c",))):
            with calipack.CalipackWriter(
                seg_dir / f"worker-{worker}.calipack"
            ) as writer:
                for tag in tags:
                    writer.append_profile(f"{tag}.cali", make_profile(tag))

    reference = tmp_path / "reference"
    seed_segments(reference)
    golden = calipack.merge_segments(reference).read_bytes()

    crashed = tmp_path / "crashed"
    seed_segments(crashed)
    schedule = Fault(
        site="calipack.post-merge-unlink",
        hit=1,
        action="exit",
        torn=False,
        seed=0,
        token=str(tmp_path / "strike.token"),
    )
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_merge_armed, args=(crashed, schedule))
    child.start()
    child.join()
    assert child.exitcode == CHAOS_KILL_EXITCODE

    archive = crashed / calipack.ARCHIVE_NAME
    assert archive.read_bytes() == golden  # merge was durable pre-crash
    remaining = list(
        (crashed / calipack.SEGMENT_DIR).glob("*" + calipack.ARCHIVE_SUFFIX)
    )
    assert len(remaining) == 1  # genuinely partial deletion

    assert calipack.merge_segments(crashed) == archive
    assert archive.read_bytes() == golden
    assert not (crashed / calipack.SEGMENT_DIR).exists()


# ------------------------------------------------------- campaign write path
def test_packed_campaign_records_member_refs(tmp_path):
    params = small_params(tmp_path)
    result = SuiteExecutor(params).run(write_files=True)
    archive = tmp_path / calipack.ARCHIVE_NAME
    assert archive.exists()
    assert not list(tmp_path.glob("*.cali"))
    assert result.report.clean
    for path in result.cali_paths:
        ref = calipack.split_member_ref(str(path))
        assert ref is not None and ref[1].endswith(".cali")
    manifest = json.loads((tmp_path / "campaign_manifest.json").read_text())
    files = [cell.get("file") for cell in manifest["cells"].values()]
    assert files and all(f and calipack.split_member_ref(f) for f in files)


def test_fsck_quarantines_damaged_archive_entry_and_resume_heals(tmp_path):
    params = small_params(tmp_path)
    SuiteExecutor(params).run(write_files=True)
    archive = tmp_path / calipack.ARCHIVE_NAME
    victim = calipack.load_index(archive)[0]

    raw = bytearray(archive.read_bytes())
    raw[victim.offset + victim.length // 2] ^= 0xFF
    archive.write_bytes(bytes(raw))

    report = fsck_directory(tmp_path)
    assert not report.clean
    assert report.rerun_cells
    assert (tmp_path / "quarantine" / victim.name).exists()
    survivors = [e.name for e in calipack.load_index(archive)]
    assert victim.name not in survivors

    healed = SuiteExecutor(small_params(tmp_path, resume=True)).run(
        write_files=True
    )
    assert healed.report.clean
    assert victim.name in [e.name for e in calipack.load_index(archive)]
    assert fsck_directory(tmp_path).clean


def test_fsck_flags_orphaned_archive_entry(tmp_path):
    params = small_params(tmp_path)
    SuiteExecutor(params).run(write_files=True)
    archive = tmp_path / calipack.ARCHIVE_NAME
    with calipack.CalipackWriter(archive) as writer:
        writer.append_profile("stray.cali", make_profile("stray"))

    report = fsck_directory(tmp_path)
    orphans = report.with_status("orphaned")
    assert [c.entry for c in orphans] == ["stray.cali"]
    assert (tmp_path / "quarantine" / "stray.cali").exists()
    assert "stray.cali" not in [e.name for e in calipack.load_index(archive)]


def test_supervised_packed_campaign_merges_segments(tmp_path):
    params = small_params(
        tmp_path, workers=2, heartbeat_timeout=10.0, trials=2
    )
    result = SuiteExecutor(params).run(write_files=True)
    assert result.report.clean
    archive = tmp_path / calipack.ARCHIVE_NAME
    assert archive.exists()
    assert not (tmp_path / calipack.SEGMENT_DIR).exists()
    assert len(calipack.load_index(archive)) == 4  # 2 variants x 2 trials
    assert fsck_directory(tmp_path).clean
