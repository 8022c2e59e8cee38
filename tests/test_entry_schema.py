"""An archive entry's indexed schema is computed once and carried.

The sealed index stays a pure function of the entry bytes: the schema a
writer takes from the profile, or a rewrite carries from a verified
source index, must equal the one :func:`calipack.extract_entry_schema`
parses from the bytes, and every entry the carry cannot vouch for is
parsed exactly as before.
"""

from __future__ import annotations

import enum
import json
import math
import zlib

import numpy as np
import pytest

from repro.caliper import calipack
from repro.caliper.cali import serialize_cali
from repro.caliper.records import CaliProfile, RegionRecord
from repro.faults import Fault, FaultPlan
from repro.suite import RunParams, SuiteExecutor
from repro.suite.fsck import fsck_directory
from repro.suite.registry import all_kernel_classes, load_all_kernels

ALL_MACHINES = ("SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X")
ALL_VARIANTS = (
    "Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP",
    "Base_CUDA", "RAJA_CUDA", "Base_HIP", "RAJA_HIP",
)


def _dumps(schema) -> str:
    """What the index stores: equal text, not just equal values (NaN is
    not equal to itself, and ``True == 1``)."""
    return json.dumps(schema, separators=(",", ":"))


def _parsed(profile: CaliProfile):
    return calipack.extract_entry_schema(serialize_cali(profile))


def make_profile(globals_: dict, metrics: dict | None = None) -> CaliProfile:
    profile = CaliProfile(globals=globals_)
    root = RegionRecord(name="RAJAPerf", path=("RAJAPerf",), metrics={})
    root.children = [
        RegionRecord(
            name="Basic", path=("RAJAPerf", "Basic"), metrics={"count": 1.0},
            children=[RegionRecord(
                name="Basic_DAXPY", path=("RAJAPerf", "Basic", "Basic_DAXPY"),
                metrics=metrics if metrics is not None else {"time": 1.0},
            )],
        ),
        RegionRecord(name="Stream", path=("RAJAPerf", "Stream"),
                     metrics={"time": 2.0, "bytes": 3.0}),
    ]
    profile.roots = [root]
    return profile


@pytest.fixture
def parses(monkeypatch):
    """Every entry-schema parse, by the bytes it parsed."""
    seen: list[bytes] = []
    real = calipack.extract_entry_schema

    def spy(data):
        seen.append(data)
        return real(data)

    monkeypatch.setattr(calipack, "extract_entry_schema", spy)
    return seen


def _index_schemas(archive) -> dict:
    return {
        e.name: calipack._vouched_schema(e) for e in calipack.load_index(archive)
    }


def _assert_index_is_parsed_from_bytes(archive) -> None:
    """Every indexed schema equals a fresh parse of its entry's bytes."""
    for entry in calipack.load_index(archive):
        data = calipack.read_entry_bytes(archive, entry, verify=False)
        parsed = calipack.extract_entry_schema(data)
        assert _dumps(calipack._vouched_schema(entry)) == _dumps(parsed), entry.name


# ------------------------------------------------------- profile-derived
def test_profile_schema_equals_the_parse_for_every_model_only_cell(tmp_path):
    """Every kernel x machine x variant (x GPU block) a model-only
    campaign profiles: the schema taken from the profile is the one the
    index would parse from its bytes."""
    load_all_kernels()
    result = SuiteExecutor(RunParams(
        machines=ALL_MACHINES, variants=ALL_VARIANTS, gpu_block_sizes=(128, 256),
        output_dir=str(tmp_path),
    )).run(write_files=False)
    assert result.report.clean
    kernels = {cls.class_full_name() for cls in all_kernel_classes()}
    assert len(kernels) == 76
    covered = set()
    for profile in result.profiles:
        schema = calipack.profile_schema(profile)
        assert schema is not None
        assert _dumps(schema) == _dumps(_parsed(profile))
        covered |= {node.name for node in profile.walk()} & kernels
    assert covered == kernels
    assert {p.globals["machine"] for p in result.profiles} == set(ALL_MACHINES)
    assert {p.globals["variant"] for p in result.profiles} == set(ALL_VARIANTS)


class _Level(enum.IntEnum):
    HIGH = 3


class _Tag(str):
    pass


class _Ratio(float):
    pass


EDGE_GLOBALS = {
    "numpy": {
        "i64": np.int64(7), "i8": np.int8(-3), "f64": np.float64(2.5),
        "f32": np.float32(0.1), "b": np.bool_(True), "bf": np.bool_(False),
    },
    "nonfinite": {"nan": math.nan, "inf": math.inf, "ninf": -math.inf,
                  "npnan": np.float64("nan")},
    "none": {"missing": None, "zero": 0, "flag": False, "empty": ""},
    "nonscalar": {"list": [1, 2], "tuple": (1, "a"), "dict": {"k": [None]},
                  "empty_list": [], "empty_dict": {}},
    "subclasses": {"level": _Level.HIGH, "tag": _Tag("x"), "ratio": _Ratio(0.5),
                   "big": 2**70, "neg_zero": -0.0},
    "no_globals": {},
}


@pytest.mark.parametrize("name", sorted(EDGE_GLOBALS))
def test_profile_schema_normalizes_globals_like_json(name):
    profile = make_profile(dict(EDGE_GLOBALS[name]))
    schema = calipack.profile_schema(profile)
    assert schema is not None
    assert _dumps(schema) == _dumps(_parsed(profile))


def test_empty_region_tree_has_no_metrics():
    profile = CaliProfile(globals={"machine": "m"})
    assert calipack.profile_schema(profile) == ({"machine": "m"}, [])
    assert _dumps(calipack.profile_schema(profile)) == _dumps(_parsed(profile))


@pytest.mark.parametrize("profile", [
    make_profile({1: "one", "machine": "m"}),
    make_profile({True: "yes"}),
    make_profile({None: "null"}),
    make_profile({_Tag("sub"): 1}),
    make_profile({"machine": "m"}, metrics={1: 2.0}),
], ids=["int-key", "bool-key", "none-key", "str-subclass-key", "int-metric-key"])
def test_odd_keys_fall_back_to_a_parse(tmp_path, profile, parses):
    """JSON renames a non-``str`` key; the writer parses those bytes
    rather than guess, and the archive equals an all-parsed one."""
    assert calipack.profile_schema(profile) is None
    carried, parsed = tmp_path / "carried.calipack", tmp_path / "parsed.calipack"
    with calipack.CalipackWriter(carried) as writer:
        writer.append_profile("p.cali", profile)
    assert len(parses) == 1
    calipack.write_archive(parsed, [("p.cali", serialize_cali(profile), None)])
    assert carried.read_bytes() == parsed.read_bytes()


def test_profile_derived_archive_equals_the_parsed_one(tmp_path, parses):
    """One archive per path: schemas taken from the profiles, and the
    same bytes appended with no schema (parsed at close)."""
    profiles = {
        f"{name}.cali": make_profile(dict(globals_))
        for name, globals_ in EDGE_GLOBALS.items()
    }
    profiles["empty.cali"] = CaliProfile(globals={"machine": "m"})
    carried, parsed = tmp_path / "carried.calipack", tmp_path / "parsed.calipack"
    with calipack.CalipackWriter(carried) as writer:
        for name, profile in profiles.items():
            writer.append_profile(name, profile)
    assert parses == []
    calipack.write_archive(parsed, [
        (name, serialize_cali(profile), None) for name, profile in profiles.items()
    ])
    assert len(parses) == len(profiles)
    assert carried.read_bytes() == parsed.read_bytes()


# ------------------------------------------------------ last-wins appends
def test_last_wins_reappend_indexes_the_newer_schema(tmp_path):
    archive = tmp_path / "a.calipack"
    writer = calipack.CalipackWriter(archive)
    writer.append_profile("x.cali", make_profile({"v": "old"}))
    writer.append_profile("x.cali", make_profile({"v": "new"}, {"fresh": 1.0}))
    # A newer append without a schema drops the older carried one too.
    writer.append_profile("y.cali", make_profile({"v": "old"}))
    writer.append_bytes("y.cali", serialize_cali(make_profile({"v": "raw"})))
    writer.close()
    schemas = _index_schemas(archive)
    assert schemas["x.cali"][0] == {"v": "new"}
    assert "fresh" in schemas["x.cali"][1]
    assert schemas["y.cali"][0] == {"v": "raw"}
    _assert_index_is_parsed_from_bytes(archive)


def test_failed_reappend_keeps_the_older_schema(tmp_path):
    archive = tmp_path / "a.calipack"
    writer = calipack.CalipackWriter(archive)
    writer.append_profile("x.cali", make_profile({"v": "old"}))
    newer = make_profile({"v": "new"})
    with pytest.raises(OSError):
        writer.append_bytes("x.cali", serialize_cali(newer), interrupted=True,
                            schema=calipack.profile_schema(newer))
    with FaultPlan([Fault(site="calipack.append", path="x.cali")]):
        with pytest.raises(OSError):
            writer.append_profile("x.cali", newer)
    writer.close()
    assert _index_schemas(archive)["x.cali"][0] == {"v": "old"}
    _assert_index_is_parsed_from_bytes(archive)


def test_corrupt_sealed_entry_stays_schema_less(tmp_path):
    archive = tmp_path / "a.calipack"
    sink = calipack.ArchiveSink(archive)
    with FaultPlan([Fault(site="profile.seal", action="corrupt", path="bad.cali")]):
        sink.append("bad.cali", make_profile({"v": "bad"}))
        sink.append("good.cali", make_profile({"v": "good"}))
    sink.close()
    calipack.canonicalize_archive(archive)
    entries = {e.name: e for e in calipack.load_index(archive)}
    assert entries["bad.cali"].attrs is None and entries["bad.cali"].metrics is None
    assert entries["good.cali"].attrs == {"v": "good"}
    _assert_index_is_parsed_from_bytes(archive)


# --------------------------------------------------- carried through merges
def _sealed(path, tags) -> None:
    with calipack.CalipackWriter(path) as writer:
        for tag in tags:
            writer.append_profile(f"{tag}.cali", make_profile({"tag": tag}))


def test_merge_of_sealed_segments_carries_every_schema(tmp_path, parses):
    seg_dir = tmp_path / calipack.SEGMENT_DIR
    _sealed(seg_dir / "worker-1.calipack", ["a", "c"])
    _sealed(seg_dir / "worker-2.calipack", ["b", "c"])
    target = calipack.merge_segments(tmp_path)
    assert parses == []
    assert [e.name for e in calipack.load_index(target)] == ["a.cali", "b.cali", "c.cali"]
    _assert_index_is_parsed_from_bytes(target)


def test_serial_packed_campaign_parses_no_schema(tmp_path, parses):
    params = RunParams(
        problem_size=1000, kernels=("Basic_DAXPY", "Stream_TRIAD"),
        variants=("Base_Seq", "RAJA_Seq"), machines=("SPR-DDR",), trials=2,
        pack=True, output_dir=str(tmp_path),
    )
    result = SuiteExecutor(params).run(write_files=True)
    assert result.report.clean
    assert parses == []
    archive = tmp_path / calipack.ARCHIVE_NAME
    assert len(calipack.load_index(archive)) == 4
    _assert_index_is_parsed_from_bytes(archive)


def test_fsck_rewrite_and_repack_carry_the_survivors(tmp_path, parses):
    """fsck's quarantine rewrite parses nothing it keeps; a repacking
    ``pack`` parses only the loose file it adds."""
    params = RunParams(
        problem_size=1000, kernels=("Basic_DAXPY",), machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"), trials=2, pack=True,
        output_dir=str(tmp_path),
    )
    SuiteExecutor(params).run(write_files=True)
    archive = tmp_path / calipack.ARCHIVE_NAME
    with calipack.CalipackWriter(archive) as writer:
        writer.append_profile("stray.cali", make_profile({"tag": "stray"}))
    assert parses == []
    report = fsck_directory(tmp_path)
    assert [c.entry for c in report.with_status("orphaned")] == ["stray.cali"]
    assert parses == []
    assert len(calipack.load_index(archive)) == 4
    loose = serialize_cali(make_profile({"tag": "loose"}))
    (tmp_path / "loose.cali").write_bytes(loose)
    calipack.pack_directory(tmp_path)
    assert parses == [loose]
    assert len(calipack.load_index(archive)) == 5
    _assert_index_is_parsed_from_bytes(archive)


def test_reopened_sealed_archive_carries_its_index(tmp_path, parses):
    archive = tmp_path / "a.calipack"
    _sealed(archive, ["a", "b"])
    with calipack.CalipackWriter(archive) as writer:
        writer.append_profile("c.cali", make_profile({"tag": "c"}))
    assert parses == []
    _assert_index_is_parsed_from_bytes(archive)


def test_reopened_footerless_archive_is_parsed(tmp_path, parses):
    archive = tmp_path / "a.calipack"
    writer = calipack.CalipackWriter(archive)
    writer.append_profile("a.cali", make_profile({"tag": "a"}))
    writer.abort()
    with calipack.CalipackWriter(archive) as writer:
        writer.append_profile("b.cali", make_profile({"tag": "b"}))
    assert len(parses) == 1
    _assert_index_is_parsed_from_bytes(archive)


def test_entry_whose_bytes_left_the_index_crc_is_parsed(tmp_path, parses):
    """Same-length bytes, validly sealed, but not the bytes the index
    vouched for: carrying would index the stale ``tag``."""
    archive = tmp_path / "a.calipack"
    _sealed(archive, ["a", "b"])
    entry = next(e for e in calipack.load_index(archive) if e.name == "a.cali")
    forged = serialize_cali(make_profile({"tag": "z"}))
    assert len(forged) == entry.length
    with open(archive, "r+b") as handle:
        handle.seek(entry.offset)
        handle.write(forged)
    calipack.canonicalize_archive(archive)
    assert parses == [forged]
    assert _index_schemas(archive)["a.cali"][0] == {"tag": "z"}
    _assert_index_is_parsed_from_bytes(archive)


def _strip_index_schemas(archive) -> None:
    """Rewrite the sealed index as an older writer left it: no attrs,
    no metrics, no column registry."""
    raw = calipack._read_verified_index(archive)
    payload = json.loads(raw)
    del payload["columns"]
    for record in payload["entries"]:
        record.pop("attrs"), record.pop("metrics")
    index = json.dumps(payload, separators=(",", ":")).encode()
    data = archive.read_bytes()
    index_off = data.rindex(raw)
    footer = (
        f"\n#calipack-footer v1 index_off={index_off} index_len={len(index)} "
        f"crc32={zlib.crc32(index) & 0xFFFFFFFF:08x}\n"
    ).encode()
    archive.write_bytes(data[:index_off] + index + footer)


def test_index_without_schemas_is_parsed(tmp_path, parses):
    archive, reference = tmp_path / "a.calipack", tmp_path / "ref.calipack"
    _sealed(archive, ["b", "a"])
    _sealed(reference, ["b", "a"])
    calipack.canonicalize_archive(reference)
    _strip_index_schemas(archive)
    assert all(e.attrs is None for e in calipack.load_index(archive))
    parses.clear()
    calipack.canonicalize_archive(archive)
    assert len(parses) == 2
    assert archive.read_bytes() == reference.read_bytes()


def test_footerless_segment_is_parsed(tmp_path, parses):
    seg = tmp_path / calipack.SEGMENT_DIR / "worker-1.calipack"
    reference = tmp_path / "ref.calipack"
    writer = calipack.CalipackWriter(seg)
    for tag in ("b", "a"):
        writer.append_profile(f"{tag}.cali", make_profile({"tag": tag}))
    writer.abort()  # no index, no footer: a crashed worker's segment
    _sealed(reference, ["b", "a"])
    calipack.canonicalize_archive(reference)
    parses.clear()
    target = calipack.merge_segments(tmp_path)
    assert len(parses) == 2
    assert target.read_bytes() == reference.read_bytes()
