"""Thicket ingest: parallel equivalence, the ingest cache, shared refs."""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.caliper import calipack
from repro.caliper.cali import write_cali
from repro.caliper.records import CaliProfile, RegionRecord
from repro.dataframe import col
from repro.suite.executor import SuiteExecutor
from repro.suite.fsck import fsck_directory
from repro.suite.refchecksums import MISSING, ReferenceChecksumStore
from repro.suite.registry import get_kernel_class
from repro.suite.run_params import RunParams
from repro.thicket import Thicket
from repro.thicket import ingest
from repro.thicket.ingest_cache import CACHE_DIR_NAME
from repro.thicket.thicket import ProfileLoadWarning


def make_profile(i: int) -> CaliProfile:
    profile = CaliProfile(
        globals={"machine": f"m{i % 2}", "variant": f"v{i}", "trial": 0}
    )
    root = RegionRecord(name="RAJAPerf", path=("RAJAPerf",), metrics={})
    kids = []
    for k in range(3):
        kids.append(
            RegionRecord(
                name=f"K{k}",
                path=("RAJAPerf", f"K{k}"),
                metrics={"time": float(i * 10 + k), "reps": float(k)},
            )
        )
    root.children = kids
    profile.roots = [root]
    return profile


@pytest.fixture
def loose_files(tmp_path):
    files = []
    for i in range(8):
        files.append(
            str(write_cali(make_profile(i), tmp_path / f"p{i}.cali"))
        )
    return files


def packed_params(tmp_path, **overrides) -> RunParams:
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


def counting_parser(monkeypatch):
    """Wrap ``ingest.parse_cali_payload`` so each parse is recorded."""
    calls: list[str] = []
    real = ingest.parse_cali_payload

    def counted(raw, source):
        calls.append(str(source))
        return real(raw, source)

    monkeypatch.setattr(ingest, "parse_cali_payload", counted)
    return calls


# -------------------------------------------------------------- equivalence
def test_parallel_ingest_equals_serial(loose_files):
    serial = Thicket.from_caliperreader(loose_files)
    parallel = Thicket.from_caliperreader(loose_files, workers=3)
    assert serial.dataframe.equals(parallel.dataframe)
    assert serial.metadata.equals(parallel.metadata)
    assert list(serial.dataframe["profile"]) == list(
        parallel.dataframe["profile"]
    )


def test_archive_ingest_equals_file_ingest(tmp_path, loose_files):
    packed = tmp_path / "packed"
    packed.mkdir()
    for path in loose_files:
        data = open(path, "rb").read()
        (packed / path.rsplit("/", 1)[1]).write_bytes(data)
    archive, _ = calipack.pack_directory(packed)

    from_files = Thicket.from_caliperreader(loose_files)
    from_archive = Thicket.from_caliperreader(str(archive))
    from_archive_parallel = Thicket.from_caliperreader(str(archive), workers=2)
    assert from_archive.dataframe.equals(from_files.dataframe)
    assert from_archive.metadata.equals(from_files.metadata)
    assert from_archive_parallel.dataframe.equals(from_files.dataframe)


def test_member_ref_selects_single_entry(tmp_path, loose_files):
    packed = tmp_path / "packed"
    packed.mkdir()
    for path in loose_files[:2]:
        (packed / path.rsplit("/", 1)[1]).write_bytes(open(path, "rb").read())
    archive, entries = calipack.pack_directory(packed)
    one = Thicket.from_caliperreader(
        calipack.member_ref(archive, entries[0].name)
    )
    assert one.metadata.nrows == 1


# -------------------------------------------------------------- archive view
@pytest.fixture
def index_decodes(monkeypatch):
    """Counts index JSON decodes (memo misses)."""
    calls = {"n": 0}
    real = calipack._decode_index

    def counted(path, raw):
        calls["n"] += 1
        return real(path, raw)

    monkeypatch.setattr(calipack, "_decode_index", counted)
    return calls


def _pack(directory, files):
    directory.mkdir()
    for path in files:
        (directory / path.rsplit("/", 1)[1]).write_bytes(open(path, "rb").read())
    archive, _ = calipack.pack_directory(directory)
    return str(archive)


def test_repeat_where_query_decodes_no_index(tmp_path, loose_files, index_decodes):
    archive = _pack(tmp_path / "packed", loose_files)
    expr = col("variant") == "v3"
    first = Thicket.from_caliperreader(archive, where=expr)
    index_decodes["n"] = 0
    second = Thicket.from_caliperreader(archive, where=expr)
    assert index_decodes["n"] == 0
    assert second.metadata.equals(first.metadata)
    assert second.dataframe.equals(first.dataframe)
    assert second.metadata["variant"].tolist() == ["v3"]


def test_member_refs_resolve_through_one_index_parse(
    tmp_path, loose_files, index_decodes
):
    archive = _pack(tmp_path / "packed", loose_files)
    calipack.clear_index_memo()
    index_decodes["n"] = 0
    refs = [calipack.member_ref(archive, f"p{i}.cali") for i in range(5)]
    thicket = Thicket.from_caliperreader(refs)
    assert index_decodes["n"] == 1
    assert thicket.metadata["variant"].tolist() == [f"v{i}" for i in range(5)]
    missing = calipack.member_ref(archive, "nope.cali")
    with pytest.raises(ValueError, match="no archive entry named 'nope.cali'"):
        Thicket.from_caliperreader(refs + [missing])


def test_pushdown_over_several_archives_equals_eager(tmp_path, loose_files):
    """Two archives are not one whole archive: the view is built fresh,
    through the same schema code, and still skips parses."""
    first = _pack(tmp_path / "a", loose_files[:4])
    second = _pack(tmp_path / "b", loose_files[4:])
    expr = col("machine") == "m1"
    eager = Thicket.from_caliperreader([first, second]).filter_metadata(expr)
    view, _ = ingest.expand_sources([first, second])
    assert view is not ingest.archive_view(first)
    plan = ingest.index_pushdown(view, expr)
    assert plan is not None and plan[1] == [1, 3, 5, 7]
    pushed = Thicket.from_caliperreader([first, second], where=expr)
    assert pushed.metadata.equals(eager.metadata)
    assert pushed.dataframe.equals(eager.dataframe)


def test_archive_view_hands_out_nothing_mutable(tmp_path, loose_files):
    archive = _pack(tmp_path / "packed", loose_files)
    view, _ = ingest.expand_sources(archive)
    again, _ = ingest.expand_sources([archive])
    assert again is view  # one memoized view per verified index
    identity = view.identity()
    identity.clear()
    assert len(view.identity()) == len(loose_files)
    values, nonscalar = view.column("variant")
    with pytest.raises(ValueError):
        values[0] = "tampered"
    with pytest.raises(ValueError):
        nonscalar[0] = True
    meta_cols, metric_cols = view.schema()
    with pytest.raises(TypeError):
        meta_cols["variant"] = None
    assert isinstance(metric_cols, tuple)
    with pytest.raises(TypeError):
        view[0].attrs["variant"] = "tampered"
    # refs travel to pool workers without the index-side schema
    ref = pickle.loads(pickle.dumps(view[0]))
    assert ref == view[0] and ref.attrs is None


def test_on_error_warn_composes_survivors(tmp_path, loose_files):
    packed = tmp_path / "packed"
    packed.mkdir()
    for path in loose_files:
        (packed / path.rsplit("/", 1)[1]).write_bytes(open(path, "rb").read())
    archive, _ = calipack.pack_directory(packed)
    victim = calipack.load_index(archive)[2]
    raw = bytearray(archive.read_bytes())
    raw[victim.offset + victim.length // 2] ^= 0xFF
    archive.write_bytes(bytes(raw))

    with pytest.raises(ValueError):
        Thicket.from_caliperreader(str(archive))
    with pytest.warns(ProfileLoadWarning, match=victim.name):
        thicket = Thicket.from_caliperreader(str(archive), on_error="warn")
    assert thicket.metadata.nrows == len(loose_files) - 1


# -------------------------------------------------------------- ingest cache
def test_cache_hit_skips_every_parse(tmp_path, loose_files, monkeypatch):
    packed = tmp_path / "packed"
    packed.mkdir()
    for path in loose_files:
        (packed / path.rsplit("/", 1)[1]).write_bytes(open(path, "rb").read())
    archive, _ = calipack.pack_directory(packed)
    cache_dir = packed / CACHE_DIR_NAME

    calls = counting_parser(monkeypatch)
    cold = Thicket.from_caliperreader(str(archive), cache=cache_dir)
    assert len(calls) == len(loose_files)

    calls.clear()
    warm = Thicket.from_caliperreader(str(archive), cache=cache_dir)
    assert calls == []  # not a single payload parsed
    assert warm.dataframe.equals(cold.dataframe)
    assert warm.metadata.equals(cold.metadata)


def test_cache_invalidated_after_fsck_and_resume(tmp_path, monkeypatch):
    """Healing re-runs a deterministic cell, and the canonical archive
    rebuild makes the result a pure function of the entry set — so the
    healed archive converges byte-identical to the pristine one and the
    warm cache legitimately *hits*. A genuine content change (replacing
    an entry with different metrics) must still miss."""
    SuiteExecutor(packed_params(tmp_path)).run(write_files=True)
    archive = tmp_path / calipack.ARCHIVE_NAME
    cache_dir = tmp_path / CACHE_DIR_NAME
    pristine = archive.read_bytes()

    golden = Thicket.from_caliperreader(str(archive), cache=cache_dir)

    victim = calipack.load_index(archive)[0]
    raw = bytearray(archive.read_bytes())
    raw[victim.offset + victim.length // 2] ^= 0xFF
    archive.write_bytes(bytes(raw))
    assert not fsck_directory(tmp_path).clean
    healed = SuiteExecutor(
        packed_params(tmp_path, resume=True)
    ).run(write_files=True)
    assert healed.report.clean
    assert archive.read_bytes() == pristine  # deterministic heal converges

    calls = counting_parser(monkeypatch)
    rebuilt = Thicket.from_caliperreader(str(archive), cache=cache_dir)
    assert calls == []  # identical content -> a warm hit is correct
    assert rebuilt.metadata.nrows == 2
    assert rebuilt.dataframe.equals(golden.dataframe)

    with calipack.CalipackWriter(archive) as writer:
        writer.append_profile(victim.name, make_profile(99))
    calls.clear()
    Thicket.from_caliperreader(str(archive), cache=cache_dir)
    assert calls  # content CRC changed -> cache miss -> real parses

    calls.clear()
    Thicket.from_caliperreader(str(archive), cache=cache_dir)
    assert calls == []  # and the changed content is cached again


def test_cache_never_used_for_in_memory_profiles(tmp_path, monkeypatch):
    profiles = [make_profile(i) for i in range(3)]
    cache_dir = tmp_path / CACHE_DIR_NAME
    t0 = Thicket.from_caliperreader(profiles, cache=cache_dir)
    assert t0.metadata.nrows == 3
    assert not cache_dir.exists()  # no content identity -> no cache entry


# ------------------------------------------------- shared reference sidecar
def test_reference_checksum_store_round_trip(tmp_path):
    store = ReferenceChecksumStore(tmp_path)
    assert store.get("Basic_DAXPY", 1000) is MISSING
    store.put("Basic_DAXPY", 1000, 1.25)
    store.put("Basic_REDUCE3_INT", 1000, None)  # no Base_Seq: stored None
    assert store.get("Basic_DAXPY", 1000) == 1.25
    assert store.get("Basic_REDUCE3_INT", 1000) is None
    assert store.get("Basic_DAXPY", 2000) is MISSING
    # a second handle merges instead of clobbering
    other = ReferenceChecksumStore(tmp_path)
    other.put("Stream_TRIAD", 1000, 2.5)
    assert other.get("Basic_DAXPY", 1000) == 1.25
    assert other.get("Stream_TRIAD", 1000) == 2.5


def test_executor_prefers_published_reference(tmp_path):
    params = packed_params(tmp_path, execute=True, pack=False)
    executor = SuiteExecutor(params)
    store = ReferenceChecksumStore(tmp_path)
    sentinel = 123.456
    store.put("Basic_DAXPY", params.execution_size, sentinel)
    executor.refstore = store
    cls = get_kernel_class("Basic_DAXPY")
    assert executor._reference_checksum(cls) == sentinel


def test_executed_campaign_publishes_references(tmp_path):
    params = packed_params(tmp_path, execute=True, pack=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.clean
    store = ReferenceChecksumStore(tmp_path)
    assert store.get("Basic_DAXPY", params.execution_size) is not MISSING


def _coerce_metrics_column_by_column(frame):
    """The coercion as one ``with_column`` per object column (each call
    copying the whole frame): the reference ``coerce_metrics`` must
    reproduce without the copies."""
    import numpy as np

    for name in frame.columns:
        if name in ("profile", "name", "path"):
            continue
        arr = frame[name]
        if arr.dtype == object:
            coerced = np.array(
                [np.nan if v is None else v for v in arr], dtype=object
            )
            try:
                frame = frame.with_column(name, coerced.astype(float))
            except (TypeError, ValueError):
                frame = frame.with_column(name, coerced)
    return frame


def test_coerce_metrics_equals_the_column_by_column_coercion():
    import numpy as np

    from repro.dataframe import Frame

    obj = lambda *values: np.array(values, dtype=object)  # noqa: E731
    frame = Frame({
        "profile": obj(1, 2, 3),
        "name": obj("a", None, "c"),
        "time": obj(1.5, None, 3),  # None gaps -> float
        "empty": obj(None, None, None),  # all None -> all-NaN float
        "mixed": obj("x", None, 2),  # strings stay object, None -> NaN
        "count": np.array([1, 2, 3]),  # typed: untouched
        "path": obj("a", "a/b", None),
    })
    expected = _coerce_metrics_column_by_column(frame)
    got = ingest.coerce_metrics(frame)
    assert got.columns == expected.columns
    assert [got[c].dtype for c in got.columns] == [
        expected[c].dtype for c in expected.columns
    ]
    assert got.equals(expected)
    assert got["time"].dtype == float and np.isnan(got["empty"]).all()
    assert got["mixed"].dtype == object and np.isnan(got["mixed"][1])
    assert got["name"][1] is None  # key columns keep their None
    # idempotent, and a frame with nothing to coerce comes back as is
    assert ingest.coerce_metrics(got).equals(got)
    typed = Frame({"count": np.array([1, 2])})
    assert ingest.coerce_metrics(typed) is typed
