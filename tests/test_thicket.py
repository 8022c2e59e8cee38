"""Thicket: composition, metadata grouping, filtering, stats."""

import numpy as np
import pytest

from repro.caliper import CaliperSession
from repro.caliper.cali import write_cali
from repro.thicket import Thicket


def make_profile(machine: str, variant: str, times: dict[str, float]):
    session = CaliperSession(collect_time=False)
    session.set_global("machine", machine)
    session.set_global("variant", variant)
    session.set_global("problem_size", 1000)
    with session.region("RAJAPerf"):
        for kernel, value in times.items():
            with session.region(kernel):
                session.set_metric("Avg time/rank", value)
    return session.close()


@pytest.fixture
def thicket():
    profiles = [
        make_profile("SPR-DDR", "RAJA_Seq", {"Stream_TRIAD": 1.0, "Basic_DAXPY": 2.0}),
        make_profile("SPR-HBM", "RAJA_Seq", {"Stream_TRIAD": 0.4, "Basic_DAXPY": 0.9}),
        make_profile("P9-V100", "RAJA_CUDA", {"Stream_TRIAD": 0.15, "Basic_DAXPY": 0.3}),
    ]
    return Thicket.from_caliperreader(profiles)


class TestConstruction:
    def test_profiles_and_metadata(self, thicket):
        assert len(thicket.profiles) == 3
        assert "machine" in thicket.metadata.columns

    def test_from_files(self, tmp_path):
        paths = [
            write_cali(make_profile("SPR-DDR", "RAJA_Seq", {"K": 1.0}), tmp_path / "a.cali"),
            write_cali(make_profile("SPR-HBM", "RAJA_Seq", {"K": 2.0}), tmp_path / "b.cali"),
        ]
        thicket = Thicket.from_caliperreader(paths)
        assert len(thicket.profiles) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Thicket.from_caliperreader([])

    def test_single_profile_accepted(self):
        thicket = Thicket.from_caliperreader(make_profile("m", "v", {"K": 1.0}))
        assert len(thicket.profiles) == 1


class TestQueries:
    def test_metric_matrix(self, thicket):
        regions, profiles, matrix = thicket.metric_matrix(
            "Avg time/rank", region_filter=lambda s: "_" in s
        )
        assert set(regions) == {"Stream_TRIAD", "Basic_DAXPY"}
        assert matrix.shape == (2, 3)
        assert not np.isnan(matrix).any()

    def test_metric_matrix_unknown_metric(self, thicket):
        with pytest.raises(KeyError):
            thicket.metric_matrix("nope")

    def test_metric_for_profile(self, thicket):
        values = thicket.metric_for_profile("SPR-DDR/RAJA_Seq", "Avg time/rank")
        assert values["Stream_TRIAD"] == 1.0

    def test_filter_metadata(self, thicket):
        cpu_only = thicket.filter_metadata(lambda md: str(md["machine"]).startswith("SPR"))
        assert len(cpu_only.profiles) == 2

    def test_filter_regions(self, thicket):
        streams = thicket.filter_regions(lambda name: name.startswith("Stream"))
        assert set(streams.dataframe["name"]) == {"Stream_TRIAD"}

    def test_groupby_metadata(self, thicket):
        by_variant = thicket.groupby("variant")
        assert set(by_variant) == {"RAJA_Seq", "RAJA_CUDA"}
        assert len(by_variant["RAJA_Seq"].profiles) == 2

    def test_groupby_unknown_key(self, thicket):
        with pytest.raises(KeyError):
            thicket.groupby("nope")

    @pytest.mark.parametrize("values, keep", [
        # NaN matches nothing, not even itself; None matches None
        ([float("nan"), None, "a", 1, None], [float("nan"), None]),
        # 1 == 1.0 == True, as a dict compares keys
        ([1, 2.0, 3, True, 2], [1.0, 2]),
        (np.array([1.0, np.nan, 2.5]), np.array([np.nan, 2.5])),
        (np.array(["x", "y", "z"]), np.array(["z", "x"], dtype=object)),
        (["a", "b"], []),
    ])
    def test_membership_mask_matches_row_loop(self, values, keep):
        from repro.thicket.thicket import _membership_mask

        values = np.array(values, dtype=object) if isinstance(values, list) else values
        keep = np.array(keep, dtype=object) if isinstance(keep, list) else keep
        reference = [any(bool(v == k) for k in keep) for v in values]
        assert _membership_mask(values, keep).tolist() == reference

    def test_filter_metadata_with_nan_and_none_profile_ids(self):
        from repro.dataframe import Frame

        ids = np.array(["a", None, float("nan"), 1, 1.0], dtype=object)
        metadata = Frame({"profile": ids, "keep": np.array([1, 1, 1, 0, 1])})
        dataframe = Frame({
            "profile": np.repeat(ids, 2), "name": np.array(["K"] * 10, dtype=object),
            "path": np.array(["K"] * 10, dtype=object), "depth": np.ones(10, int),
        })
        kept = Thicket(dataframe, metadata).filter_metadata(
            lambda md: md["keep"] == 1
        )
        # None matches None; NaN matches nothing; 1.0 also keeps id 1
        assert [str(p) for p in kept.dataframe["profile"]] == [
            "a", "a", "None", "None", "1", "1", "1.0", "1.0",
        ]

    def test_tree_rendering(self, thicket):
        text = thicket.tree(metric="Avg time/rank")
        assert "RAJAPerf" in text and "Stream_TRIAD" in text and "[Avg time/rank=" in text


class TestStatsAndConcat:
    def test_aggregate_stats(self, thicket):
        stats = thicket.aggregate_stats(["Avg time/rank"])
        row = next(r for r in stats.iter_rows() if r["name"] == "Stream_TRIAD")
        assert row["Avg time/rank_mean"] == pytest.approx((1.0 + 0.4 + 0.15) / 3)
        assert row["Avg time/rank_max"] == 1.0

    def test_concat_thickets(self, thicket):
        extra = Thicket.from_caliperreader(
            make_profile("EPYC-MI250X", "RAJA_HIP", {"Stream_TRIAD": 0.05})
        )
        combined = Thicket.concat_thickets([thicket, extra])
        assert len(combined.profiles) == 4
        # Outer column union: the missing kernel row is simply absent,
        # so the matrix has a NaN for it.
        _, _, matrix = combined.metric_matrix(
            "Avg time/rank", region_filter=lambda s: s == "Basic_DAXPY"
        )
        assert np.isnan(matrix).sum() == 1

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            Thicket.concat_thickets([])
