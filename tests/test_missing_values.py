"""Missing metadata values: ordering predicates skip them, NaNs compare equal.

A profile that lacks a global leaves None in that object metadata
column. An ordering comparison (``<``, ``<=``, ``>``, ``>=``) treats the
missing value as not matching, the same way in pushdown and in the
eager filter; a pushdown that skips the profiles without the value
still widens the kept column to the full composition's dtype.
``Frame.equals`` treats aligned NaNs as equal in object columns as it
does in float columns.
"""

import numpy as np
import pytest

from repro.caliper import calipack
from repro.cli.main import main
from repro.dataframe import col
from repro.dataframe.frame import Frame
from repro.thicket import Thicket
from tests.test_query_pushdown import make_profile

N_PROFILES = 8
WITHOUT_TRIAL = (5, 6)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """``trial`` cycles 0..3, except p5 and p6, which carry none; the
    per-profile ``tuning`` keeps every profile id distinct."""
    path = tmp_path_factory.mktemp("campaign") / "campaign.calipack"
    with calipack.CalipackWriter(path) as writer:
        for i in range(N_PROFILES):
            profile = make_profile(i, {"trial": i % 4, "tuning": f"t{i}"})
            if i in WITHOUT_TRIAL:
                del profile.globals["trial"]
            writer.append_profile(f"p{i}.cali", profile)
    return path


@pytest.mark.parametrize(
    "expr, kept",
    [
        (col("trial") < 3, {0, 1, 2, 4}),
        (col("trial") <= 0, {0, 4}),
        (col("trial") > 1, {2, 3, 7}),
        (3 <= col("trial"), {3, 7}),
        # pushdown skips every profile without trial; the kept column
        # is still widened to the full composition's object dtype
        (col("tuning") == "t1", {1}),
    ],
)
def test_ordering_on_a_missing_value_does_not_match(archive, expr, kept):
    eager = Thicket.from_caliperreader(str(archive)).filter_metadata(expr)
    pushed = Thicket.from_caliperreader(str(archive), where=expr)
    assert pushed.metadata.equals(eager.metadata)
    assert pushed.dataframe.equals(eager.dataframe)
    assert sorted(eager.metadata["trial"].tolist()) == sorted(
        i % 4 for i in kept
    )


def test_typed_columns_keep_the_vectorized_compare():
    values = np.arange(5)
    assert (col("x") < 3).evaluate({"x": values}).tolist() == [
        True, True, True, False, False,
    ]
    objects = np.array([1, None, 5, 2], dtype=object)
    assert (col("x") >= 2).evaluate({"x": objects}).tolist() == [
        False, False, True, True,
    ]


def test_analyze_where_on_a_missing_value_exits_zero(archive, capsys):
    code = main([
        "analyze", "--no-cache", "--metric", "time",
        "--where", "trial < 3", str(archive),
    ])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "Traceback" not in out.err


def test_object_column_with_nan_equals_itself_and_its_copy():
    frame = Frame({"k": np.array(["a", float("nan")], dtype=object)})
    assert frame.equals(frame)
    assert frame.equals(frame.copy())


@pytest.mark.parametrize("other", [None, "a"])
def test_object_nan_still_differs_from_none_and_values(other):
    nan = Frame({"k": np.array(["a", float("nan")], dtype=object)})
    different = Frame({"k": np.array(["a", other], dtype=object)})
    assert not nan.equals(different)
    assert not different.equals(nan)


@pytest.mark.parametrize(
    "sizes", [(1, 2, 3.5), (1, 2, "big")], ids=["int-float", "int-str"]
)
def test_pushdown_widens_a_column_a_skipped_profile_types_differently(
    tmp_path, sizes
):
    path = tmp_path / "campaign.calipack"
    with calipack.CalipackWriter(path) as writer:
        for i, size in enumerate(sizes):
            profile = make_profile(i, {"tuning": f"t{i}", "size": size})
            writer.append_profile(f"p{i}.cali", profile)
    expr = col("tuning") == "t0"
    eager = Thicket.from_caliperreader(str(path)).filter_metadata(expr)
    pushed = Thicket.from_caliperreader(str(path), where=expr)
    assert pushed.metadata.nrows == 1
    assert pushed.metadata["size"].dtype == eager.metadata["size"].dtype
    assert pushed.metadata.equals(eager.metadata)
