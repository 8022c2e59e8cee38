"""One key semantics for groupby and join.

Keys are equal exactly as a Python dict compares them (``1 == 1.0 ==
True``, ``None == None``), and a NaN key, float or object, matches
nothing, not even another NaN. The expected frames below are written
out literally (column order, dtypes, row order, None fill, and the type
of every value) as the row-loop groupby and join produced them, so the
vectorized path is pinned to that behaviour on the inputs NumPy cannot
sort: NaN keys, mixed objects, and multi-key groupings.
"""

import itertools

import numpy as np
import pytest

from repro.dataframe import Frame

NAN = float("nan")


def nan():
    """A fresh NaN object: a shared one would be the same dict key."""
    return float("nan")


def assert_frame(frame, expected):
    """``expected`` maps column -> (dtype, values) in column order; each
    value must match in type and value, NaN matching NaN."""
    assert frame.columns == list(expected)
    for name, (dtype, values) in expected.items():
        column = frame[name]
        assert column.dtype == np.dtype(dtype), name
        got = column.tolist()
        assert len(got) == len(values), (name, got)
        for g, e in zip(got, values):
            assert type(g) is type(e), (name, got, values)
            assert g == e or (g != g and e != e), (name, got, values)


def _right(keys):
    return Frame({
        "k": keys,
        "v": np.array(["p", "q", "r", "s"], dtype=object),
        "w": np.arange(4),
    })


def _left(keys):
    return Frame({"k": keys, "v": np.arange(len(keys), dtype=np.float64) * 10})


def test_object_nan_column_groups_exactly():
    """np.unique cannot sort an object column holding NaN; 1.0 used to
    come back as two one-row groups."""
    frame = Frame({"k": np.array([1.0, NAN, 0.0, 1.0, 0.0], dtype=object)})
    assert_frame(frame.groupby("k").size(), {
        "k": ("float64", [1.0, NAN, 0.0]),
        "count": ("int64", [2, 1, 2]),
    })


class TestFloatKeysWithNaN:
    left = _left(np.array([1.0, np.nan, 2.0, 1.0, np.nan]))
    right = _right(np.array([np.nan, 1.0, 3.0, 1.0]))

    def test_groupby(self):
        grouped = self.left.groupby("k")
        assert_frame(grouped.size(), {
            "k": ("float64", [1.0, NAN, 2.0, NAN]),
            "count": ("int64", [2, 1, 1, 1]),
        })
        assert_frame(grouped.agg({"v": "sum"}), {
            "k": ("float64", [1.0, NAN, 2.0, NAN]),
            "v_sum": ("float64", [30.0, 10.0, 20.0, 40.0]),
        })

    def test_inner_join(self):
        assert_frame(self.left.join(self.right, on="k"), {
            "k": ("float64", [1.0, 1.0, 1.0, 1.0]),
            "v": ("float64", [0.0, 0.0, 30.0, 30.0]),
            "v_r": ("object", ["q", "s", "q", "s"]),
            "w": ("int64", [1, 3, 1, 3]),
        })

    def test_left_join(self):
        assert_frame(self.left.join(self.right, on="k", how="left"), {
            "k": ("float64", [1.0, 1.0, NAN, 2.0, 1.0, 1.0, NAN]),
            "v": ("float64", [0.0, 0.0, 10.0, 20.0, 30.0, 30.0, 40.0]),
            "v_r": ("object", ["q", "s", None, None, "q", "s", None]),
            "w": ("object", [1, 3, None, None, 1, 3, None]),
        })


class TestObjectKeysWithNaN:
    left = _left(np.array(["a", nan(), 1, "a", nan(), 1], dtype=object))
    right = _right(np.array([nan(), "a", 2, 1], dtype=object))

    def test_groupby(self):
        grouped = self.left.groupby("k")
        assert_frame(grouped.size(), {
            "k": ("object", ["a", NAN, 1, NAN]),
            "count": ("int64", [2, 1, 2, 1]),
        })
        assert_frame(grouped.agg({"v": "sum"}), {
            "k": ("object", ["a", NAN, 1, NAN]),
            "v_sum": ("float64", [30.0, 10.0, 70.0, 40.0]),
        })

    def test_inner_join(self):
        assert_frame(self.left.join(self.right, on="k"), {
            "k": ("object", ["a", 1, "a", 1]),
            "v": ("float64", [0.0, 20.0, 30.0, 50.0]),
            "v_r": ("object", ["q", "s", "q", "s"]),
            "w": ("int64", [1, 3, 1, 3]),
        })

    def test_left_join(self):
        assert_frame(self.left.join(self.right, on="k", how="left"), {
            "k": ("object", ["a", NAN, 1, "a", NAN, 1]),
            "v": ("float64", [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]),
            "v_r": ("object", ["q", None, "s", "q", None, "s"]),
            "w": ("object", [1, None, 3, 1, None, 3]),
        })


class TestMixedStrIntNoneKeys:
    left = _left(np.array(["a", 1, None, "a", None, 1.0, True, "b"], dtype=object))
    right = _right(np.array([None, 1, "c", True], dtype=object))

    def test_groupby(self):
        grouped = self.left.groupby("k")
        assert_frame(grouped.size(), {
            "k": ("object", ["a", 1, None, "b"]),
            "count": ("int64", [2, 3, 2, 1]),
        })
        assert_frame(grouped.agg({"v": "sum"}), {
            "k": ("object", ["a", 1, None, "b"]),
            "v_sum": ("float64", [30.0, 120.0, 60.0, 70.0]),
        })

    def test_inner_join(self):
        assert_frame(self.left.join(self.right, on="k"), {
            "k": ("object", [1, 1, None, None, 1.0, 1.0, True, True]),
            "v": ("float64", [10.0, 10.0, 20.0, 40.0, 50.0, 50.0, 60.0, 60.0]),
            "v_r": ("object", ["q", "s", "p", "p", "q", "s", "q", "s"]),
            "w": ("int64", [1, 3, 0, 0, 1, 3, 1, 3]),
        })

    def test_left_join(self):
        assert_frame(self.left.join(self.right, on="k", how="left"), {
            "k": ("object", [
                "a", 1, 1, None, "a", None, 1.0, 1.0, True, True, "b",
            ]),
            "v": ("float64", [
                0.0, 10.0, 10.0, 20.0, 30.0, 40.0, 50.0, 50.0, 60.0, 60.0, 70.0,
            ]),
            "v_r": ("object", [
                None, "q", "s", "p", None, "p", "q", "s", "q", "s", None,
            ]),
            "w": ("object", [None, 1, 3, 0, None, 0, 1, 3, 1, 3, None]),
        })


class TestMultiKeyGroupby:
    frame = Frame({
        "a": np.array(["x", "y", "x", "x", "y", "x"], dtype=object),
        "b": np.array([1.0, np.nan, 1.0, np.nan, np.nan, 2.0]),
        "c": np.array([1, "s", 1, 1, "s", None], dtype=object),
        "v": np.arange(6),
    })

    def test_float_nan_key(self):
        assert_frame(self.frame.groupby("a", "b").size(), {
            "a": ("object", ["x", "y", "x", "y", "x"]),
            "b": ("float64", [1.0, NAN, NAN, NAN, 2.0]),
            "count": ("int64", [2, 1, 1, 1, 1]),
        })

    def test_three_keys(self):
        assert_frame(self.frame.groupby("a", "b", "c").agg({"v": "sum"}), {
            "a": ("object", ["x", "y", "x", "y", "x"]),
            "b": ("float64", [1.0, NAN, NAN, NAN, 2.0]),
            "c": ("object", [1, "s", 1, "s", None]),
            "v_sum": ("float64", [2.0, 1.0, 3.0, 4.0, 5.0]),
        })

    def test_mixed_object_key(self):
        assert_frame(self.frame.groupby("a", "c").size(), {
            "a": ("object", ["x", "y", "x"]),
            "c": ("object", [1, "s", None]),
            "count": ("int64", [3, 2, 1]),
        })


@pytest.mark.parametrize("column", [
    np.array([3, 1, 3, 2]),
    np.array([0.5, np.nan, 0.5, np.nan]),
    np.array(["b", 1, None, "b", 1.0, True, nan()], dtype=object),
    np.array([], dtype=object),
])
def test_factorize_codes_as_a_dict_does(column):
    from repro.dataframe.groupby import factorize

    codes = factorize(column)
    assert codes.dtype == np.int64 and len(codes) == len(column)
    codes, values = codes.tolist(), column.tolist()
    for i, j in itertools.combinations(range(len(values)), 2):
        # NaN != NaN, so equal codes must mean equal non-NaN keys
        assert (codes[i] == codes[j]) == (values[i] == values[j]), (i, j)


def test_join_keeps_int_and_float_keys_apart_as_a_dict_does():
    """A float64 promotion would merge 2**53 + 1 into 2.0**53."""
    left = Frame({"k": np.array([2**53 + 1, 7]), "x": np.arange(2)})
    right = Frame({"k": np.array([2.0**53, 7.0]), "y": np.arange(2)})
    assert_frame(left.join(right, on="k"), {
        "k": ("int64", [7]),
        "x": ("int64", [1]),
        "y": ("int64", [1]),
    })
