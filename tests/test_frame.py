"""Tests for the columnar engine (repro.frame)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.frame import (
    LogFrame,
    concat,
    frame_from_records,
    read_frame_csv,
    write_frame_csv,
)
from repro.frame.io import empty_frame
from tests.helpers import make_frame, make_record, rng


def small_frame() -> LogFrame:
    return LogFrame({
        "k": np.array(["a", "b", "a", "c", "b", "a"], dtype=object),
        "v": np.array([1, 2, 3, 4, 5, 6], dtype=np.int64),
    })


class TestLogFrame:
    def test_length_and_columns(self):
        frame = small_frame()
        assert len(frame) == 6
        assert set(frame.column_names) == {"k", "v"}
        assert "k" in frame and "missing" not in frame

    def test_rejects_unequal_columns(self):
        with pytest.raises(ValueError):
            LogFrame({
                "a": np.array([1, 2]),
                "b": np.array([1]),
            })

    def test_rejects_empty_columns(self):
        with pytest.raises(ValueError):
            LogFrame({})

    def test_unknown_column_raises_keyerror(self):
        with pytest.raises(KeyError):
            small_frame().col("nope")

    def test_boolean_mask(self):
        frame = small_frame()
        sub = frame.where(frame["v"] > 3)
        assert len(sub) == 3
        assert sub["v"].tolist() == [4, 5, 6]

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError):
            small_frame().where(np.array([True]))

    def test_integer_indices(self):
        sub = small_frame().take(np.array([0, 5]))
        assert sub["k"].tolist() == ["a", "a"]

    def test_select_and_drop(self):
        frame = small_frame()
        assert frame.select(["v"]).column_names == ["v"]
        assert frame.drop("v").column_names == ["k"]

    def test_with_column(self):
        frame = small_frame().with_column("w", [0] * 6)
        assert frame["w"].tolist() == [0] * 6
        with pytest.raises(ValueError):
            small_frame().with_column("w", [1, 2])

    def test_head_and_sort(self):
        frame = small_frame().sort_values("v", descending=True)
        assert frame.head(2)["v"].tolist() == [6, 5]

    def test_sort_is_stable_in_both_directions(self):
        frame = small_frame()
        ascending = frame.sort_values("k")
        assert ascending["v"].tolist() == [1, 3, 6, 2, 5, 4]
        descending = frame.sort_values("k", descending=True)
        assert descending["k"].tolist() == ["c", "b", "b", "a", "a", "a"]
        assert descending["v"].tolist() == [4, 2, 5, 1, 3, 6]

    def test_value_counts_sorted_desc_then_by_value(self):
        assert small_frame().value_counts("k") == [("a", 3), ("b", 2), ("c", 1)]

    def test_nunique(self):
        assert small_frame().nunique("k") == 3

    def test_sample_fraction(self):
        frame = small_frame()
        assert len(frame.sample(0.5, rng())) == 3
        assert len(frame.sample(0.0, rng())) == 0
        with pytest.raises(ValueError):
            frame.sample(1.5, rng())

    def test_sample_without_replacement(self):
        frame = small_frame()
        sub = frame.sample(1.0, rng())
        assert sorted(sub["v"].tolist()) == [1, 2, 3, 4, 5, 6]

    def test_iter_rows_and_row(self):
        rows = list(small_frame().iter_rows())
        assert rows[0] == {"k": "a", "v": 1}
        assert small_frame().row(3) == {"k": "c", "v": 4}

    def test_repr(self):
        assert "6 rows" in repr(small_frame())


def assert_factorize_matches_unique(frame: LogFrame, name: str) -> None:
    values, codes = frame.factorize(name)
    expected_values, expected_codes = np.unique(frame[name], return_inverse=True)
    assert values.dtype == expected_values.dtype
    assert values.tolist() == expected_values.tolist()
    assert codes.tolist() == expected_codes.tolist()


_cells = st.sampled_from(["", "-", "a", "b", "ab", "B", "www.x.com", "x.com"])


def objects(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


class TestFactorize:
    @given(st.lists(st.tuples(_cells, st.integers(-5, 5)), max_size=40))
    def test_matches_np_unique(self, rows):
        frame = LogFrame({
            "s": objects([s for s, _ in rows]),
            "i": np.array([i for _, i in rows], dtype=np.int64),
        })
        for name in ("s", "i"):
            assert_factorize_matches_unique(frame, name)

    @given(st.lists(_cells, min_size=1, max_size=40), st.data())
    def test_matches_np_unique_after_transforms(self, strings, data):
        frame = LogFrame({"k": objects(strings), "v": np.arange(len(strings))})
        frame.factorize("k")  # warm the source frame's memo
        mask = np.array(data.draw(
            st.lists(st.booleans(), min_size=len(strings), max_size=len(strings))
        ))
        order = np.array(data.draw(st.permutations(range(len(strings)))))
        replaced = objects(data.draw(
            st.lists(_cells, min_size=len(strings), max_size=len(strings))
        ))
        for derived in (
            frame.where(mask),
            frame.take(order),
            frame.with_column("k", replaced),
            concat([frame, frame.where(mask)]),
        ):
            assert_factorize_matches_unique(derived, "k")
            assert_factorize_matches_unique(derived, "v")

    def test_empty_and_single_value(self):
        assert_factorize_matches_unique(small_frame().where(np.zeros(6, bool)), "k")
        single = LogFrame({"k": np.array(["a"] * 4, dtype=object)})
        assert_factorize_matches_unique(single, "k")
        assert single.factorize("k")[1].tolist() == [0, 0, 0, 0]

    def test_key_maps_each_distinct_value(self):
        calls = []

        def first_letter(value):
            calls.append(value)
            return value[0]

        frame = LogFrame({
            "k": np.array(["bx", "a", "by", "a", "bx"], dtype=object),
        })
        values, codes = frame.factorize("k", first_letter)
        assert values.tolist() == ["a", "b"]
        assert codes.tolist() == [1, 0, 1, 0, 1]
        assert sorted(calls) == ["a", "bx", "by"]

    def test_memoized_per_frame(self):
        frame = small_frame()
        first = frame.factorize("k")
        second = frame.factorize("k")
        assert first[0] is second[0] and first[1] is second[1]
        calls = []
        for _ in range(2):
            assert frame.memoized("key", lambda: calls.append(1) or 7) == 7
        assert calls == [1]
        assert small_frame().memoized("key", lambda: 8) == 8

    def test_with_column_never_reuses_stale_codes(self):
        frame = small_frame()
        frame.factorize("k")
        replaced = frame.with_column(
            "k", np.array(["z", "z", "y", "y", "x", "x"], dtype=object)
        )
        values, codes = replaced.factorize("k")
        assert values.tolist() == ["x", "y", "z"]
        assert codes.tolist() == [2, 2, 1, 1, 0, 0]
        assert replaced.value_counts("k") == [("x", 2), ("y", 2), ("z", 2)]

    def test_pickle_round_trip_carries_no_memo(self):
        frame = small_frame()
        plain = pickle.dumps(frame)
        frame.factorize("k")
        assert pickle.dumps(frame) == plain
        restored = pickle.loads(plain)
        assert restored._memo == {}
        assert restored.value_counts("k") == frame.value_counts("k")


class TestConcat:
    def test_concat(self):
        combined = concat([small_frame(), small_frame()])
        assert len(combined) == 12

    def test_concat_rejects_mismatched_columns(self):
        other = LogFrame({"k": np.array(["x"], dtype=object)})
        with pytest.raises(ValueError):
            concat([small_frame(), other])

    def test_concat_rejects_empty_list(self):
        with pytest.raises(ValueError):
            concat([])


class TestGroupBy:
    def test_count(self):
        assert small_frame().groupby("k").count() == {"a": 3, "b": 2, "c": 1}

    def test_sum(self):
        assert small_frame().groupby("k").sum("v") == {
            "a": 10.0, "b": 7.0, "c": 4.0,
        }

    def test_count_where(self):
        frame = small_frame()
        mask = frame["v"] > 2
        assert frame.groupby("k").count_where(mask) == {"a": 2, "b": 1, "c": 1}
        with pytest.raises(ValueError):
            frame.groupby("k").count_where(np.array([True]))

    def test_nunique(self):
        frame = LogFrame({
            "k": np.array(["a", "a", "b", "b"], dtype=object),
            "v": np.array(["x", "x", "x", "y"], dtype=object),
        })
        assert frame.groupby("k").nunique("v") == {"a": 1, "b": 2}

    def test_top(self):
        assert small_frame().groupby("k").top(2) == [("a", 3), ("b", 2)]

    def test_indices_and_frames(self):
        groups = small_frame().groupby("k")
        indices = groups.indices()
        assert indices["a"].tolist() == [0, 2, 5]
        frames = groups.frames()
        assert frames["b"]["v"].tolist() == [2, 5]

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.integers(0, 100)),
            min_size=1,
            max_size=60,
        )
    )
    def test_groupby_matches_bruteforce(self, pairs):
        keys = np.array([k for k, _ in pairs], dtype=object)
        values = np.array([v for _, v in pairs], dtype=np.int64)
        frame = LogFrame({"k": keys, "v": values})
        grouped = frame.groupby("k")
        expected_counts = {}
        expected_sums = {}
        for k, v in pairs:
            expected_counts[k] = expected_counts.get(k, 0) + 1
            expected_sums[k] = expected_sums.get(k, 0) + v
        assert grouped.count() == expected_counts
        assert grouped.sum("v") == {k: float(v) for k, v in expected_sums.items()}


class TestIO:
    def test_frame_from_records(self):
        records = [make_record(cs_host=f"h{i}.com") for i in range(5)]
        frame = frame_from_records(records)
        assert len(frame) == 5
        assert frame["cs_host"].tolist() == [f"h{i}.com" for i in range(5)]

    def test_frame_from_no_records(self):
        frame = frame_from_records([])
        assert len(frame) == 0
        assert "cs_host" in frame

    def test_empty_frame_has_standard_columns(self):
        frame = empty_frame()
        assert "x_exception_id" in frame and len(frame) == 0

    def test_csv_roundtrip(self, tmp_path):
        frame = make_frame([
            dict(cs_host="a.com"),
            dict(cs_host="b.com", x_exception_id="policy_denied"),
        ])
        path = tmp_path / "frame.csv"
        write_frame_csv(frame, path)
        restored = read_frame_csv(path)
        assert len(restored) == 2
        assert restored["cs_host"].tolist() == frame["cs_host"].tolist()
        assert restored["epoch"].dtype == frame["epoch"].dtype

    def test_read_empty_csv_raises(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_frame_csv(path)

    def test_ragged_row_raises_with_file_and_line(self, tmp_path):
        """Rows with fewer cells than the header used to be silently
        zip-truncated into misaligned columns."""
        path = tmp_path / "ragged.csv"
        path.write_text("epoch,cs_host,sc_status\n"
                        "1,a.com,200\n"
                        "2,b.com\n")
        with pytest.raises(ValueError, match=r"line 3.*expected 3.*got 2"):
            read_frame_csv(path)
        assert "ragged.csv" in str(pytest.raises(
            ValueError, read_frame_csv, path
        ).value)

    def test_extra_cells_also_raise(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("epoch,cs_host\n1,a.com,extra\n")
        with pytest.raises(ValueError, match="line 2"):
            read_frame_csv(path)

    def test_non_numeric_cell_raises_with_file_and_line(self, tmp_path):
        """A non-numeric cell in an int column used to die with a bare
        numpy ValueError that named neither file nor line."""
        path = tmp_path / "bad.csv"
        path.write_text("epoch,cs_host\n"
                        "100,a.com\n"
                        "oops,b.com\n"
                        "300,c.com\n")
        with pytest.raises(ValueError, match=r"bad\.csv.*line 3.*'epoch'"):
            read_frame_csv(path)
