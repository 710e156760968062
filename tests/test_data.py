import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakysinelu.data import (
    Dataset,
    encode_labels,
    load_dataset_pair,
    load_ucr_split,
    save_ucr_split,
    znormalize,
)
from leakysinelu.errors import DataError, UnsupportedDatasetError

from conftest import write_tsv


class TestLoad:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0.5\t-0.5\n2\t1.5\t2.5\n")
        ds = load_ucr_split(p)
        assert ds.series.tolist() == [[0.5, -0.5], [1.5, 2.5]]
        assert ds.labels.tolist() == [0, 1]

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t" + "\t".join(["0"] * 24) + "\n2\t" + "\t".join(["0"] * 23) + "\n")
        with pytest.raises(UnsupportedDatasetError):
            load_ucr_split(p)

    def test_three_class_label_map_sorted(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("-1\t0\t1\n1\t2\t3\n2\t4\t5\n")
        ds = load_ucr_split(p)
        assert ds.label_map == {"-1": 0, "1": 1, "2": 2}
        assert ds.n_classes == 3

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "1\t0.5\t-0.5\n2\t1.5\t2.5\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = load_ucr_split(plain), load_ucr_split(marked)
        assert got.series.tolist() == want.series.tolist()
        assert (got.labels.tolist(), got.label_map) == (want.labels.tolist(), want.label_map)
        # Only the file's first character is a byte-order mark.
        marked.write_text(text + "\ufeff1\t0.0\t0.0\n", encoding="utf-8-sig")
        with pytest.raises(DataError, match=":3: non-numeric field at column 1"):
            load_ucr_split(marked)

    def test_non_numeric_field_reported(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0.5\tabc\n")
        with pytest.raises(DataError, match="column 3"):
            load_ucr_split(p)

    @pytest.mark.parametrize("row, column", [
        ("1\t0.5\tnan\n", 3),
        ("1\tNaN\t0.5\n", 2),
        ("1\t0.5\tinf\n", 3),
        ("1\t-Infinity\t0.5\n", 2),
        ("nan\t0.5\t0.5\n", 1),
        ("inf\t0.5\t0.5\n", 1),
    ], ids=["nan", "NaN", "inf", "-Infinity", "nan-label", "inf-label"])
    def test_non_finite_field_reported(self, tmp_path, row, column):
        p = tmp_path / "d.tsv"
        p.write_text("2\t1.0\t2.0\n" + row)
        with pytest.raises(DataError, match=f"d.tsv:2:{column}: non-finite"):
            load_ucr_split(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_ucr_split(tmp_path / "absent.tsv")

    def test_pair_shares_label_map(self, tmp_path):
        root = tmp_path / "ucr"
        (root / "Two").mkdir(parents=True)
        write_tsv(root / "Two" / "Two_TRAIN.tsv", [1, -1, 1, -1], np.arange(16.0).reshape(4, 4))
        write_tsv(root / "Two" / "Two_TEST.tsv", [-1, 1], np.arange(8.0).reshape(2, 4))
        train, test = load_dataset_pair(root, "Two")
        assert train.label_map == test.label_map == {"-1": 0, "1": 1}
        assert test.labels.tolist() == [0, 1]

    def test_missing_dataset_pair(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset_pair(tmp_path, "Nothing")


class TestEncodeLabels:
    def test_sorted_numeric(self):
        enc, m = encode_labels(["3", "1", "2"])
        assert m == {"1": 0, "2": 1, "3": 2}
        assert enc.tolist() == [2, 0, 1]

    def test_negative_labels(self):
        enc, m = encode_labels(["-1", "1", "-1"])
        assert m == {"-1": 0, "1": 1}
        assert enc.tolist() == [0, 1, 0]

    def test_unseen_test_label(self):
        _, m = encode_labels(["1", "2"])
        with pytest.raises(DataError):
            encode_labels(["5"], m)

    def test_float_text_variants_collapse(self):
        enc, m = encode_labels(["1", "1.0", "2"])
        assert m == {"1": 0, "2": 1}
        assert enc.tolist() == [0, 0, 1]


class TestZnormalize:
    def _ds(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        return Dataset("x", rows, np.zeros(len(rows), dtype=np.int64), {"0": 0, "1": 1}, "train")

    def test_example(self):
        out = znormalize(self._ds([[1.0, 2.0, 3.0]]))
        assert np.allclose(out.series, [[-1.224744871, 0.0, 1.224744871]], atol=1e-8)

    def test_constant_series_zeroed(self):
        out = znormalize(self._ds([[5.0, 5.0, 5.0]]))
        assert np.array_equal(out.series, [[0.0, 0.0, 0.0]])

    def test_mode_none_is_identity(self):
        ds = self._ds([[1.0, 2.0, 3.0]])
        assert znormalize(ds, "none") is ds

    def test_mean_and_std_invariants(self):
        rng = np.random.default_rng(0)
        ds = self._ds(rng.normal(loc=3.0, scale=10.0, size=(50, 30)))
        out = znormalize(ds)
        assert np.abs(out.series.mean(axis=1)).max() < 1e-9
        assert np.abs(out.series.std(axis=1) - 1.0).max() < 1e-9


class TestRoundTrip:
    def test_save_load_value_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        series = rng.normal(size=(6, 9))
        labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
        ds = Dataset("r", series, labels, {"-1": 0, "1": 1, "3": 2}, "train")
        path = tmp_path / "r.tsv"
        save_ucr_split(ds, path)
        back = load_ucr_split(path, label_map=ds.label_map)
        assert np.array_equal(back.series, ds.series)
        assert np.array_equal(back.labels, ds.labels)


# Negative zero, the smallest subnormal, a negative subnormal, the largest
# finite magnitude and values whose shortest repr needs 17 digits.
_EDGE_VALUES = [-0.0, 5e-324, -2.2250738585072014e-308, -1.7976931348623157e308,
                0.1 + 0.2, -1.0000000000000002, 2.718281828459045e-200]
_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_VALUES))


def _label_text(value: float) -> str:
    # The canonical label text the loader writes into label_map.
    return str(int(value)) if value == int(value) else repr(value)


@st.composite
def _datasets(draw):
    texts = sorted({_label_text(v) for v in draw(st.lists(
        st.one_of(st.integers(-1000, 1000).map(float),
                  st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)),
        min_size=2, max_size=5))}, key=float)
    if len(texts) < 2:
        texts = ["0", "1"]
    extra = draw(st.lists(st.integers(0, len(texts) - 1), max_size=4))
    labels = draw(st.permutations(list(range(len(texts))) + extra))
    length = draw(st.integers(1, 6))
    series = draw(st.lists(st.lists(_values, min_size=length, max_size=length),
                           min_size=len(labels), max_size=len(labels)))
    return Dataset("h", np.array(series, dtype=np.float64), np.array(labels, dtype=np.int64),
                   {text: i for i, text in enumerate(texts)}, "train")


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None, database=None)
    @given(_datasets())
    @example(Dataset("e", np.array([_EDGE_VALUES, _EDGE_VALUES[::-1]]), np.array([1, 0]),
                     {"-3": 0, "2.5": 1}, "train"))
    def test_save_then_load_is_bit_identical(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h_TRAIN.tsv"
            save_ucr_split(ds, path)
            back = load_ucr_split(path, name="h")
        assert back.label_map == ds.label_map
        assert np.array_equal(back.labels, ds.labels)
        assert back.series.shape == ds.series.shape
        # Compare the bit patterns, so -0.0 and 0.0 differ.
        assert np.array_equal(back.series.view(np.int64), ds.series.view(np.int64))
