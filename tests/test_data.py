import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
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

    # Finite rows that z-normalisation would turn into zeros (the std
    # overflows) or NaN (the mean overflows), in either file of the pair.
    @pytest.mark.parametrize("row", [[1e308, -1e308], [1e308, 1e308], [9e307, 9e307]],
                             ids=["spread", "constant-1e308", "constant-9e307"])
    @pytest.mark.parametrize("split", ["TRAIN", "TEST"])
    @pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
    def test_pair_rejects_a_series_it_cannot_scale_naming_the_line(self, tmp_path, split, row):
        (tmp_path / "S").mkdir()
        path = tmp_path / "S" / f"S_{split}.tsv"
        for name in ("TRAIN", "TEST"):
            series = np.arange(12.0).reshape(3, 4)
            if name == split:
                series[1] = row * 2
            write_tsv(tmp_path / "S" / f"S_{name}.tsv", [1, 2, 1], series)
        with pytest.raises(DataError) as err:
            load_dataset_pair(tmp_path, "S")
        assert str(err.value).startswith(f"{path}:2: series mean or standard deviation overflows")

    @pytest.mark.filterwarnings("error")
    def test_pair_keeps_the_bits_of_large_series_it_can_scale(self, tmp_path):
        # A constant 4e307 series sums below the float64 limit; ±1e150 squares below it.
        (tmp_path / "S").mkdir()
        series = np.array([[4e307] * 4, [1e150, -1e150] * 2, [-4e307] * 4])
        for name in ("TRAIN", "TEST"):
            write_tsv(tmp_path / "S" / f"S_{name}.tsv", [1, 2, 1], series)
        train, test = load_dataset_pair(tmp_path, "S")
        assert train.series.tobytes() == test.series.tobytes() == series.tobytes()
        assert np.isfinite(znormalize(train).series).all()

    def test_pair_in_the_flat_layout(self, tmp_path):
        # <root>/<name>_TRAIN.tsv is read when <root>/<name>/ holds no pair.
        write_tsv(tmp_path / "Flat_TRAIN.tsv", [1, 2, 1], np.arange(12.0).reshape(3, 4))
        write_tsv(tmp_path / "Flat_TEST.tsv", [2, 1], np.arange(8.0).reshape(2, 4))
        train, test = load_dataset_pair(tmp_path, "Flat")
        assert (train.name, train.split, test.split) == ("Flat", "train", "test")
        assert train.series.tolist() == np.arange(12.0).reshape(3, 4).tolist()
        assert test.labels.tolist() == [1, 0] and train.label_map == {"1": 0, "2": 1}
        # The per-dataset directory comes first when both layouts hold the pair.
        (tmp_path / "Flat").mkdir()
        for split in ("TRAIN", "TEST"):
            write_tsv(tmp_path / "Flat" / f"Flat_{split}.tsv", [1, 2], [[5.0, 6.0]] * 2)
        assert load_dataset_pair(tmp_path, "Flat")[0].series.tolist() == [[5.0, 6.0]] * 2

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

    # znormalize itself, called as the library allows, rejects what
    # load_dataset_pair rejects, and a non-finite value in a Dataset built by hand.
    @pytest.mark.parametrize("row", [[1e308, -1e308], [1e308, 1e308], [9e307, 9e307],
                                     [np.nan, 1.0], [np.inf, 1.0]],
                             ids=["spread", "constant-1e308", "constant-9e307", "nan", "inf"])
    @pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
    def test_rejects_a_series_it_cannot_scale_naming_its_index(self, row):
        with pytest.raises(DataError, match="^x train series 1: its float64 mean or standard "
                                            "deviation is not finite"):
            znormalize(self._ds([[1.0, 2.0], row, [3.0, 5.0]]))

    @pytest.mark.filterwarnings("error")
    def test_small_scale_series_keep_their_shape(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 16))
        want = znormalize(self._ds(x)).series
        for scale in (1e-9, 1e-100, 1e-300):
            assert np.allclose(znormalize(self._ds(scale * x)).series, want, rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_only_equal_values_become_zeros(self):
        # The float64 mean of these equal values is off by an ulp, so their std
        # is not 0: 1e-17, and 1e15 for the second.
        for row in ([0.1] * 3, [7e30 * 1.1] * 7):
            assert np.array_equal(znormalize(self._ds([row])).series, [[0.0] * len(row)])
        # The squares of the subnormal row underflow, so its std reads 0.
        out = znormalize(self._ds([[0.0, 5e-324, 0.0], [1.0, 1.0 + 2.0 ** -52, 1.0]])).series
        assert np.allclose(out, [[-0.5 ** 0.5, 2 ** 0.5, -0.5 ** 0.5]] * 2, rtol=1e-12)

    @seed(28)
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=16))
    @example([0.0, 5e-324])
    @example([1e-200, 2e-200, -3e-200])
    @example([1.0, 1.0 + 2.0 ** -52])
    @example([-1e150, 1.0, 2.0])
    def test_a_row_not_all_equal_keeps_its_spread(self, row):
        x = np.array(row)
        if (x == x[0]).all():
            return
        out = znormalize(self._ds([x])).series[0]
        assert np.isfinite(out).all() and out.max() > out.min()
        assert np.abs(out).max() <= np.sqrt(len(x)) * (1 + 1e-9)
        # z-normalisation is a monotone map of the values
        order = np.argsort(x, kind="stable")
        assert (np.diff(out[order]) >= 0).all()

    @pytest.mark.filterwarnings("error")
    def test_keeps_the_bits_of_the_formula(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(loc=3.0, scale=10.0, size=(20, 8)),
                            [[2e307] * 8, [1e150, -1e150] * 4, [-2.5] * 8]])
        mean = x.mean(axis=1, keepdims=True)
        std = x.std(axis=1, keepdims=True)
        want = np.where(std < 1e-8, 0.0, (x - mean) / np.where(std < 1e-8, 1.0, std))
        assert znormalize(self._ds(x)).series.tobytes() == want.tobytes()


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
