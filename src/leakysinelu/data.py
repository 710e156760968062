"""UCR-style dataset loading: tab-separated UTF-8 text, label first, one
series per LF- or CRLF-terminated row.

Only the equal-length univariate layout is supported; ragged rows are
rejected, and so are missing (NaN) or infinite labels and values. Labels
are re-encoded to 0..C-1 in ascending numeric order of the original
values, and train/test splits of one dataset share the encoding. The
dataset root is the ``--data-root`` flag value, else ``$UCR_DATA_ROOT``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, UnsupportedDatasetError

__all__ = [
    "Dataset",
    "load_ucr_split",
    "load_dataset_pair",
    "encode_labels",
    "znormalize",
    "save_ucr_split",
    "data_root",
]

ZNORM_MODES = ("per_series", "none")  # the normalizations znormalize applies


@dataclass
class Dataset:
    """Equal-length labeled series with the label-encoding map."""

    name: str
    series: np.ndarray  # (N, L) float64
    labels: np.ndarray  # (N,) int64 in [0, C)
    label_map: dict[str, int]  # original label text -> encoded index
    split: str

    @property
    def n_classes(self) -> int:
        return len(self.label_map)

    @property
    def length(self) -> int:
        return self.series.shape[1]

    def __len__(self) -> int:
        return self.series.shape[0]


def _canonical_label(text: str) -> str:
    # "1", "1.0" and "1.000" are the same label in UCR exports.
    value = float(text)
    return str(int(value)) if value == int(value) else repr(value)


def encode_labels(
    raw_labels: list[str], label_map: dict[str, int] | None = None
) -> tuple[np.ndarray, dict[str, int]]:
    """Map raw labels to 0..C-1, ordered by ascending numeric value.

    With an explicit ``label_map`` (the train split's), unseen labels are an
    error; otherwise the map is built from the given labels.
    """
    canonical = [_canonical_label(t) for t in raw_labels]
    if label_map is None:
        distinct = sorted(set(canonical), key=float)
        if len(distinct) < 2:
            raise DataError(f"need at least 2 distinct labels, got {distinct}")
        label_map = {lab: i for i, lab in enumerate(distinct)}
    missing = set(canonical) - set(label_map)
    if missing:
        raise DataError(f"labels {sorted(missing)} do not appear in the train split")
    encoded = np.array([label_map[lab] for lab in canonical], dtype=np.int64)
    return encoded, label_map


def load_ucr_split(
    path, name: str | None = None, split: str = "train", label_map: dict[str, int] | None = None
) -> Dataset:
    """Parse one TSV file. Pass the train split's ``label_map`` for test."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    rows: list[np.ndarray] = []
    raw_labels: list[str] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                # utf-8-sig drops a byte-order mark that some editors write first.
                line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
            if not line:
                continue
            fields = line.split("\t") if "\t" in line else line.split()
            if len(fields) < 2:
                raise DataError(f"{path}:{lineno}: need a label and at least one value")
            try:
                numbers = np.array([float(v) for v in fields], dtype=np.float64)
            except ValueError as exc:
                bad = next(
                    (c + 1 for c, v in enumerate(fields) if not _is_number(v)), None
                )
                raise DataError(f"{path}:{lineno}: non-numeric field at column {bad}") from exc
            finite = np.isfinite(numbers)
            if not finite.all():
                col = int(np.argmin(finite)) + 1
                raise DataError(f"{path}:{lineno}:{col}: non-finite value {fields[col - 1]!r}")
            raw_labels.append(fields[0])
            rows.append(numbers[1:])
    if not rows:
        raise DataError(f"{path}: empty dataset")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise UnsupportedDatasetError(
            f"{path}: ragged series lengths {sorted(lengths)}; only the "
            "equal-length layout is supported"
        )
    encoded, label_map = encode_labels(raw_labels, label_map)
    return Dataset(
        name=name or path.stem,
        series=np.vstack(rows),
        labels=encoded,
        label_map=label_map,
        split=split,
    )


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_dataset_pair(root, name: str) -> tuple[Dataset, Dataset]:
    """Load <root>/<name>/<name>_TRAIN.tsv and _TEST.tsv with a shared map.

    Files directly under <root> (without the per-dataset directory) are also
    accepted.
    """
    root = Path(root)
    candidates = [root / name, root]
    for base in candidates:
        train_path = base / f"{name}_TRAIN.tsv"
        test_path = base / f"{name}_TEST.tsv"
        if train_path.is_file() and test_path.is_file():
            train = load_ucr_split(train_path, name=name, split="train")
            test = load_ucr_split(test_path, name=name, split="test", label_map=train.label_map)
            if test.length != train.length:
                raise UnsupportedDatasetError(
                    f"{name}: train length {train.length} != test length {test.length}"
                )
            return train, test
    raise DataError(
        f"dataset {name!r} not found under {root} "
        f"(expected {name}_TRAIN.tsv / {name}_TEST.tsv)"
    )


def znormalize(dataset: Dataset, mode: str = "per_series") -> Dataset:
    """Rescale each series to mean 0, population std 1 (constants go to zero)."""
    if mode not in ZNORM_MODES:
        raise DataError(f"unknown normalization mode {mode!r}")
    if mode == "none":
        return dataset
    x = dataset.series
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True)
    out = np.where(std < 1e-8, 0.0, (x - mean) / np.where(std < 1e-8, 1.0, std))
    return replace(dataset, series=out)


def save_ucr_split(dataset: Dataset, path) -> None:
    """Write back in the input TSV layout with round-trippable float text."""
    inverse = {v: k for k, v in dataset.label_map.items()}
    with open(path, "w") as fh:
        for label, row in zip(dataset.labels, dataset.series):
            fields = [inverse[int(label)]]
            fields += [np.format_float_positional(v, trim="0", unique=True) for v in row]
            fh.write("\t".join(fields) + "\n")


def data_root(flag_value: str | None = None) -> str | None:
    """The dataset root: the --data-root flag value, else $UCR_DATA_ROOT."""
    return flag_value or os.environ.get("UCR_DATA_ROOT") or None
