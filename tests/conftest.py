"""Shared helpers: synthetic datasets in the UCR TSV layout, activation docs
the catalog rejects, and a finite-difference check of a model's gradients."""

import numpy as np
import pytest

from leakysinelu.data import Dataset, znormalize


# Activation docs that differ from the catalog, which fixes each kind's
# parameter values and trainable set.
UNLIKE_THE_CATALOG = [
    {"name": "snake", "params": {"a": 2.0}, "learnable": []},
    {"name": "prelu", "params": {"alpha": 0.25}, "learnable": []},
    {"name": "elu", "params": {"alpha": 1.0}, "learnable": ["alpha"]},
    {"name": "relu", "params": {"alpha": 0.1}, "learnable": []},
]
UNLIKE_IDS = ["snake-a-2", "prelu-not-trained", "elu-trained", "relu-with-alpha"]


def write_tsv(path, labels, series):
    with open(path, "w") as fh:
        for label, row in zip(labels, series):
            fields = [str(label)] + [repr(float(v)) for v in row]
            fh.write("\t".join(fields) + "\n")


def synth_series(rng, label_values, n_per_class, length, noise=0.05):
    """Separable classes: class c is a sinusoid with c+1 cycles plus noise."""
    t = np.arange(length) / length
    labels, rows = [], []
    for c, label in enumerate(label_values):
        base = np.sin(2 * np.pi * (c + 1) * t)
        for _ in range(n_per_class):
            rows.append(base + noise * rng.normal(size=length))
            labels.append(label)
    order = rng.permutation(len(rows))
    return [labels[i] for i in order], np.vstack(rows)[order]


def make_ucr_root(root, names, n_train=12, n_test=12, length=24, label_values=(-1, 1), seed=0):
    """Write <root>/<name>/<name>_{TRAIN,TEST}.tsv for each dataset name."""
    rng = np.random.default_rng(seed)
    for name in names:
        d = root / name
        d.mkdir(parents=True, exist_ok=True)
        labels, series = synth_series(rng, label_values, n_train, length)
        write_tsv(d / f"{name}_TRAIN.tsv", labels, series)
        labels, series = synth_series(rng, label_values, n_test, length)
        write_tsv(d / f"{name}_TEST.tsv", labels, series)
    return root


def toy_sine_vs_flat(n_per_class=20, length=32):
    """The two-class sanity task: a pure sinusoid versus an all-zero series."""
    t = np.arange(length)
    wave = np.sin(2 * np.pi * t / length)
    series = np.vstack([np.tile(wave, (n_per_class, 1)), np.zeros((n_per_class, length))])
    labels = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    ds = Dataset(
        name="sine-vs-flat",
        series=series,
        labels=labels,
        label_map={"0": 0, "1": 1},
        split="train",
    )
    return znormalize(ds, "per_series")


@pytest.fixture
def ucr_root(tmp_path):
    return make_ucr_root(tmp_path / "ucr", ["SynthA", "SynthB"])


def model_loss(spec, state, x, y, dropout_seed=3):
    """Training-mode loss as a pure function of the parameters: the dropout
    rng is re-seeded per call, and training-mode batch norm never reads the
    running stats it updates."""
    from leakysinelu.autodiff import sigmoid_bce, softmax_xent
    from leakysinelu.models import forward

    rng = np.random.default_rng(dropout_seed)
    logits = forward(spec, state, x, training=True, rng=rng)
    if spec.head == "sigmoid":
        return float(sigmoid_bce(logits, y).data)
    return float(softmax_xent(logits, y).data)


def model_gradcheck(spec, seed=0, coords_per_tensor=4, h=1e-4):
    """Worst relative error between backprop and central differences.

    Every parameter tensor is checked; tensors with at most 8 entries are
    checked coordinate by coordinate, larger ones on a seeded sample of
    coordinates (exhaustive finite differences over ~2.6e5 parameters would
    need days, not seconds).
    """
    from leakysinelu.autodiff import Tape, sigmoid_bce, softmax_xent
    from leakysinelu.models import forward, init_params, wrap_params

    state = init_params(spec, seed)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, spec.input_length))
    n_out = spec.n_classes if spec.head == "softmax" else 2
    y = rng.integers(0, n_out, size=4)
    tape = Tape()
    tensors = wrap_params(state)
    logits = forward(
        spec, state, x, tape=tape, training=True,
        rng=np.random.default_rng(3), param_tensors=tensors,
    )
    loss_fn = sigmoid_bce if spec.head == "sigmoid" else softmax_xent
    loss = loss_fn(logits, y, tape)
    tape.backward(loss)
    worst = 0.0
    coord_rng = np.random.default_rng(17)
    for name, tensor in tensors.items():
        flat = state.params[name].reshape(-1)
        if flat.size <= 8:
            idxs = np.arange(flat.size)
        else:
            idxs = coord_rng.choice(flat.size, size=coords_per_tensor, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp = model_loss(spec, state, x, y)
            flat[i] = orig - h
            lm = model_loss(spec, state, x, y)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            ana = tensor.grad.reshape(-1)[i]
            worst = max(worst, abs(ana - fd) / max(1.0, abs(ana), abs(fd)))
    return worst
