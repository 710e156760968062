"""glibc allocation policy: ``train`` sets the mmap and trim thresholds once
per process, only where the C library takes them, and a training step then
page-faults none of its temporaries in again."""

import ctypes
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import leakysinelu
from leakysinelu import bench
from leakysinelu.data import Dataset

SRC = Path(leakysinelu.__file__).resolve().parents[1]
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, GIB = -1, -3, 1 << 30


class FakeMallopt:
    """Records each call and answers as glibc does: 1 taken, 0 refused."""

    def __init__(self, answer: int):
        self.answer = answer
        self.calls = []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.answer


class FakeLibc:
    def __init__(self, mallopt=None):
        if mallopt is not None:
            self.mallopt = mallopt


@pytest.fixture
def fresh_process(monkeypatch):
    """The policy as a process that has not trained yet sees it."""
    monkeypatch.setattr(bench, "_heap_kept", False)


def fake_c_library(monkeypatch, lib):
    """``ctypes.CDLL`` returns ``lib``, or raises it if it is an exception."""
    opened = []

    def cdll(name):
        opened.append(name)
        if isinstance(lib, Exception):
            raise lib
        return lib

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return opened


def train_toy(times: int = 1) -> None:
    rng = np.random.default_rng(0)
    ds = Dataset(name="toy", series=rng.normal(size=(8, 12)), labels=np.arange(8) % 2,
                 label_map={"0": 0, "1": 1}, split="train")
    config = bench.TrainConfig.for_architecture("mlp", "relu", epochs=1)
    spec = bench.build_spec(config, ds)
    for _ in range(times):
        _, losses, _ = bench.train(spec, ds, config)
        assert len(losses) == 1 and np.isfinite(losses[0])


@pytest.mark.parametrize("lib", [FakeLibc(), OSError("libc.so.6: cannot open")],
                         ids=["no-mallopt", "no-libc"])
def test_train_runs_where_nothing_can_be_set(fresh_process, monkeypatch, lib):
    opened = fake_c_library(monkeypatch, lib)
    train_toy()
    assert opened == ["libc.so.6"]


def test_trim_threshold_unset_when_mmap_threshold_refused(fresh_process, monkeypatch):
    mallopt = FakeMallopt(answer=0)
    fake_c_library(monkeypatch, FakeLibc(mallopt))
    train_toy()
    assert mallopt.calls == [(M_MMAP_THRESHOLD, GIB)]


def test_each_setting_made_once_per_process(fresh_process, monkeypatch):
    mallopt = FakeMallopt(answer=1)
    opened = fake_c_library(monkeypatch, FakeLibc(mallopt))
    train_toy(times=3)
    assert opened == ["libc.so.6"]
    assert mallopt.calls == [(M_MMAP_THRESHOLD, GIB), (M_TRIM_THRESHOLD, GIB)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int


# A fresh interpreter, because this test process's heap depends on the tests
# before it. The second ``train`` of each architecture (set-up and one step)
# reuses the first one's memory; at glibc 2.36's default thresholds it took
# about 3,500 (MLP) and 10,400 (FCN) minor faults at these shapes.
FAULTS_CHILD = textwrap.dedent("""
    import resource

    import numpy as np

    from leakysinelu import bench
    from leakysinelu.data import Dataset

    rng = np.random.default_rng(0)
    ds = Dataset(name="toy", series=rng.normal(size=(16, 128)), labels=np.arange(16) % 5,
                 label_map={str(c): c for c in range(5)}, split="train")
    for arch in ("mlp", "fcn"):
        config = bench.TrainConfig.for_architecture(arch, "leakysinelu", epochs=1)
        spec = bench.build_spec(config, ds)
        bench.train(spec, ds, config)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        bench.train(spec, ds, config)
        print(arch, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
def test_training_step_takes_no_page_faults():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", FAULTS_CHILD], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    faults = {arch: int(n) for arch, n in (line.split() for line in out.stdout.splitlines())}
    assert set(faults) == {"mlp", "fcn"}
    assert all(n < 50 for n in faults.values()), f"minor faults per step: {faults}"
