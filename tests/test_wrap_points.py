"""The benchmark under perfbench/ wraps package attributes on the owner its
callers look them up on at call time. This test installs every wrap point on
the package, runs one tiny training cell through them and restores them, so
a refactor that moves a wrapped attribute off its owner fails here rather
than only in the benchmark. Nothing under perfbench/ is edited."""

from pathlib import Path
from types import SimpleNamespace

from leakysinelu import activations, autodiff, bench, cli, data, kernels, models, optim

from conftest import toy_sine_vs_flat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrap_point_is_on_its_owner_and_live(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import metrics
    from tracer import Tracer

    pkg = SimpleNamespace(activations=activations, autodiff=autodiff, bench=bench, cli=cli,
                          data=data, kernels=kernels, models=models, optim=optim)
    originals = (activations.array_value, autodiff.activate, bench.softmax_xent,
                 optim.Adadelta.__dict__["step"], autodiff.Tape.__dict__["record"])
    ds = toy_sine_vs_flat(n_per_class=4, length=16)
    config = bench.TrainConfig.for_architecture("mlp", "prelu", epochs=1)
    tracer = Tracer()
    try:
        metrics.install_layers(tracer, pkg)  # KeyError if an attribute left its owner
        bench.train(bench.build_spec(config, ds), ds, config)
    finally:
        tracer.restore()
    assert originals == (activations.array_value, autodiff.activate, bench.softmax_xent,
                         optim.Adadelta.__dict__["step"], autodiff.Tape.__dict__["record"])
    names = {span[0] for span in tracer.spans}
    assert {
        "bench.train", "models.init_params", "models.forward_train",
        "autodiff.activate.fwd", "autodiff.activate.bwd",
        "activations.array_value", "activations.array_derivative",
        "autodiff.affine.fwd", "autodiff.dropout.fwd", "autodiff.loss.fwd", "autodiff.loss.bwd",
        "autodiff.Tape.backward", "optim.step", "kernels.update",
    } <= names
