"""The tracer sees calls made through names bound by ``from ... import``
and through ``Mlp`` methods, counts what a pretrain issues, and puts every
original back when uninstalled."""

from dul_lab import nn, runner, theory
from dul_lab.config import TrainConfig

from tracer import Tracer


def test_counts_from_import_bindings_and_restores():
    sgd_step, forward_cache = runner.sgd_step, vars(nn.Mlp)["forward_cache"]
    cfg = TrainConfig(seed=3, pretrain_epochs=2)
    tracer = Tracer()
    tracer.install()
    try:
        runner.pretrain(cfg)
    finally:
        tracer.uninstall()
    assert runner.sgd_step is sgd_step
    assert vars(nn.Mlp)["forward_cache"] is forward_cache
    steps = 2 * 12  # epochs x ceil(3 * 500 / 128)
    m = tracer.layer_metrics(1)
    assert m["nn.sgd_step.calls"] == steps
    assert m["losses.ce.calls"] == steps
    assert m["nn.forward_cache.calls"] == steps
    assert m["nn.forward_cache.rows"] == 2 * 3 * 500
    assert m["dirichlet.calls"] == 0
    assert m["nn.forward.repeat_frac"] == 0.0
    assert m["data.calls"] == 2  # ID blobs and semantic outliers
    assert m["runner.self_s"] > 0


def test_repeat_frac_counts_same_model_and_input_within_one_call():
    model = nn.mlp_init((2, 4, 3), "tanh", seed=0)
    x = runner.make_datasets(TrainConfig(seed=1))[0].points
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(2):  # separate top-level calls never repeat
            model.forward(nn.Batch(x))
        theory.disparity(x, model, model)  # second forward is a repeat
    finally:
        tracer.uninstall()
    assert (tracer.forwards, tracer.repeats) == (4, 1)
    assert tracer.layer_metrics(1)["theory.disparity.calls"] == 1
