"""Unit tests for the dense network and its hand-derived backward pass."""

import re

import numpy as np
import pytest

from dul_lab import nn
from dul_lab.nn import Batch, Mlp


def small_model(seed=0):
    return nn.mlp_init((2, 5, 3), seed=seed)


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Batch(np.zeros(4))
    with pytest.raises(ValueError):
        Batch(np.zeros((3, 2)), labels=np.zeros(2, dtype=int))
    assert Batch(np.zeros((3, 2)), labels=np.array([0, 1, 2])).n == 3


def test_mlp_validation():
    with pytest.raises(ValueError):
        Mlp([])
    with pytest.raises(ValueError):
        Mlp([(np.zeros((3, 2)), np.zeros(2))])
    with pytest.raises(ValueError):
        Mlp([(np.full((3, 2), np.nan), np.zeros(3))])
    with pytest.raises(ValueError):
        Mlp([(np.zeros((3, 2)), np.zeros(3)),
             (np.zeros((2, 4)), np.zeros(2))])


def test_forward_shapes_and_width_check():
    m = small_model()
    logits = m.forward(Batch(np.zeros((7, 2))))
    assert logits.shape == (7, 3)
    with pytest.raises(ValueError):
        m.forward(Batch(np.zeros((7, 3))))
    # one point as a vector, or a stack of matrices, names the shape it got
    for x in (np.zeros(2), np.zeros((2, 7, 2))):
        with pytest.raises(ValueError, match=re.escape(f"input of shape {x.shape}")):
            m.forward_cache(x)


def test_forward_linear_one_layer():
    w = np.array([[1.0, 2.0], [0.0, -1.0]])
    b = np.array([0.5, 0.0])
    m = Mlp([(w, b)])
    x = np.array([[1.0, 1.0]])
    assert np.allclose(m.forward(Batch(x)), x @ w.T + b)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(21)
    m = small_model(seed=3)
    x = rng.standard_normal((6, 2))
    target = rng.standard_normal((6, 3))

    def loss_of(model):
        return 0.5 * float(np.sum((model.forward(Batch(x)) - target) ** 2))

    logits, cache = m.forward_cache(x)
    grads = nn.grads_flat(m.backward(cache, logits - target))
    theta = m.get_flat()
    h = 1e-6
    fd = np.empty_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (loss_of(m.set_flat(up)) - loss_of(m.set_flat(dn))) / (2.0 * h)
    assert np.max(np.abs(grads - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("sizes", [(2, 3), (2, 64, 64, 3)])
def test_forward_and_backward_equal_the_plain_formulas_bit_for_bit(sizes):
    """forward_cache and backward work in place; each cached array and each
    gradient equals the formula written with a new array per operation, on
    a full 128-row batch and on the 92-row last batch of a 1,500-row epoch."""
    rng = np.random.default_rng(17)
    m = nn.mlp_init(sizes, seed=4)
    m = m.set_flat(m.get_flat() + 0.1 * rng.standard_normal(m.get_flat().size))
    last = len(m.layers) - 1
    for rows in (128, 92):
        x = rng.standard_normal((rows, 2))
        dlogits = rng.standard_normal((rows, sizes[-1]))
        dlogits[0, 0] = -0.0
        want = [x]
        for i, (w, b) in enumerate(m.layers):
            z = want[-1] @ w.T + b
            want.append(np.tanh(z) if i < last else z)
        logits, cache = m.forward_cache(x)
        assert logits is cache[-1] and len(cache) == len(want)
        for got, expected in zip(cache, want):
            assert np.array_equal(bits(got), bits(expected))
        want_grads, delta = [None] * len(m.layers), dlogits
        for i in range(last, -1, -1):
            want_grads[i] = (delta.T @ want[i], delta.sum(axis=0))
            if i > 0:
                delta = (delta @ m.layers[i][0]) * (1.0 - want[i] * want[i])
        got_grads = m.backward(cache, dlogits)
        assert np.array_equal(bits(nn.grads_flat(got_grads)), bits(nn.grads_flat(want_grads)))
        # backward reads the cache and writes none of it
        for got, expected in zip(cache, want):
            assert np.array_equal(bits(got), bits(expected))


def test_parameters_are_one_read_only_vector():
    m = small_model(seed=5)
    theta = m.get_flat()
    assert theta.size == sum(w.size + b.size for w, b in m.layers)
    assert all(w.base is theta and b.base is theta for w, b in m.layers)
    for view in [theta] + [a for layer in m.layers for a in layer]:
        with pytest.raises(ValueError, match="read-only"):
            view.flat[0] = 99.0
    with pytest.raises(TypeError):
        m.layers[0] = m.layers[1]
    assert np.array_equal(m.get_flat(), small_model(seed=5).get_flat())


def test_model_never_aliases_caller_arrays():
    w, b = np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 0.0])
    m = Mlp([(w, b)])
    w[0, 0], b[0] = 7.0, 7.0
    assert m.layers[0][0][0, 0] == 1.0 and m.layers[0][1][0] == 0.5
    theta = m.get_flat().copy()
    m2 = m.set_flat(theta)
    theta[:] = 7.0
    assert np.array_equal(m2.get_flat(), m.get_flat())
    assert not m2.get_flat().flags.writeable


def test_flat_round_trip():
    m = small_model(seed=5)
    theta = m.get_flat()
    m2 = m.set_flat(theta)
    for (w1, b1), (w2, b2) in zip(m.layers, m2.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    with pytest.raises(ValueError):
        m.set_flat(theta[:-1])
    with pytest.raises(ValueError, match="finite"):
        m.set_flat(np.where(np.arange(theta.size) == 3, np.nan, theta))


def test_mlp_init_deterministic():
    a = nn.mlp_init((2, 8, 3), seed=4)
    b = nn.mlp_init((2, 8, 3), "tanh", seed=4)
    c = nn.mlp_init((2, 8, 3), seed=5)
    assert np.array_equal(a.get_flat(), b.get_flat())
    assert not np.array_equal(a.get_flat(), c.get_flat())
    with pytest.raises(ValueError):
        nn.mlp_init((2,))
    with pytest.raises(ValueError, match="activation must be 'tanh'"):
        nn.mlp_init((2, 8, 3), "relu", seed=4)


def test_mlp_init_sizes_and_scale():
    # the smallest valid nets: one layer, and widths of 1
    assert len(nn.mlp_init((2, 3)).layers) == 1
    assert (nn.mlp_init((1, 1, 1)).in_dim, nn.mlp_init((1, 1, 1)).out_dim) == (1, 1)
    with pytest.raises(ValueError):
        nn.mlp_init((2, 0, 3))
    # weights ~ N(0, 1/fan_in): over 20,000 draws, fan_in * var is within 5 sd
    # (0.01) of 1 and the mean within 5 sd (0.00035) of 0; biases start at 0
    w, b = nn.mlp_init((400, 50, 3), seed=1).layers[0]
    assert abs(400 * np.var(w) - 1.0) < 0.05 and abs(np.mean(w)) < 0.00175
    assert not b.any()


def bits(a):
    """The float64 bit patterns of `a`, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


def test_sgd_step_momentum_update():
    m = Mlp([(np.array([[1.0, 0.0]]), np.array([0.0]))])
    grads = [(np.array([[2.0, 0.0]]), np.array([1.0]))]
    m1, v1 = nn.sgd_step(m, grads, None, lr=0.1, momentum=0.5)
    assert np.allclose(m1.layers[0][0], [[0.8, 0.0]])
    assert np.allclose(m1.layers[0][1], [-0.1])
    m2, _ = nn.sgd_step(m1, grads, v1, lr=0.1, momentum=0.5)
    # velocity becomes 0.5 * 2 + 2 = 3 for the weight
    assert np.allclose(m2.layers[0][0], [[0.8 - 0.3, 0.0]])
    with pytest.raises(ValueError):
        nn.sgd_step(m, grads, None, lr=0.0, momentum=0.5)
    with pytest.raises(ValueError):
        nn.sgd_step(m, grads, None, lr=0.1, momentum=1.0)

    # several steps from velocity None, bit for bit against the rule written
    # out per layer; bias gradients are not 1.0 and one of them is -0.0
    rng = np.random.default_rng(8)
    lr = 0.1
    for momentum in (0.0, 0.5, 0.9):
        model, v = small_model(seed=2), None
        layers = [(w.copy(), b.copy()) for w, b in model.layers]
        vel = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        for _ in range(4):
            grads = [(rng.standard_normal(w.shape), rng.standard_normal(b.shape))
                     for w, b in layers]
            grads[-1][1][0] = -0.0
            model, v = nn.sgd_step(model, grads, v, lr, momentum)
            vel = [(momentum * vw + gw, momentum * vb + gb)
                   for (vw, vb), (gw, gb) in zip(vel, grads)]
            layers = [(w - lr * vw, b - lr * vb)
                      for (w, b), (vw, vb) in zip(layers, vel)]
            assert np.array_equal(bits(v), bits(nn.grads_flat(vel)))
            assert np.array_equal(bits(model.get_flat()), bits(nn.grads_flat(layers)))
        assert len(model.layers) == len(layers)

    # the velocity is updated in place; the models share no memory with it
    # or with each other, and the old model keeps its parameters
    m, v = small_model(seed=2), None
    before = m.get_flat().copy()
    grads = [(np.ones_like(w), np.ones_like(b)) for w, b in m.layers]
    m1, v1 = nn.sgd_step(m, grads, v, 0.1, 0.5)
    m2, v2 = nn.sgd_step(m1, grads, v1, 0.1, 0.5)
    assert v2 is v1 and np.all(v2 == 1.5)
    for a, b in ((m.get_flat(), m1.get_flat()), (m1.get_flat(), m2.get_flat()),
                 (m2.get_flat(), v2), (m1.get_flat(), v2)):
        assert not np.shares_memory(a, b)
    assert np.array_equal(m.get_flat(), before)
    assert all(w.base is m2.get_flat() for w, _ in m2.layers)
    assert not m2.get_flat().flags.writeable


def test_sgd_step_rejects_gradient_of_wrong_shape():
    m = small_model()  # 2-5-3: 15 + 18 = 33 parameters
    grads = [(np.ones_like(w), np.ones_like(b)) for w, b in m.layers]
    # one layer short, one entry (it would broadcast), and a transposed
    # first weight of the right length
    for bad, size in ((grads[:1], 15), ([(np.ones((1, 1)), np.ones(0))], 1),
                      ([(np.ones((2, 5)), grads[0][1]), grads[1]], 33)):
        for velocity in (None, np.zeros(33)):
            with pytest.raises(ValueError, match=rf"gradient has {size} entries in .*the model 33"):
                nn.sgd_step(m, bad, velocity, lr=0.1, momentum=0.5)


def test_cosine_lr_endpoints():
    assert nn.cosine_lr(0, 10, 0.2) == pytest.approx(0.2)
    assert nn.cosine_lr(10, 10, 0.2) == pytest.approx(0.0)
    assert nn.cosine_lr(5, 10, 0.2) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        nn.cosine_lr(11, 10, 0.2)
    for lr0 in (-0.1, 0.0):
        with pytest.raises(ValueError):
            nn.cosine_lr(1, 10, lr0)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    for sizes in ((2, 16, 3), (1, 1)):
        m = nn.mlp_init(sizes, seed=9)
        nn.save_checkpoint(m, path)
        assert path.read_text(encoding="utf-8").splitlines()[:2] == ["dul-mlp-v1", "tanh"]
        m2 = nn.load_checkpoint(path)
        assert len(m2.layers) == len(m.layers)
        assert np.array_equal(bits(m.get_flat()), bits(m2.get_flat()))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.ckpt: bad checkpoint: not a recognized"):
        nn.load_checkpoint(path)


def test_checkpoint_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        nn.load_checkpoint(tmp_path / "nope.ckpt")


def test_checkpoint_truncated_or_garbled_raises_value_error(tmp_path):
    m = nn.mlp_init((2, 4, 3), seed=9)
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(m, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head, rest = "".join(lines[:3]), "".join(lines[4:])
    # cut after the header, inside the first layer, and with a garbled shape;
    # a dimension numpy's reshape would infer; data after the last layer, a
    # whole checkpoint appended to itself, a layer count cut from 2 to 1 and
    # a hidden activation other than tanh
    for text in (head, "".join(lines[:5]), head + "4\n" + rest,
                 head + "-1 2\n" + rest, head + "4 -1\n" + rest,
                 "".join(lines) + "0x1.0p+0\n", "".join(lines) * 2,
                 "".join(lines[:2]) + "1\n" + "".join(lines[3:]),
                 lines[0] + "relu\n" + "".join(lines[2:])):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="model.ckpt: "):
            nn.load_checkpoint(path)
