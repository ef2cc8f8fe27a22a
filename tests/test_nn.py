"""Unit tests for the dense network and its hand-derived backward pass."""

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


def test_flat_round_trip():
    m = small_model(seed=5)
    theta = m.get_flat()
    m2 = m.set_flat(theta)
    for (w1, b1), (w2, b2) in zip(m.layers, m2.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    with pytest.raises(ValueError):
        m.set_flat(theta[:-1])


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


def test_cosine_lr_endpoints():
    assert nn.cosine_lr(0, 10, 0.2) == pytest.approx(0.2)
    assert nn.cosine_lr(10, 10, 0.2) == pytest.approx(0.0)
    assert nn.cosine_lr(5, 10, 0.2) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        nn.cosine_lr(11, 10, 0.2)
    with pytest.raises(ValueError):
        nn.cosine_lr(1, 10, -0.1)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = nn.mlp_init((2, 16, 3), seed=9)
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(m, path)
    assert path.read_text(encoding="utf-8").splitlines()[:2] == ["dul-mlp-v1", "tanh"]
    m2 = nn.load_checkpoint(path)
    for (w1, b1), (w2, b2) in zip(m.layers, m2.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)


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
