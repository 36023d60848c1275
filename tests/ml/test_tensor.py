"""Autograd engine: per-op numerical gradient checks and graph semantics."""

import numpy as np
import pytest

from repro.ml.tensor import Tensor, no_grad

RNG = np.random.default_rng(42)


def numerical_grad(f, x, eps=1e-3):
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi = x.copy()
        hi[idx] += eps
        lo = x.copy()
        lo[idx] -= eps
        grad[idx] = (f(hi) - f(lo)) / (2 * eps)
    return grad


def check_grad(build, shape, atol=2e-3):
    """Compare analytic and numerical gradients for scalar-valued build(x)."""
    x = RNG.normal(size=shape).astype(np.float32)
    t = Tensor.param(x.copy())
    build(t).backward()
    expected = numerical_grad(lambda v: build(Tensor.param(v.astype(np.float32))).item(), x)
    assert np.allclose(t.grad, expected, atol=atol), (
        f"max err {np.abs(t.grad - expected).max()}"
    )


class TestArithmeticGrads:
    def test_add(self):
        check_grad(lambda t: (t + t * 2.0).sum(), (3, 4))

    def test_mul(self):
        other = Tensor(RNG.normal(size=(3, 4)).astype(np.float32))
        check_grad(lambda t: (t * other).sum(), (3, 4))

    def test_sub_neg(self):
        check_grad(lambda t: (1.0 - t - t).sum(), (5,))

    def test_div(self):
        check_grad(lambda t: (t / 2.0).sum(), (4,))

    def test_pow(self):
        x = np.abs(RNG.normal(size=(4,))).astype(np.float32) + 0.5
        t = Tensor.param(x.copy())
        (t ** 3.0).sum().backward()
        assert np.allclose(t.grad, 3 * x**2, atol=1e-2)

    def test_broadcast_add_bias(self):
        bias = Tensor.param(np.zeros(4, dtype=np.float32))
        x = Tensor(RNG.normal(size=(3, 4)).astype(np.float32))
        (x + bias).sum().backward()
        assert bias.grad.shape == (4,)
        assert np.allclose(bias.grad, 3.0)

    def test_broadcast_scalar_like(self):
        scale = Tensor.param(np.ones((1, 1), dtype=np.float32))
        x = Tensor(RNG.normal(size=(3, 4)).astype(np.float32))
        (x * scale).sum().backward()
        assert scale.grad.shape == (1, 1)
        assert np.allclose(scale.grad, x.data.sum(), atol=1e-4)


class TestMatmulGrads:
    def test_2d(self):
        other = Tensor(RNG.normal(size=(4, 5)).astype(np.float32))
        check_grad(lambda t: t.matmul(other).sum(), (3, 4))

    def test_batched(self):
        other = Tensor(RNG.normal(size=(2, 4, 5)).astype(np.float32))
        check_grad(lambda t: t.matmul(other).sum(), (2, 3, 4))

    def test_right_operand(self):
        left = Tensor(RNG.normal(size=(3, 4)).astype(np.float32))
        check_grad(lambda t: left.matmul(t).sum(), (4, 5))


class TestNonlinearGrads:
    def test_exp(self):
        check_grad(lambda t: t.exp().sum(), (3, 3))

    def test_log(self):
        x = np.abs(RNG.normal(size=(4,))).astype(np.float32) + 0.5
        t = Tensor.param(x.copy())
        t.log().sum().backward()
        assert np.allclose(t.grad, 1.0 / x, atol=1e-3)

    def test_tanh(self):
        check_grad(lambda t: t.tanh().sum(), (3, 4))

    def test_gelu(self):
        check_grad(lambda t: t.gelu().sum(), (3, 4))

    def test_log_softmax(self):
        # float32 cancellation in the row sums needs a looser tolerance
        check_grad(lambda t: t.log_softmax().sum(), (3, 5), atol=5e-3)

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(RNG.normal(size=(4, 7)).astype(np.float32))
        assert np.allclose(t.softmax().data.sum(axis=-1), 1.0, atol=1e-5)

    def test_log_softmax_stability(self):
        t = Tensor(np.array([[1000.0, 1000.0]], dtype=np.float32))
        out = t.log_softmax().data
        assert np.all(np.isfinite(out))


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_grad(lambda t: (t.sum(axis=0) * 2.0).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_grad(lambda t: (t * t.sum(axis=-1, keepdims=True)).sum(), (3, 4))

    def test_mean(self):
        t = Tensor.param(np.ones((2, 5), dtype=np.float32))
        t.mean().backward()
        assert np.allclose(t.grad, 0.1)

    def test_reshape_transpose(self):
        check_grad(lambda t: t.reshape(4, 3).transpose(1, 0).sum(), (3, 4))

    def test_getitem(self):
        check_grad(lambda t: (t[1] * 2.0).sum(), (3, 4))

    def test_gather_last(self):
        idx = np.array([0, 2, 1])
        check_grad(lambda t: t.gather_last(idx).sum(), (3, 4))

    def test_swap_last(self):
        t = Tensor(RNG.normal(size=(2, 3, 4)).astype(np.float32))
        assert t.swap_last().shape == (2, 4, 3)


class TestClipMinimum:
    def test_clip_grads_blocked_outside(self):
        t = Tensor.param(np.array([-2.0, 0.0, 2.0], dtype=np.float32))
        t.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])

    def test_minimum_routes_gradient(self):
        a = Tensor.param(np.array([1.0, 5.0], dtype=np.float32))
        b = Tensor.param(np.array([3.0, 2.0], dtype=np.float32))
        a.minimum(b).sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])


class TestLayerNormGrad:
    def test_input_grad(self):
        gain = Tensor(np.ones(5, dtype=np.float32))
        bias = Tensor(np.zeros(5, dtype=np.float32))
        weight = Tensor(RNG.normal(size=(3, 5)).astype(np.float32))
        check_grad(
            lambda t: (t.layernorm(gain, bias) * weight).sum(),
            (3, 5),
            atol=5e-3,
        )

    def test_gain_bias_grads(self):
        x = Tensor(RNG.normal(size=(3, 5)).astype(np.float32))
        gain = Tensor.param(np.ones(5, dtype=np.float32))
        bias = Tensor.param(np.zeros(5, dtype=np.float32))
        x.layernorm(gain, bias).sum().backward()
        assert bias.grad.shape == (5,)
        assert np.allclose(bias.grad, 3.0)
        assert gain.grad.shape == (5,)


class TestGraphSemantics:
    def test_diamond_graph_accumulates(self):
        t = Tensor.param(np.array([2.0], dtype=np.float32))
        a = t * 3.0
        b = t * 4.0
        (a + b).sum().backward()
        assert np.allclose(t.grad, [7.0])

    def test_backward_requires_scalar(self):
        t = Tensor.param(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_no_grad_disables_graph(self):
        t = Tensor.param(np.ones(3, dtype=np.float32))
        with no_grad():
            out = (t * 2.0).sum()
        assert out._parents == ()
        assert not out.requires_grad

    def test_repeated_backward_accumulates_into_params(self):
        t = Tensor.param(np.ones(2, dtype=np.float32))
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        assert np.allclose(t.grad, [4.0, 4.0])
