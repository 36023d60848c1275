"""Neural-network building blocks on the autograd engine.

Each module has two forward paths: ``__call__`` runs on
:class:`~repro.ml.tensor.Tensor` and records the autograd graph (training),
while ``forward_np`` runs the *same arithmetic* on raw ``float32`` numpy
arrays for the inference fast path (KV-cached generation, see
:mod:`repro.ml.kvcache`).  The two must stay numerically identical — the
decode-parity tests compare them token for token — so any change to one
formula must be mirrored in the other.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tensor import Tensor


class Parameterized:
    """Base class giving modules a flat parameter list for the optimizer."""

    def parameters(self) -> list[Tensor]:
        """All trainable tensors, depth-first over attributes."""
        params: list[Tensor] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            for tensor in _collect(value):
                if id(tensor) not in seen:
                    seen.add(id(tensor))
                    params.append(tensor)
        return params

    def num_parameters(self) -> int:
        return sum(int(np.prod(p.data.shape)) for p in self.parameters())

    # -- (de)serialisation ----------------------------------------------------

    def state_arrays(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(params) != len(arrays):
            raise ValueError(
                f"state mismatch: {len(params)} params, {len(arrays)} arrays"
            )
        for param, array in zip(params, arrays):
            if param.data.shape != array.shape:
                raise ValueError(f"shape mismatch {param.data.shape} vs {array.shape}")
            param.data = array.astype(np.float32).copy()


def _collect(value) -> list[Tensor]:
    if isinstance(value, Tensor):
        return [value] if value.requires_grad else []
    if isinstance(value, Parameterized):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            out.extend(_collect(item))
        return out
    return []


class Linear(Parameterized):
    """Affine map ``y = x @ W + b`` with GPT-2-style initialisation."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator,
                 init_scale: float = 0.02) -> None:
        self.weight = Tensor.param(
            rng.normal(0.0, init_scale, size=(fan_in, fan_out)).astype(np.float32)
        )
        self.bias = Tensor.param(np.zeros(fan_out, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return x.matmul(self.weight) + self.bias

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward on raw arrays (inference fast path)."""
        return x @ self.weight.data + self.bias.data


class Embedding(Parameterized):
    """Token-index lookup table."""

    def __init__(self, vocab: int, dim: int, rng: np.random.Generator,
                 init_scale: float = 0.02) -> None:
        self.weight = Tensor.param(
            rng.normal(0.0, init_scale, size=(vocab, dim)).astype(np.float32)
        )

    def __call__(self, indices: np.ndarray) -> Tensor:
        return self.weight[np.asarray(indices)]


class LayerNorm(Parameterized):
    """Layer normalisation with learnable gain/bias."""

    def __init__(self, dim: int) -> None:
        self.gain = Tensor.param(np.ones(dim, dtype=np.float32))
        self.bias = Tensor.param(np.zeros(dim, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return x.layernorm(self.gain, self.bias)

    def forward_np(self, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
        """Graph-free forward, mirroring :meth:`Tensor.layernorm` exactly."""
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        return (x - mu) * inv * self.gain.data + self.bias.data


class MLP(Parameterized):
    """The transformer block's feed-forward: Linear -> GELU -> Linear."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator) -> None:
        self.fc_in = Linear(dim, hidden, rng)
        self.fc_out = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc_out(self.fc_in(x).gelu())

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward (inference fast path)."""
        return self.fc_out.forward_np(gelu_np(self.fc_in.forward_np(x)))


def gelu_np(x: np.ndarray) -> np.ndarray:
    """GPT-2's tanh-approximated GELU, mirroring :meth:`Tensor.gelu` exactly."""
    c = np.sqrt(2.0 / np.pi).astype(np.float32)
    inner = c * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))
