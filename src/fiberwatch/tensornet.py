"""Minimal convolutional network engine: forward, softmax, backprop, SGD.

Everything runs on plain numpy arrays in double precision by default.
Layers operate on batches (B, C, H, W); the public per-frame operations
wrap a batch of one.  Backward passes are exact analytic gradients of the
cross-entropy objective, checked against central finite differences.

Convolution is im2col plus matrix multiply.  Each sample's columns form a
(C*kh*kw, Ho*Wo) matrix: row (c, i, j) holds input channel c at kernel
offset (i, j) for every output pixel in row-major order, so the reshaped
(O, C*kh*kw) kernel times the columns gives the (O, Ho, Wo) output
directly.  The backward pass rebuilds the same columns for the weight
gradient, and the input gradient scatters the kernel-times-gradient
columns back over the kh*kw offsets (col2im).  A batch is cut into chunks
of samples whose columns fit in COLUMN_BUFFER_BYTES (4 MiB), so column
memory does not grow with the batch.  In inference mode, convolution,
max pooling and ReLU keep no backward cache, so each activation is freed
as soon as the next layer has consumed it.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import CLASS_COUNT
from .errors import ConfigurationError, NonFiniteGradientError

MAGIC = b"FWNET1\n"

# Upper bound on one im2col column buffer; convolutions cut the batch into
# row chunks that fit it, so memory stays flat as the batch grows.
COLUMN_BUFFER_BYTES = 4 << 20


# ---------------------------------------------------------------------------
# Layer descriptors

@dataclass(frozen=True)
class ConvSpec:
    kernel: tuple[int, int]
    channels: int
    stride: int = 1
    kind: str = field(default="conv", init=False)


@dataclass(frozen=True)
class PoolSpec:
    window: tuple[int, int] = (2, 2)
    kind: str = field(default="pool", init=False)


@dataclass(frozen=True)
class ReluSpec:
    kind: str = field(default="relu", init=False)


@dataclass(frozen=True)
class DropoutSpec:
    rate: float = 0.5
    kind: str = field(default="dropout", init=False)

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigurationError("dropout rate must lie in [0, 1)")


@dataclass(frozen=True)
class DenseSpec:
    width: int
    kind: str = field(default="dense", init=False)


_SPEC_KINDS = {"conv": ConvSpec, "pool": PoolSpec, "relu": ReluSpec,
               "dropout": DropoutSpec, "dense": DenseSpec}


@dataclass(frozen=True)
class NetworkSpec:
    """Layer chain from the (subwindows, feature_dim) blob to 7 class outputs.

    The final dense layer to CLASS_COUNT logits plus softmax is implicit.
    """

    input_shape: tuple[int, int] = (16, 64)
    layers: tuple = ()
    n_classes: int = CLASS_COUNT

    def to_dict(self) -> dict:
        out = {"input_shape": list(self.input_shape), "n_classes": self.n_classes,
               "layers": []}
        for l in self.layers:
            d = {"kind": l.kind}
            if l.kind == "conv":
                d.update(kernel=list(l.kernel), channels=l.channels, stride=l.stride)
            elif l.kind == "pool":
                d.update(window=list(l.window))
            elif l.kind == "dropout":
                d.update(rate=l.rate)
            elif l.kind == "dense":
                d.update(width=l.width)
            out["layers"].append(d)
        return out

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        layers = []
        for ld in d["layers"]:
            kind = ld["kind"]
            if kind == "conv":
                layers.append(ConvSpec(tuple(ld["kernel"]), ld["channels"], ld.get("stride", 1)))
            elif kind == "pool":
                layers.append(PoolSpec(tuple(ld["window"])))
            elif kind == "relu":
                layers.append(ReluSpec())
            elif kind == "dropout":
                layers.append(DropoutSpec(ld["rate"]))
            elif kind == "dense":
                layers.append(DenseSpec(ld["width"]))
            else:
                raise ConfigurationError(f"unknown layer kind {kind!r}")
        return NetworkSpec(tuple(d["input_shape"]), tuple(layers), d.get("n_classes", CLASS_COUNT))


def reference_member_specs(input_shape=(16, 64)) -> list[NetworkSpec]:
    """The three stock members; they differ only in convolution kernels."""
    def make(k1, k2):
        return NetworkSpec(input_shape, (
            ConvSpec((k1, k1), 8), ReluSpec(), PoolSpec((2, 2)),
            ConvSpec((k2, k2), 16), ReluSpec(), PoolSpec((2, 2)),
            DenseSpec(64), ReluSpec(), DropoutSpec(0.5),
        ))
    return [make(3, 3), make(5, 3), make(3, 5)]


# ---------------------------------------------------------------------------
# Layers

class _Conv:
    def __init__(self, spec: ConvSpec, in_shape, rng, dtype):
        c, h, w = in_shape
        kh, kw = spec.kernel
        if kh > h or kw > w:
            raise ConfigurationError(f"kernel {spec.kernel} exceeds input {in_shape}")
        self.stride = spec.stride
        self.kh, self.kw = kh, kw
        fan_in = c * kh * kw
        bound = 1.0 / np.sqrt(fan_in)
        self.w = rng.uniform(-bound, bound, (spec.channels, c, kh, kw)).astype(dtype)
        self.b = np.zeros(spec.channels, dtype=dtype)
        self.out_shape = (spec.channels,
                          (h - kh) // spec.stride + 1,
                          (w - kw) // spec.stride + 1)
        col_bytes = self.out_shape[1] * self.out_shape[2] * fan_in * self.w.itemsize
        self.chunk = max(1, COLUMN_BUFFER_BYTES // col_bytes)

    def params(self):
        return [self.w, self.b]

    def _columns(self, x):
        """im2col: (b, C, H, W) -> (b, C*kh*kw, Ho*Wo) columns."""
        s = self.stride
        win = np.lib.stride_tricks.sliding_window_view(
            x, (self.kh, self.kw), axis=(2, 3))[:, :, ::s, ::s]
        return win.transpose(0, 1, 4, 5, 2, 3).reshape(len(x), self.w[0].size, -1)

    def forward(self, x, train, rng):
        out = np.empty((x.shape[0],) + self.out_shape, dtype=x.dtype)
        w_rows = self.w.reshape(len(self.w), -1)
        for lo in range(0, x.shape[0], self.chunk):
            xc = x[lo:lo + self.chunk]
            y = out[lo:lo + len(xc)].reshape(len(xc), len(self.w), -1)
            np.matmul(w_rows, self._columns(xc), out=y)
        out += self.b[:, None, None]
        return out, x if train else None

    def backward(self, dout, cache, need_dx=True):
        x = cache
        s = self.stride
        o, c = self.w.shape[:2]
        _, ho, wo = self.out_shape
        w_rows = self.w.reshape(o, -1)
        dw = np.zeros_like(w_rows)
        db = dout.sum(axis=(0, 2, 3))
        dx = np.zeros_like(x) if need_dx else None
        for lo in range(0, x.shape[0], self.chunk):
            xc = x[lo:lo + self.chunk]
            d = dout[lo:lo + len(xc)].reshape(len(xc), o, -1)
            dw += np.matmul(d, self._columns(xc).swapaxes(1, 2)).sum(axis=0)
            if not need_dx:
                continue
            # col2im: scatter-add each kernel offset's columns back onto dx.
            d_cols = (w_rows.T @ d).reshape(len(xc), c, self.kh, self.kw, ho, wo)
            dxc = dx[lo:lo + len(xc)]
            for a in range(self.kh):
                for b in range(self.kw):
                    dxc[:, :, a:a + s * ho:s, b:b + s * wo:s] += d_cols[:, :, a, b]
        return dx, [dw.reshape(self.w.shape), db]


class _Pool:
    def __init__(self, spec: PoolSpec, in_shape):
        c, h, w = in_shape
        self.ph, self.pw = spec.window
        self.out_shape = (c, h // self.ph, w // self.pw)
        if self.out_shape[1] < 1 or self.out_shape[2] < 1:
            raise ConfigurationError(f"pool window {spec.window} exceeds input {in_shape}")

    def params(self):
        return []

    def forward(self, x, train, rng):
        b, c, h, w = x.shape
        _, ho, wo = self.out_shape
        if not train:
            hs, ws = ho * self.ph, wo * self.pw
            out = x[:, :, :hs:self.ph, :ws:self.pw].copy()
            for a in range(self.ph):
                for d in range(self.pw):
                    if a or d:
                        np.maximum(out, x[:, :, a:hs:self.ph, d:ws:self.pw], out=out)
            return out, None
        xt = x[:, :, :ho * self.ph, :wo * self.pw]
        xr = (xt.reshape(b, c, ho, self.ph, wo, self.pw)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(b, c, ho, wo, self.ph * self.pw))
        idx = np.argmax(xr, axis=-1)
        out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
        return out, (idx, x.shape)

    def backward(self, dout, cache):
        idx, x_shape = cache
        b, c, h, w = x_shape
        _, ho, wo = self.out_shape
        dxr = np.zeros((b, c, ho, wo, self.ph * self.pw), dtype=dout.dtype)
        np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
        dxt = (dxr.reshape(b, c, ho, wo, self.ph, self.pw)
                  .transpose(0, 1, 2, 4, 3, 5)
                  .reshape(b, c, ho * self.ph, wo * self.pw))
        dx = np.zeros(x_shape, dtype=dout.dtype)
        dx[:, :, :ho * self.ph, :wo * self.pw] = dxt
        return dx, []


class _Relu:
    def __init__(self, in_shape):
        self.out_shape = in_shape

    def params(self):
        return []

    def forward(self, x, train, rng):
        if not train:
            return np.maximum(x, 0), None
        mask = x > 0
        return x * mask, mask

    def backward(self, dout, cache):
        return dout * cache, []


class _Dropout:
    """Drop units at ``rate`` during training; scale by the keep probability
    at inference, so inference equals the expectation over masks."""

    def __init__(self, spec: DropoutSpec, in_shape):
        self.rate = spec.rate
        self.out_shape = in_shape

    def params(self):
        return []

    def forward(self, x, train, rng):
        if not train or self.rate == 0.0:
            return x * (1.0 - self.rate), None
        mask = (rng.random(x.shape) >= self.rate).astype(x.dtype)
        return x * mask, mask

    def backward(self, dout, cache):
        if cache is None:
            return dout * (1.0 - self.rate), []
        return dout * cache, []


class _Dense:
    def __init__(self, width, in_shape, rng, dtype):
        self.in_shape = in_shape
        fan_in = int(np.prod(in_shape))
        bound = 1.0 / np.sqrt(fan_in)
        self.w = rng.uniform(-bound, bound, (fan_in, width)).astype(dtype)
        self.b = np.zeros(width, dtype=dtype)
        self.out_shape = (width,)

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train, rng):
        flat = x.reshape(x.shape[0], -1)
        return flat @ self.w + self.b, (flat, x.shape)

    def backward(self, dout, cache, need_dx=True):
        flat, x_shape = cache
        dw = flat.T @ dout
        db = dout.sum(axis=0)
        dx = (dout @ self.w.T).reshape(x_shape) if need_dx else None
        return dx, [dw, db]


# ---------------------------------------------------------------------------
# Network

@dataclass
class ClassScores:
    probs: np.ndarray   # softmax output, length n_classes
    logits: np.ndarray


class Network:
    """A realized NetworkSpec: parameter tensors plus batched forward/backward."""

    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float64):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng([seed, 0x5EED])
        shape = (1,) + tuple(spec.input_shape)
        self.layers = []
        for ls in spec.layers:
            if ls.kind == "conv":
                if len(shape) != 3:
                    raise ConfigurationError("conv layer after flattening dense layer")
                layer = _Conv(ls, shape, rng, self.dtype)
            elif ls.kind == "pool":
                layer = _Pool(ls, shape)
            elif ls.kind == "relu":
                layer = _Relu(shape)
            elif ls.kind == "dropout":
                layer = _Dropout(ls, shape)
            elif ls.kind == "dense":
                layer = _Dense(ls.width, shape, rng, self.dtype)
            else:
                raise ConfigurationError(f"unknown layer kind {ls.kind!r}")
            self.layers.append(layer)
            shape = layer.out_shape
        self.head = _Dense(spec.n_classes, shape, rng, self.dtype)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.head.params())
        return out

    @property
    def param_count(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def forward_batch(self, x: np.ndarray, train: bool = False, rng=None):
        """Returns (probs (B, n_classes), logits, caches)."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 3:
            x = x[:, None, :, :]
        if x.shape[2:] != tuple(self.spec.input_shape):
            raise ConfigurationError(
                f"input shape {x.shape[2:]} does not match spec {self.spec.input_shape}")
        if train and rng is None:
            raise ConfigurationError("train-mode forward needs an rng for dropout")
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, train, rng)
            caches.append(cache)
        logits, head_cache = self.head.forward(x, train, rng)
        caches.append(head_cache)
        return softmax_batch(logits), logits, caches

    def backward_batch(self, caches, probs, targets) -> list[np.ndarray]:
        """Gradients of mean cross-entropy over the batch, aligned with parameters()."""
        seed = (probs - targets) / probs.shape[0]
        # Layers below the first one with parameters need no gradient, and
        # that layer needs no input gradient.
        first = next((i for i, l in enumerate(self.layers) if l.params()),
                     len(self.layers))
        dx, head_grads = self.head.backward(seed, caches[-1],
                                            need_dx=first < len(self.layers))
        grads = list(head_grads)
        for i in range(len(self.layers) - 1, first - 1, -1):
            layer, cache = self.layers[i], caches[i]
            if i == first:
                dx, layer_grads = layer.backward(dx, cache, need_dx=False)
            else:
                dx, layer_grads = layer.backward(dx, cache)
            grads = list(layer_grads) + grads
        return grads

    def clone(self) -> "Network":
        return copy.deepcopy(self)


def softmax(z: np.ndarray) -> ClassScores:
    """Stable softmax of one logit vector."""
    z = np.asarray(z, dtype=np.float64)
    probs = softmax_batch(z[None, :])[0]
    return ClassScores(probs, z)


def softmax_batch(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(net: Network, blob, mode: str = "infer", rng=None):
    """Single-frame forward pass.

    Inference is deterministic; training mode draws dropout masks from
    ``rng`` and returns the activation caches needed by backward().
    """
    values = np.asarray(getattr(blob, "values", blob))
    train = mode == "train"
    probs, logits, caches = net.forward_batch(values[None], train=train, rng=rng)
    scores = ClassScores(probs[0], logits[0])
    if train:
        return scores, caches
    return scores


def backward(net: Network, caches, target_onehot) -> list[np.ndarray]:
    if caches is None:
        raise ConfigurationError("backward needs the caches from a train-mode forward")
    t = np.asarray(target_onehot, dtype=net.dtype)
    logits_cache = caches[-1]
    flat, _ = logits_cache
    probs = softmax_batch(flat @ net.head.w + net.head.b)
    return net.backward_batch(caches, probs, t[None])


def sgd_step(net: Network, grads, lr: float, momentum: float = 0.0,
             weight_decay: float = 0.0, velocity=None):
    """v <- momentum*v + grad + decay*param; param <- param - lr*v.

    Bias vectors (1-D parameters) are exempt from weight decay.  Any
    non-finite gradient rejects the whole step.
    """
    if lr <= 0:
        raise ConfigurationError("learning rate must be positive")
    params = net.parameters()
    if len(grads) != len(params):
        raise ConfigurationError("gradient list does not match parameter list")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError("non-finite gradient: step rejected")
    if velocity is None:
        velocity = [np.zeros_like(p) for p in params]
    for p, g, v in zip(params, grads, velocity):
        decay = weight_decay if p.ndim > 1 else 0.0
        v *= momentum
        v += g + decay * p
        p -= lr * v
    return net, velocity


def gradient_check(net: Network, blob, target_onehot, eps: float = 1e-5,
                   max_per_tensor: int = 40, seed: int = 0) -> float:
    """Worst relative error between backprop and central finite differences.

    Dropout masks are frozen by reseeding the same rng for every forward,
    so the loss is a deterministic function of the parameters.
    """
    values = np.asarray(getattr(blob, "values", blob), dtype=np.float64)
    t = np.asarray(target_onehot, dtype=np.float64)[None]

    def loss() -> float:
        probs, _, _ = net.forward_batch(values[None], train=True,
                                        rng=np.random.default_rng(seed))
        p = np.clip(probs, 1e-300, None)
        return float(-(t * np.log(p)).sum())

    probs, _, caches = net.forward_batch(values[None], train=True,
                                         rng=np.random.default_rng(seed))
    grads = net.backward_batch(caches, probs, t)

    rng = np.random.default_rng([seed, 0xC4EC])
    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        flat_idx = np.arange(p.size)
        if p.size > max_per_tensor:
            flat_idx = rng.choice(p.size, size=max_per_tensor, replace=False)
        for i in flat_idx:
            orig = p.flat[i]
            p.flat[i] = orig + eps
            up = loss()
            p.flat[i] = orig - eps
            down = loss()
            p.flat[i] = orig
            numeric = (up - down) / (2 * eps)
            # Floor the denominator: below ~1e-6 the central difference is
            # dominated by roundoff, not by backprop error.
            denom = max(abs(numeric), abs(g.flat[i]), 1e-6)
            worst = max(worst, abs(numeric - g.flat[i]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(net: Network, path) -> None:
    """Header JSON (spec, dtype, tensor shapes) + raw little-endian payload."""
    params = net.parameters()
    header = {
        "spec": net.spec.to_dict(),
        "dtype": net.dtype.name,
        "shapes": [list(p.shape) for p in params],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(np.ascontiguousarray(p, dtype=p.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ConfigurationError(f"{path}: not a network checkpoint")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode())
        net = Network(NetworkSpec.from_dict(header["spec"]), seed=0,
                      dtype=np.dtype(header["dtype"]))
        for p, shape in zip(net.parameters(), header["shapes"]):
            if list(p.shape) != shape:
                raise ConfigurationError(f"{path}: shape mismatch in payload")
            raw = fh.read(p.size * p.dtype.itemsize)
            p[...] = np.frombuffer(raw, dtype=p.dtype.newbyteorder("<")).reshape(p.shape)
    return net
