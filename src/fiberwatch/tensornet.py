"""Minimal convolutional network engine: forward, softmax, backprop, SGD.

Everything runs on plain numpy arrays in double precision by default.
Layers operate on batches (B, C, H, W); a single frame is a batch of
one.  Backward passes are exact analytic gradients of the
cross-entropy objective, checked against central finite differences.

Convolution is im2col plus matrix multiply.  Each sample's columns form a
(C*kh*kw, Ho*Wo) matrix: row (c, i, j) holds input channel c at kernel
offset (i, j) for every output pixel in row-major order, so the reshaped
(O, C*kh*kw) kernel times the columns gives the (O, Ho, Wo) output
directly.  The backward pass rebuilds the same columns for the weight
gradient, and the input gradient scatters the kernel-times-gradient
columns back over the kh*kw offsets (col2im).

Max pooling takes each window's maximum over its columns, then over its
rows.  In training, the same comparisons record each window's winner, its
first maximum in (row, column) order, as two small integer arrays, and the
backward pass routes the window's gradient to it.

Training and inference run one layer list, in the order it runs: a ReLU
directly followed by a max pool comes after that pool.  Max and ReLU
commute, so this is exact, and the ReLU touches only pooled elements.
Both modes run the whole chain over row chunks whose largest activation
fits in ROW_BUFFER_BYTES (1 MiB), so each chunk stays in cache and memory
does not grow with the batch; column buffers are bounded only through
the rows they are built from.  Training keeps each chunk's backward
caches, and the backward pass sums the chunks' parameter gradients.

Only ``Network(spec, seed)`` draws parameter values.  ``load_checkpoint``
and ``Network.astype`` (a copy in another precision; ``infer`` scores
with float32 copies) fill allocated arrays and draw nothing.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import asdict, dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from . import CLASS_COUNT
from .errors import ConfigurationError, NonFiniteGradientError, NumericError

MAGIC = b"FWNET1\n"

# Upper bound on one row chunk's largest activation; training and inference
# run the whole network over chunks of rows that fit it.
ROW_BUFFER_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Layer descriptors

def _check_sizes(what: str, *sizes) -> None:
    """ConfigurationError unless every size is a positive integer."""
    if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s > 0
               for s in sizes):
        raise ConfigurationError(f"{what} must be positive integers, got {sizes}")


@dataclass(frozen=True)
class ConvSpec:
    kernel: tuple[int, int]
    channels: int
    stride: int = 1
    kind: str = field(default="conv", init=False)

    def __post_init__(self):
        _check_sizes("conv kernel, channels and stride",
                     *self.kernel, self.channels, self.stride)


@dataclass(frozen=True)
class PoolSpec:
    window: tuple[int, int] = (2, 2)
    kind: str = field(default="pool", init=False)

    def __post_init__(self):
        _check_sizes("pool window", *self.window)


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

    def __post_init__(self):
        _check_sizes("dense width", self.width)


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

    def __post_init__(self):
        _check_sizes("input shape and class count", *self.input_shape, self.n_classes)

    def to_dict(self) -> dict:
        return {"input_shape": list(self.input_shape), "n_classes": self.n_classes,
                "layers": [{"kind": l.kind, **asdict(l)} for l in self.layers]}

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        layers = []
        for ld in d["layers"]:
            if ld["kind"] not in _SPEC_KINDS:
                raise ConfigurationError(f"unknown layer kind {ld['kind']!r}")
            layers.append(_SPEC_KINDS[ld["kind"]](**{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in ld.items() if k != "kind"}))
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
    def __init__(self, spec: ConvSpec, in_shape, dtype):
        c, h, w = in_shape
        kh, kw = spec.kernel
        if kh > h or kw > w:
            raise ConfigurationError(f"kernel {spec.kernel} exceeds input {in_shape}")
        self.stride = spec.stride
        self.kh, self.kw = kh, kw
        self.fan_in = c * kh * kw
        self.w = np.empty((spec.channels, c, kh, kw), dtype=dtype)
        self.b = np.zeros(spec.channels, dtype=dtype)
        self.out_shape = (spec.channels,
                          (h - kh) // spec.stride + 1,
                          (w - kw) // spec.stride + 1)

    def params(self):
        return [self.w, self.b]

    def _columns(self, x):
        """im2col: (b, C, H, W) -> (b, C*kh*kw, Ho*Wo) columns."""
        s = self.stride
        win = np.lib.stride_tricks.sliding_window_view(
            x, (self.kh, self.kw), axis=(2, 3))[:, :, ::s, ::s]
        return win.transpose(0, 1, 4, 5, 2, 3).reshape(len(x), self.w[0].size, -1)

    def forward(self, x, train, rng):
        w_rows = self.w.reshape(len(self.w), -1)
        out = np.matmul(w_rows, self._columns(x)).reshape((len(x),) + self.out_shape)
        out += self.b[:, None, None]
        return out, x if train else None

    def backward(self, dout, cache, need_dx=True):
        x = cache
        s = self.stride
        o, c = self.w.shape[:2]
        _, ho, wo = self.out_shape
        w_rows = self.w.reshape(o, -1)
        d = dout.reshape(len(x), o, -1)
        dw = np.matmul(d, self._columns(x).swapaxes(1, 2)).sum(axis=0)
        grads = [dw.reshape(self.w.shape), dout.sum(axis=(0, 2, 3))]
        if not need_dx:
            return None, grads
        # col2im: scatter-add each kernel offset's columns back onto dx.
        d_cols = (w_rows.T @ d).reshape(len(x), c, self.kh, self.kw, ho, wo)
        dx = np.zeros_like(x)
        for a in range(self.kh):
            for b in range(self.kw):
                dx[:, :, a:a + s * ho:s, b:b + s * wo:s] += d_cols[:, :, a, b]
        return dx, grads


class _Pool:
    """Max pool over non-overlapping (ph, pw) windows; trailing rows and
    columns that fill no window are dropped.

    Both modes take the maximum over each window's columns, then over its
    rows.  Training also records the winner of every window from the same
    comparisons: ``col`` holds, for each input row of each window, the first
    column offset holding the row's maximum, and ``row`` the first row offset
    whose column maximum is the window maximum.  The winner is thus the
    window's first maximum in (row, column) order, and the backward pass
    routes each output gradient to it alone.
    """

    def __init__(self, spec: PoolSpec, in_shape):
        c, h, w = in_shape
        self.ph, self.pw = spec.window
        self.out_shape = (c, h // self.ph, w // self.pw)
        if self.out_shape[1] < 1 or self.out_shape[2] < 1:
            raise ConfigurationError(f"pool window {spec.window} exceeds input {in_shape}")
        # The smallest signed type that holds -max(ph, pw) holds every
        # window offset, 0 .. max(ph, pw) - 1.
        self.pick = np.min_scalar_type(-max(self.ph, self.pw)).type

    def params(self):
        return []

    def forward(self, x, train, rng):
        _, ho, wo = self.out_shape
        hs, ws = ho * self.ph, wo * self.pw
        col_views = [x[:, :, :hs, d:ws:self.pw] for d in range(self.pw)]
        if not train:
            cols = reduce(np.maximum, col_views)
            return reduce(np.maximum, [cols[:, :, a::self.ph] for a in range(self.ph)]), None
        cols, col = self._first_max(col_views)
        out, row = self._first_max([cols[:, :, a::self.ph] for a in range(self.ph)])
        return out, (col, row, x.shape)

    def _first_max(self, views):
        """The running maximum over ``views``, as ``reduce(np.maximum,
        views)`` computes it, and per element the index of the first view
        that holds it: a strictly greater view takes over."""
        m, idx = views[0], np.zeros(views[0].shape, self.pick)
        for k, v in enumerate(views[1:], 1):
            np.maximum(idx, (v > m) * self.pick(k), out=idx)
            m = np.maximum(m, v)
        return m, idx

    def backward(self, dout, cache):
        col, row, x_shape = cache
        _, ho, wo = self.out_shape
        hs, ws = ho * self.ph, wo * self.pw
        # Every element of a window is written below; only the dropped
        # trailing rows and columns need zeros.
        dx = np.empty(x_shape, dtype=dout.dtype)
        dx[:, :, hs:] = 0
        dx[:, :, :hs, ws:] = 0
        for a in range(self.ph):
            da = dout * (row == a)
            for d in range(self.pw):
                np.multiply(da, col[:, :, a::self.ph] == d,
                            out=dx[:, :, a:hs:self.ph, d:ws:self.pw])
        return dx, []


class _Relu:
    def __init__(self, in_shape):
        self.out_shape = in_shape

    def params(self):
        return []

    def forward(self, x, train, rng):
        return np.maximum(x, 0), (x > 0) if train else None

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
    def __init__(self, width, in_shape, dtype):
        self.in_shape = in_shape
        self.fan_in = int(np.prod(in_shape))
        self.w = np.empty((self.fan_in, width), dtype=dtype)
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

class Network:
    """A realized NetworkSpec: parameter tensors plus batched forward/backward."""

    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float64):
        self._build(spec, dtype)
        rng = np.random.default_rng([seed, 0x5EED])
        for layer in self.layers + [self.head]:
            if layer.params():
                bound = 1.0 / np.sqrt(layer.fan_in)
                layer.w[...] = rng.uniform(-bound, bound, layer.w.shape)

    @classmethod
    def _undrawn(cls, spec: NetworkSpec, dtype) -> "Network":
        """A network whose parameter arrays are allocated but not drawn."""
        net = cls.__new__(cls)
        net._build(spec, dtype)
        return net

    def _build(self, spec: NetworkSpec, dtype) -> None:
        """The layers in the order they run, with undrawn parameter arrays."""
        self.spec = spec
        self.dtype = np.dtype(dtype)
        shape = (1,) + tuple(spec.input_shape)
        self.layers = []
        for ls in spec.layers:
            if ls.kind == "conv":
                if len(shape) != 3:
                    raise ConfigurationError("conv layer after flattening dense layer")
                layer = _Conv(ls, shape, self.dtype)
            elif ls.kind == "pool":
                layer = _Pool(ls, shape)
            elif ls.kind == "relu":
                layer = _Relu(shape)
            elif ls.kind == "dropout":
                layer = _Dropout(ls, shape)
            elif ls.kind == "dense":
                layer = _Dense(ls.width, shape, self.dtype)
            else:
                raise ConfigurationError(f"unknown layer kind {ls.kind!r}")
            if isinstance(layer, _Pool) and self.layers and isinstance(self.layers[-1], _Relu):
                # A ReLU directly before a pool runs after it, on the pooled
                # elements: max and ReLU commute.
                self.layers[-1].out_shape = layer.out_shape
                self.layers.insert(-1, layer)
            else:
                self.layers.append(layer)
            shape = layer.out_shape
        self.head = _Dense(spec.n_classes, shape, self.dtype)
        self._row_bytes = self.dtype.itemsize * max(
            int(np.prod(layer.out_shape)) for layer in self.layers + [self.head])

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers + [self.head] for p in layer.params()]

    def astype(self, dtype) -> "Network":
        """A copy with parameters cast to ``dtype``; NumericError when a
        parameter lies outside its range."""
        net = Network._undrawn(self.spec, dtype)
        with np.errstate(over="ignore"):
            for p, q in zip(net.parameters(), self.parameters()):
                p[...] = q
        if not all(np.isfinite(p).all() for p in net.parameters()):
            raise NumericError(f"parameters exceed the range of {net.dtype.name}")
        return net

    def forward_batch(self, x: np.ndarray, train: bool = False, rng=None):
        """Returns (probs (B, n_classes), logits, caches); caches is None in
        inference mode.  Both modes run row chunks whose largest activation
        fits in ROW_BUFFER_BYTES; training keeps each chunk's caches."""
        x = np.asarray(x)
        if x.ndim == 3:
            x = x[:, None, :, :]
        if x.shape[2:] != tuple(self.spec.input_shape):
            raise ConfigurationError(
                f"input shape {x.shape[2:]} does not match spec {self.spec.input_shape}")
        if train and rng is None:
            raise ConfigurationError("train-mode forward needs an rng for dropout")
        rows = max(1, ROW_BUFFER_BYTES // self._row_bytes)
        logits = np.empty((len(x), self.spec.n_classes), dtype=self.dtype)
        caches = [] if train else None
        for lo in range(0, len(x), rows):
            h = x[lo:lo + rows].astype(self.dtype, copy=False)
            chunk = []
            for layer in self.layers + [self.head]:
                h, cache = layer.forward(h, train, rng)
                chunk.append(cache)
            if train:
                caches.append((slice(lo, lo + rows), chunk))
            logits[lo:lo + rows] = h
        return softmax_batch(logits), logits, caches

    def backward_batch(self, caches, probs, targets) -> list[np.ndarray]:
        """Gradients of mean cross-entropy over the batch, aligned with
        parameters(): each row chunk's gradients, summed over the chunks."""
        seed = (probs - targets) / probs.shape[0]
        # Layers below the first one with parameters need no gradient, and
        # that layer needs no input gradient.
        first = next((i for i, l in enumerate(self.layers) if l.params()),
                     len(self.layers))
        total = None
        for rows, chunk in caches:
            dx, grads = self.head.backward(seed[rows], chunk[-1],
                                           need_dx=first < len(self.layers))
            for i in range(len(self.layers) - 1, first - 1, -1):
                if i == first:
                    dx, layer_grads = self.layers[i].backward(dx, chunk[i], need_dx=False)
                else:
                    dx, layer_grads = self.layers[i].backward(dx, chunk[i])
                grads = list(layer_grads) + grads
            total = grads if total is None else [t + g for t, g in zip(total, grads)]
        return total

    def clone(self) -> "Network":
        return copy.deepcopy(self)


def softmax_batch(z: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
    """Read a checkpoint written by ``save_checkpoint``.  A malformed or
    truncated file raises ConfigurationError, non-finite parameters raise
    NumericError."""
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise ConfigurationError(f"{path}: not a network checkpoint")
    try:
        (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
        pos = len(MAGIC) + 4 + hlen
        header = json.loads(raw[pos - hlen:pos])
        if header["dtype"] not in ("float32", "float64"):
            raise ConfigurationError(f"unsupported dtype {header['dtype']!r}")
        net = Network._undrawn(NetworkSpec.from_dict(header["spec"]),
                               np.dtype(header["dtype"]))
        if [list(p.shape) for p in net.parameters()] != header["shapes"]:
            raise ConfigurationError("tensor shapes do not match the layer spec")
        for p in net.parameters():
            if len(raw) < pos + p.nbytes:
                raise ConfigurationError(f"payload truncated at {len(raw)} bytes")
            p[...] = np.frombuffer(raw, p.dtype.newbyteorder("<"), p.size,
                                   pos).reshape(p.shape)
            pos += p.nbytes
        if pos != len(raw):
            raise ConfigurationError(f"{len(raw) - pos} bytes after the payload")
    except (ValueError, TypeError, KeyError, IndexError, struct.error) as err:
        detail = err if isinstance(err, ConfigurationError) else f"malformed ({err!r})"
        raise ConfigurationError(f"{path}: {detail}") from err
    if not all(np.isfinite(p).all() for p in net.parameters()):
        raise NumericError(f"{path}: non-finite parameters")
    return net
