import hashlib
import json

import numpy as np
import pytest

from fiberwatch import tensornet
from fiberwatch.errors import ConfigurationError, NonFiniteGradientError, NumericError
from fiberwatch.tensornet import (ConvSpec, DenseSpec,
                                  DropoutSpec, Network, NetworkSpec, PoolSpec,
                                  ReluSpec, _Conv, _Dropout, _Pool, _Relu,
                                  load_checkpoint, reference_member_specs,
                                  save_checkpoint, sgd_step, softmax_batch)

from gradcheck import gradient_check
from pool_oracle import PoolOracle

INPUT = (8, 12)


def small_spec(*layers):
    return NetworkSpec(INPUT, tuple(layers))


def onehot(c):
    t = np.zeros(7)
    t[c] = 1.0
    return t


def probs_of(net, blob):
    """Inference-mode class probabilities of one blob."""
    return net.forward_batch(blob[None])[0][0]


class TestSoftmax:
    def test_zeros_give_uniform(self):
        s = softmax_batch(np.zeros(7))
        assert np.allclose(s, 1.0 / 7.0)

    def test_closed_form_ln2(self):
        s = softmax_batch(np.array([np.log(2.0), 0, 0, 0, 0, 0, 0]))
        assert s[0] == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(s[1:], 0.125, atol=1e-12)

    def test_shift_invariance(self, rng):
        for _ in range(100):
            z = rng.normal(0, 5, 7)
            c = rng.normal(0, 100)
            assert np.allclose(softmax_batch(z), softmax_batch(z + c), atol=1e-12)

    def test_huge_logit_no_overflow(self):
        z = np.zeros(7)
        z[3] = 1000.0
        s = softmax_batch(z)
        assert np.all(np.isfinite(s))
        assert s[3] == pytest.approx(1.0)

    def test_probability_vector_properties(self, rng):
        for _ in range(200):
            z = rng.normal(0, 10, 7)
            s = softmax_batch(z)
            assert np.all(s > 0)
            assert abs(s.sum() - 1.0) < 1e-9
            assert int(np.argmax(s)) == int(np.argmax(z))


class TestForward:
    def test_zero_head_gives_uniform(self, rng):
        net = Network(small_spec(DenseSpec(5), ReluSpec()), seed=0)
        net.head.w[...] = 0.0
        net.head.b[...] = 0.0
        assert np.allclose(probs_of(net, rng.normal(size=INPUT)), 1.0 / 7.0)

    def test_infer_deterministic_with_dropout(self, rng):
        net = Network(small_spec(DenseSpec(16), DropoutSpec(0.5)), seed=1)
        blob = rng.normal(size=INPUT)
        assert np.array_equal(probs_of(net, blob), probs_of(net, blob))

    def test_shape_mismatch_rejected(self, rng):
        net = Network(small_spec(DenseSpec(4)), seed=0)
        with pytest.raises(ConfigurationError):
            probs_of(net, rng.normal(size=(4, 4)))

    def test_train_mode_needs_rng(self, rng):
        net = Network(small_spec(DropoutSpec(0.3), DenseSpec(4)), seed=0)
        with pytest.raises(ConfigurationError):
            net.forward_batch(rng.normal(size=(1,) + INPUT), train=True)

    def test_dropout_expectation_matches_infer(self, rng):
        # E over train-mode masks == infer-mode scaling, tolerance 1% in norm.
        net = Network(small_spec(DenseSpec(32), ReluSpec(), DropoutSpec(0.5)), seed=2)
        blob = rng.normal(size=INPUT)
        infer_probs, infer_logits, _ = net.forward_batch(blob[None])
        acc = np.zeros_like(infer_logits)
        n_masks = 20_000
        mask_rng = np.random.default_rng(77)
        for _ in range(n_masks):
            _, logits, _ = net.forward_batch(blob[None], train=True, rng=mask_rng)
            acc += logits
        acc /= n_masks
        rel = np.linalg.norm(acc - infer_logits) / np.linalg.norm(infer_logits)
        assert rel < 0.01


def einsum_conv_forward(x, w, b, stride):
    """Oracle: valid cross-correlation as one einsum per kernel offset."""
    o, _, kh, kw = w.shape
    ho = (x.shape[2] - kh) // stride + 1
    wo = (x.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], o, ho, wo), dtype=x.dtype)
    for a in range(kh):
        for c in range(kw):
            xs = x[:, :, a:a + stride * ho:stride, c:c + stride * wo:stride]
            out += np.einsum("bchw,oc->bohw", xs, w[:, :, a, c])
    return out + b[None, :, None, None]


def einsum_conv_backward(dout, x, w, stride):
    """Oracle gradients (dx, dw, db) of the per-offset einsum convolution."""
    _, _, kh, kw = w.shape
    ho, wo = dout.shape[2:]
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for a in range(kh):
        for c in range(kw):
            sl = (slice(None), slice(None), slice(a, a + stride * ho, stride),
                  slice(c, c + stride * wo, stride))
            dw[:, :, a, c] = np.einsum("bohw,bchw->oc", dout, x[sl])
            dx[sl] += np.einsum("bohw,oc->bchw", dout, w[:, :, a, c])
    return dx, dw, dout.sum(axis=(0, 2, 3))


def drawn_conv(spec, in_shape, rng, dtype):
    """A conv layer with weights drawn as ``Network`` draws them."""
    layer = _Conv(spec, in_shape, dtype)
    bound = 1.0 / np.sqrt(layer.fan_in)
    layer.w[...] = rng.uniform(-bound, bound, layer.w.shape)
    return layer


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


class TestConvAgainstEinsumOracle:
    # float64 must agree to 1e-12 of the largest magnitude; float32 inputs
    # are compared against the float64 oracle at float32 resolution.
    TOL = {np.float64: 1e-12, np.float32: 2e-6}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel", [(3, 3), (5, 3), (3, 5)])
    @pytest.mark.parametrize("channels", [1, 8])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_and_gradients_match(self, dtype, kernel, channels, stride):
        rng = np.random.default_rng([channels, stride, *kernel])
        layer = drawn_conv(ConvSpec(kernel, 6, stride), (channels, 11, 17), rng, dtype)
        layer.b[...] = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(7, channels, 11, 17)).astype(dtype)
        dout = rng.normal(size=(7,) + layer.out_shape).astype(dtype)
        out, cache = layer.forward(x, True, None)
        dx, (dw, db) = layer.backward(dout, cache)
        x64, w64, b64, d64 = (a.astype(np.float64) for a in (x, layer.w, layer.b, dout))
        want_out = einsum_conv_forward(x64, w64, b64, stride)
        want_dx, want_dw, want_db = einsum_conv_backward(d64, x64, w64, stride)
        tol = self.TOL[dtype]
        for got, want in ((out, want_out), (dx, want_dx), (dw, want_dw), (db, want_db)):
            assert got.dtype == dtype
            assert got.shape == want.shape
            assert rel_err(got.astype(np.float64), want) <= tol

    def test_first_layer_input_gradient_skipped(self, rng):
        layer = drawn_conv(ConvSpec((3, 3), 4), (2, 8, 12), rng, np.float64)
        x = rng.normal(size=(5, 2, 8, 12))
        dout = rng.normal(size=(5,) + layer.out_shape)
        _, cache = layer.forward(x, True, None)
        _, full = layer.backward(dout, cache)
        dx, grads = layer.backward(dout, cache, need_dx=False)
        assert dx is None
        assert all(np.array_equal(a, b) for a, b in zip(grads, full))


class TestPoolAgainstArgmaxOracle:
    """The pool's winners from its two-stage maximum against the stacked
    windows' ``argmax``: the same outputs and the same input gradient."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("window, in_shape", [
        ((2, 2), (3, 11, 17)), ((3, 2), (3, 11, 17)), ((2, 1), (3, 11, 17)),
        ((1, 3), (3, 11, 17)), ((1, 1), (3, 11, 17)),
        # Offsets up to 199 do not fit the int8 picks of the windows above.
        ((1, 200), (2, 3, 413)),
    ])
    def test_outputs_and_input_gradient_match(self, dtype, ties, window, in_shape):
        rng = np.random.default_rng([*window, *in_shape, ties])
        shape = (6,) + in_shape
        if ties:
            x = rng.integers(-2, 3, shape).astype(dtype)
            x[0] = 0
        else:
            x = rng.normal(size=shape).astype(dtype)
        layer, oracle = _Pool(PoolSpec(window), in_shape), PoolOracle(PoolSpec(window), in_shape)
        dout = rng.normal(size=shape[:1] + layer.out_shape).astype(dtype)
        assert np.array_equal(layer.forward(x, False, None)[0], oracle.forward(x, False, None)[0])
        out, cache = layer.forward(x, True, None)
        want_out, want_cache = oracle.forward(x, True, None)
        assert np.array_equal(out, want_out)
        col, row, _ = cache
        assert col.dtype == row.dtype == (np.int16 if max(window) > 128 else np.int8)
        dx, _ = layer.backward(dout, cache)
        want_dx, _ = oracle.backward(dout, want_cache)
        assert dx.dtype == dtype
        # An unchosen element may hold -0.0 where the oracle holds +0.0.
        assert np.array_equal(dx, want_dx)


def spec_order_layers(net):
    """Oracle layer list: the spec's own order, ReLU before pool.  The
    parameter layers are the network's; pools, ReLUs and dropouts are new."""
    params = iter([layer for layer in net.layers if layer.params()])
    shape, layers = (1,) + tuple(net.spec.input_shape), []
    for ls in net.spec.layers:
        if ls.kind == "pool":
            layer = _Pool(ls, shape)
        elif ls.kind == "relu":
            layer = _Relu(shape)
        elif ls.kind == "dropout":
            layer = _Dropout(ls, shape)
        else:
            layer = next(params)
        layers.append(layer)
        shape = layer.out_shape
    return layers + [net.head]


def spec_order_forward(net, x, train=False, rng=None):
    """Oracle: every spec-order layer over the whole batch; (logits, layers, caches)."""
    layers, caches = spec_order_layers(net), []
    h = np.asarray(x, dtype=net.dtype)[:, None]
    for layer in layers:
        h, cache = layer.forward(h, train, rng)
        caches.append(cache)
    return h, layers, caches


def spec_order_gradients(net, x, targets, rng):
    """Oracle train-mode logits and every parameter's gradient, back through
    the spec-order layers."""
    logits, layers, caches = spec_order_forward(net, x, True, rng)
    d, grads = (softmax_batch(logits) - targets) / len(x), []
    for layer, cache in zip(layers[::-1], caches[::-1]):
        d, layer_grads = layer.backward(d, cache)
        grads = list(layer_grads) + grads
    return logits, grads


def with_random_biases(net, rng):
    for p in net.parameters():
        if p.ndim == 1:
            p[...] = rng.normal(scale=0.1, size=p.shape)
    return net


ODD = (15, 33)    # 3x3 conv -> (13, 31), which a 2x2 pool truncates to (6, 15)
INFERENCE_SPECS = reference_member_specs() + [
    NetworkSpec(ODD, (ConvSpec((3, 3), 4), ReluSpec(), PoolSpec((2, 2)),
                      ConvSpec((2, 3), 5), ReluSpec(), PoolSpec((3, 2)), DenseSpec(6))),
    NetworkSpec(ODD, (ConvSpec((3, 3), 4), ReluSpec(), ConvSpec((3, 3), 3), ReluSpec(),
                      DenseSpec(6), ReluSpec(), DropoutSpec(0.25))),
    # ReLU -> pool on the input itself, so that input ties reach the windows.
    NetworkSpec((9, 13), (ReluSpec(), PoolSpec((3, 2)), ConvSpec((2, 2), 3),
                          ReluSpec(), PoolSpec((1, 3)), DenseSpec(5))),
]


def oracle_case(rng, spec, dtype, ties, batch=9):
    """A network and a batch.  With ``ties``, the inputs and conv weights
    are small integers and conv biases 0, so every conv output is exact and
    pool windows hold ties and all-negative values."""
    net = with_random_biases(Network(spec, seed=5, dtype=dtype), rng)
    if not ties:
        return net, rng.normal(size=(batch,) + spec.input_shape)
    for layer in net.layers:
        if isinstance(layer, _Conv):
            layer.w[...] = rng.integers(-1, 2, layer.w.shape)
            layer.b[...] = 0
    return net, rng.integers(-2, 3, (batch,) + spec.input_shape).astype(np.float64)


class TestOneLayerOrder:
    """Both modes run each pool before the ReLU the spec puts ahead of it;
    the oracle runs the spec's order, and every output must be equal."""

    @pytest.mark.parametrize("spec", INFERENCE_SPECS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("ties", [False, True])
    def test_inference_equals_spec_order_oracle(self, rng, spec, dtype, ties):
        net, x = oracle_case(rng, spec, dtype, ties)
        x[0, 0, :3] = [0.0, -0.0, np.inf]
        with np.errstate(invalid="ignore"):     # inf - inf in row 0
            probs, logits, caches = net.forward_batch(x)
            want = spec_order_forward(net, x)[0]
        assert caches is None
        assert logits.dtype == probs.dtype == dtype
        assert np.array_equal(logits, want, equal_nan=True)
        assert np.array_equal(probs, softmax_batch(want), equal_nan=True)
        assert np.isfinite(logits[1:]).all()

    @pytest.mark.parametrize("spec", INFERENCE_SPECS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("ties", [False, True])
    def test_train_logits_and_gradients_equal_spec_order_oracle(self, rng, spec, dtype,
                                                                ties):
        net, x = oracle_case(rng, spec, dtype, ties)
        targets = np.eye(7)[rng.integers(7, size=len(x))]
        probs, logits, caches = net.forward_batch(x, train=True,
                                                  rng=np.random.default_rng(3))
        grads = net.backward_batch(caches, probs, targets)
        want_logits, want_grads = spec_order_gradients(net, x, targets,
                                                       np.random.default_rng(3))
        assert logits.dtype == dtype
        assert np.array_equal(logits, want_logits)
        assert len(grads) == len(want_grads) == len(net.parameters())
        for got, want in zip(grads, want_grads):
            assert np.array_equal(got, want)


class TestInferenceForward:
    @pytest.mark.parametrize("spec", INFERENCE_SPECS[::3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_row_chunks_agree_with_one_chunk(self, rng, monkeypatch, spec, dtype, rows):
        net = with_random_biases(Network(spec, seed=6, dtype=dtype), rng)
        x = rng.normal(size=(7,) + spec.input_shape)
        whole = net.forward_batch(x)[0]
        chunks = []
        head_forward = net.head.forward
        monkeypatch.setattr(net.head, "forward",
                            lambda h, *a: chunks.append(len(h)) or head_forward(h, *a))
        monkeypatch.setattr(tensornet, "ROW_BUFFER_BYTES", rows * net._row_bytes)
        for batch in (rows - 1, rows, rows + 1, 7):
            chunks.clear()
            got = net.forward_batch(x[:batch])[0]
            assert chunks == [min(rows, batch - lo) for lo in range(0, batch, rows)]
            assert got.dtype == dtype
            assert np.allclose(got, whole[:batch], rtol=0,
                               atol=1e-15 if dtype == np.float64 else 1e-7)

    @pytest.mark.parametrize("spec", INFERENCE_SPECS)
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_train_row_chunks_agree_with_one_chunk(self, rng, monkeypatch, spec, rows):
        """Chunked training gives one chunk's probs and gradients up to the
        rounding of the chunk sums, and draws the same dropout masks."""
        net = with_random_biases(Network(spec, seed=6), rng)
        x = rng.normal(size=(7,) + spec.input_shape)
        targets = np.eye(7)[rng.integers(7, size=len(x))]

        def train_step(chunk_rows):
            monkeypatch.setattr(tensornet, "ROW_BUFFER_BYTES", chunk_rows * net._row_bytes)
            step_rng = np.random.default_rng(11)
            probs, _, caches = net.forward_batch(x, train=True, rng=step_rng)
            assert len(caches) == -(-len(x) // chunk_rows)
            grads = net.backward_batch(caches, probs, targets)
            return probs, grads, step_rng.bit_generator.state

        whole_probs, whole_grads, whole_state = train_step(len(x))
        probs, grads, state = train_step(rows)
        assert np.allclose(probs, whole_probs, rtol=0, atol=1e-15)
        assert len(grads) == len(whole_grads) == len(net.parameters())
        for got, want in zip(grads, whole_grads):
            assert rel_err(got, want) <= 1e-12
        assert state == whole_state

    def test_input_left_untouched(self, rng):
        net = Network(small_spec(ReluSpec(), PoolSpec((2, 2)), DenseSpec(4)), seed=0)
        x = rng.normal(size=(3,) + INPUT)
        before = x.copy()
        net.forward_batch(x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("spec", reference_member_specs())
    def test_float32_copy_casts_parameters_and_recomputes_chunks(self, rng, spec):
        net = with_random_biases(Network(spec, seed=7), rng)
        copy32 = net.astype(np.float32)
        assert copy32.dtype == np.float32 and copy32.spec == spec
        for p, q in zip(copy32.parameters(), net.parameters()):
            assert p.dtype == np.float32
            assert np.array_equal(p, q.astype(np.float32))
            assert not np.shares_memory(p, q)
        assert 2 * copy32._row_bytes == net._row_bytes
        x = rng.normal(size=(5,) + spec.input_shape)
        probs = copy32.forward_batch(x)[0]
        assert probs.dtype == np.float32
        assert np.allclose(probs, net.forward_batch(x)[0], rtol=0, atol=1e-6)

    def test_float32_copy_rejects_parameters_beyond_its_range(self):
        net = Network(small_spec(DenseSpec(4)), seed=0)
        net.head.w[0, 0] = 1e300
        with pytest.raises(NumericError, match="exceed the range of float32"):
            net.astype(np.float32)


class TestBackward:
    def test_perfect_prediction_zero_seed(self):
        # If probs equal the one-hot target the head gradient seed vanishes.
        net = Network(small_spec(), seed=0)
        probs, _, caches = net.forward_batch(np.zeros((1,) + INPUT), train=True,
                                             rng=np.random.default_rng(0))
        grads = net.backward_batch(caches, probs, probs.copy())
        assert all(np.allclose(g, 0.0, atol=1e-12) for g in grads)

    def test_linear_model_closed_form(self, rng):
        # Head-only model: dW = x^T (p - t), db = p - t.
        net = Network(small_spec(), seed=3)
        blob = rng.normal(size=INPUT)
        probs, _, caches = net.forward_batch(blob[None], train=True,
                                             rng=np.random.default_rng(0))
        t = onehot(2)
        grads = net.backward_batch(caches, probs, t[None])
        seed_vec = probs[0] - t
        x = blob.reshape(-1)
        assert np.allclose(grads[0], np.outer(x, seed_vec), atol=1e-12)
        assert np.allclose(grads[1], seed_vec, atol=1e-12)


class TestGradientCheck:
    def test_linear_softmax_exact(self, rng):
        net = Network(small_spec(), seed=4)
        err = gradient_check(net, rng.normal(size=INPUT), onehot(1))
        assert err < 1e-7

    @pytest.mark.parametrize("layers", [
        (DenseSpec(16),),
        (DenseSpec(16), ReluSpec()),
        (ConvSpec((3, 3), 4),),
        (ConvSpec((3, 3), 4), ReluSpec(), PoolSpec((2, 2))),
        (ConvSpec((3, 5), 4), ReluSpec(), DropoutSpec(0.4), DenseSpec(10)),
        (ConvSpec((5, 3), 3, stride=1), PoolSpec((2, 2)), DenseSpec(8), ReluSpec()),
    ])
    def test_each_layer_type_under_1e4(self, rng, layers):
        net = Network(small_spec(*layers), seed=5)
        err = gradient_check(net, rng.normal(size=INPUT), onehot(3), max_per_tensor=30)
        assert err < 1e-4

    def test_composed_conv_pool_dense_softmax(self, rng):
        net = Network(small_spec(ConvSpec((3, 3), 6), ReluSpec(), PoolSpec((2, 2)),
                                 DenseSpec(20), ReluSpec(), DropoutSpec(0.5)), seed=6)
        err = gradient_check(net, rng.normal(size=INPUT), onehot(5), max_per_tensor=40)
        assert err < 1e-4

    def test_detects_corrupted_gradient(self, rng):
        # Doubling one tensor's gradient must trip the checker.
        net = Network(small_spec(DenseSpec(12), ReluSpec()), seed=7)
        blob = rng.normal(size=INPUT)
        t = onehot(4)

        probs, _, caches = net.forward_batch(blob[None], train=True,
                                             rng=np.random.default_rng(0))
        grads = net.backward_batch(caches, probs, t[None])
        grads[-2] *= 2.0       # corrupt the head weight gradient
        numeric_err = 0.0
        p = net.parameters()[-2]
        g = grads[-2]
        eps = 1e-5
        for i in range(0, p.size, max(1, p.size // 50)):
            orig = p.flat[i]
            def loss():
                pr, _, _ = net.forward_batch(blob[None], train=True,
                                             rng=np.random.default_rng(0))
                return float(-(t * np.log(np.clip(pr[0], 1e-300, None))).sum())
            p.flat[i] = orig + eps
            up = loss()
            p.flat[i] = orig - eps
            down = loss()
            p.flat[i] = orig
            num = (up - down) / (2 * eps)
            denom = max(abs(num), abs(g.flat[i]), 1e-6)
            numeric_err = max(numeric_err, abs(num - g.flat[i]) / denom)
        assert numeric_err > 0.3


class TestSgdStep:
    def test_plain_step(self, rng):
        net = Network(small_spec(DenseSpec(6)), seed=8)
        before = [p.copy() for p in net.parameters()]
        grads = [rng.normal(size=p.shape) for p in net.parameters()]
        sgd_step(net, grads, lr=0.1)
        for b, p, g in zip(before, net.parameters(), grads):
            assert np.allclose(p, b - 0.1 * g, atol=1e-12)

    def test_decay_only_shrinks_weights_not_biases(self):
        net = Network(small_spec(DenseSpec(6)), seed=9)
        before = [p.copy() for p in net.parameters()]
        zeros = [np.zeros_like(p) for p in net.parameters()]
        lr, lam = 0.1, 0.5
        sgd_step(net, zeros, lr=lr, weight_decay=lam)
        for b, p in zip(before, net.parameters()):
            if p.ndim > 1:
                assert np.allclose(p, b * (1 - lr * lam), atol=1e-12)
            else:
                assert np.array_equal(p, b)

    def test_quadratic_loss_decreases(self):
        # 1-D quadratic through the head bias: loss = 0.5*(b - 3)^2.
        net = Network(small_spec(), seed=10)
        b = net.head.b
        target = 3.0
        velocity = None
        losses = []
        for _ in range(50):
            losses.append(0.5 * float((b[0] - target) ** 2))
            grads = [np.zeros_like(p) for p in net.parameters()]
            grads[-1][0] = b[0] - target
            _, velocity = sgd_step(net, grads, lr=0.2, velocity=velocity)
        diffs = np.diff(losses)
        assert np.all(diffs < 0)

    def test_nonfinite_gradient_rejected(self):
        net = Network(small_spec(), seed=11)
        grads = [np.zeros_like(p) for p in net.parameters()]
        grads[0][0, 0] = np.nan
        before = [p.copy() for p in net.parameters()]
        with pytest.raises(NonFiniteGradientError):
            sgd_step(net, grads, lr=0.1)
        for b, p in zip(before, net.parameters()):
            assert np.array_equal(b, p)


# sha256 of each reference member's parameter bytes, recorded while each
# layer still drew its own parameters as it was built.
PARAMETER_DIGESTS = {
    (0, 0, "float64"): "97d494c46155447b6e7a98387811d610c050e2b03d333036efc2125c45d925d9",
    (0, 1, "float64"): "6998c07f0a35633475ea537e54143e600cbfeb7950ada684587bd9b46a9bda97",
    (0, 2, "float64"): "005c41cb1b03c2be15c3a9f4e0a0e1fad6c96525f48677407b623a5f184fe952",
    (1, 0, "float64"): "89c5e66a4e13ae2232bcde8a477b6f0c2391b46d80833b0f256682a1eeffb4c9",
    (1, 1, "float64"): "b52d945ca6888698eb0a3ea4fd5b7d05c68ba8faefd209cd11922ac6dca87076",
    (1, 2, "float64"): "77beac755ccb3743ab1d1b0a2d63e92dc7779330e5f343015ca3bdbd2bde981c",
    (2, 0, "float64"): "75f191b274dc675a39475675ce70a2e1c91f8e9c575a81bc793ebc94d3e19726",
    (2, 1, "float64"): "b13eb6c722d564efafa7aa3ecd55899f0a4cee4438f7623bc238ae0737dff0cb",
    (2, 2, "float64"): "20a3a62c886584aeb171c91d23b090c9dcc15f86dc2de68b0f3e67f8ab4f93e0",
    (0, 0, "float32"): "ea179cf51f66405d7419307d661b46e1aa08f744fe801005463e76212bff3217",
    (1, 0, "float32"): "b9c025bea982ca2aa7264dca9c93861b08e96acc670d545acdb5ee6c29157e12",
    (2, 0, "float32"): "dcf1cdfb155784a80ae42754b809e9709e859807f1018c7cb5dfeb816b29328d",
}


class TestInitialization:
    @pytest.mark.parametrize(("member", "seed", "dtype"), sorted(PARAMETER_DIGESTS))
    def test_parameters_keep_their_recorded_bytes(self, member, seed, dtype):
        net = Network(reference_member_specs()[member], seed=seed, dtype=dtype)
        raw = b"".join(p.astype(p.dtype.newbyteorder("<")).tobytes()
                       for p in net.parameters())
        assert hashlib.sha256(raw).hexdigest() == PARAMETER_DIGESTS[member, seed, dtype]

    def test_copies_and_loads_draw_nothing(self, tmp_path, monkeypatch):
        net = Network(reference_member_specs()[1], seed=4)
        save_checkpoint(net, tmp_path / "member.net")

        def no_rng(*args, **kwargs):
            raise AssertionError("a random generator was created")

        monkeypatch.setattr(tensornet.np.random, "default_rng", no_rng)
        for filled in (net.astype(np.float32), load_checkpoint(tmp_path / "member.net")):
            for p, q in zip(filled.parameters(), net.parameters()):
                assert np.array_equal(p, q.astype(filled.dtype))


def rewrite_header(path, edit) -> None:
    """Pass a checkpoint's JSON header through ``edit``."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[7:11], "little")
    header = json.dumps(edit(json.loads(raw[11:11 + hlen]))).encode()
    path.write_bytes(raw[:7] + len(header).to_bytes(4, "little") + header
                     + raw[11 + hlen:])


def with_layer(i, **fields):
    """A header edit that replaces ``fields`` of the spec's layer ``i``."""
    def edit(h):
        layers = [dict(layer) for layer in h["spec"]["layers"]]
        layers[i].update(fields)
        return {**h, "spec": {**h["spec"], "layers": layers}}
    return edit


def with_spec(**fields):
    return lambda h: {**h, "spec": {**h["spec"], **fields}}


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        net = Network(reference_member_specs()[1], seed=12)
        path = tmp_path / "member.net"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.spec == net.spec
        assert back.dtype == net.dtype
        for p, q in zip(net.parameters(), back.parameters()):
            assert np.array_equal(p, q)
        blob = rng.normal(size=(16, 64))
        assert np.array_equal(probs_of(net, blob), probs_of(back, blob))

    def test_reference_members_differ_only_in_kernels(self):
        specs = reference_member_specs()
        kernels = [tuple(l.kernel for l in s.layers if l.kind == "conv") for s in specs]
        assert kernels == [((3, 3), (3, 3)), ((5, 5), (3, 3)), ((3, 3), (5, 5))]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.net"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "member.net"
        save_checkpoint(Network(small_spec(ConvSpec((3, 3), 4), PoolSpec((2, 2)),
                                           DenseSpec(8)), seed=3), path)
        return path

    @pytest.mark.parametrize("keep", [0, 5, 9, 30, -1])
    def test_truncated_file_rejected(self, saved, keep):
        saved.write_bytes(saved.read_bytes()[:keep])
        with pytest.raises(ConfigurationError, match="member.net"):
            load_checkpoint(saved)

    def test_truncated_payload_names_its_length(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[:-3])
        with pytest.raises(ConfigurationError, match=f"truncated at {len(raw) - 3} bytes"):
            load_checkpoint(saved)

    def test_trailing_bytes_rejected(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\0" * 8)
        with pytest.raises(ConfigurationError, match="8 bytes after the payload"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("edit", [
        lambda h: {**h, "dtype": "int16"},
        lambda h: {**h, "shapes": h["shapes"][:-1]},
        lambda h: {k: v for k, v in h.items() if k != "spec"},
        lambda h: [h],
        with_layer(0, stride=0),
        with_layer(0, kernel=[0, 3]),
        with_layer(0, channels=0),
        with_layer(0, stride=1.5),
        with_layer(1, window=[2, 0]),
        with_layer(2, width=0),
        with_layer(2, width=True),
        with_spec(input_shape=[8, 0]),
        with_spec(n_classes=0),
    ])
    def test_bad_header_rejected(self, saved, edit):
        rewrite_header(saved, edit)
        with pytest.raises(ConfigurationError, match="member.net"):
            load_checkpoint(saved)

    def test_non_finite_parameters_rejected(self, saved):
        raw = bytearray(saved.read_bytes())
        raw[-8:] = np.array([np.nan]).astype("<f8").tobytes()
        saved.write_bytes(bytes(raw))
        with pytest.raises(NumericError, match="non-finite"):
            load_checkpoint(saved)

    def test_single_precision_round_trip(self, tmp_path, rng):
        net = Network(small_spec(ConvSpec((3, 3), 4), DenseSpec(8)), seed=13,
                      dtype=np.float32)
        assert probs_of(net, rng.normal(size=INPUT)).dtype == np.float32
        path = tmp_path / "f32.net"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.dtype == np.float32
        for p, q in zip(net.parameters(), back.parameters()):
            assert np.array_equal(p, q)
