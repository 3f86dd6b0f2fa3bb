import numpy as np
import pytest

from fiberwatch.errors import ConfigurationError, NonFiniteGradientError
from fiberwatch.tensornet import (COLUMN_BUFFER_BYTES, ConvSpec, DenseSpec,
                                  DropoutSpec, Network, NetworkSpec, PoolSpec,
                                  ReluSpec, _Conv, _Pool, _Relu, gradient_check,
                                  load_checkpoint, reference_member_specs,
                                  save_checkpoint, sgd_step, softmax_batch)

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
        layer = _Conv(ConvSpec(kernel, 6, stride), (channels, 11, 17), rng, dtype)
        layer.b[...] = rng.normal(size=layer.b.shape)
        batch = 7
        for chunk in (layer.chunk, 3):   # one chunk, and chunks of 3, 3, 1
            layer.chunk = chunk
            x = rng.normal(size=(batch, channels, 11, 17)).astype(dtype)
            dout = rng.normal(size=(batch,) + layer.out_shape).astype(dtype)
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
        layer = _Conv(ConvSpec((3, 3), 4), (2, 8, 12), rng, np.float64)
        x = rng.normal(size=(5, 2, 8, 12))
        dout = rng.normal(size=(5,) + layer.out_shape)
        _, cache = layer.forward(x, True, None)
        _, full = layer.backward(dout, cache)
        dx, grads = layer.backward(dout, cache, need_dx=False)
        assert dx is None
        assert all(np.array_equal(a, b) for a, b in zip(grads, full))

    @pytest.mark.parametrize("spec", reference_member_specs())
    def test_column_buffer_stays_bounded(self, spec):
        net = Network(spec, seed=0)
        for layer in net.layers:
            if isinstance(layer, _Conv):
                _, ho, wo = layer.out_shape
                row_bytes = ho * wo * layer.w[0].size * layer.w.itemsize
                assert layer.chunk >= 1
                assert layer.chunk * row_bytes <= max(COLUMN_BUFFER_BYTES, row_bytes)


class TestInferenceModeLayers:
    @pytest.mark.parametrize("window", [(2, 2), (3, 2), (1, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pool_infer_equals_train(self, rng, window, dtype):
        layer = _Pool(PoolSpec(window), (3, 9, 13))
        x = rng.normal(size=(4, 3, 9, 13)).astype(dtype)
        got, _ = layer.forward(x, False, None)
        want, _ = layer.forward(x, True, None)
        assert got.dtype == dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_infer_equals_train(self, rng, dtype):
        layer = _Relu((3, 5, 7))
        x = rng.normal(size=(4, 3, 5, 7)).astype(dtype)
        x[0, 0, 0, :3] = [0.0, -0.0, np.inf]
        got, _ = layer.forward(x, False, None)
        want, _ = layer.forward(x, True, None)
        assert got.dtype == dtype
        assert np.array_equal(got, want)


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
