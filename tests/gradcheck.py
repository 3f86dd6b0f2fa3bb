"""Central finite differences against ``Network.backward_batch``: the
gradient reference of criterion 4 and ``test_tensornet``."""

import numpy as np

from fiberwatch.tensornet import Network


def gradient_check(net: Network, blob, target_onehot, eps: float = 1e-5,
                   max_per_tensor: int = 40, seed: int = 0) -> float:
    """Worst relative error between backprop and central finite differences.

    Dropout masks are frozen by reseeding the same rng for every forward,
    so the loss is a deterministic function of the parameters.
    """
    values = np.asarray(blob, dtype=np.float64)
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
