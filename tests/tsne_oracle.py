"""Reference t-SNE descent that rebuilds every intermediate it needs.

``embedding.tsne`` builds each embedding's Q matrix once, keeps the
``P > 0`` mask and the exaggerated P for the whole run, and forms its N x N
terms in place.  This is the same descent written out directly: Q is
rebuilt for every gradient and every KL value, and the mask on every KL
value.  It does the same arithmetic in the same order, so the tests require
equal bytes, not a tolerance.  After a step that accepts none of its
attempts, ``embedding.tsne`` stops; the oracle keeps stepping with zero
velocity, so the tests can show that the steps it skips do not move.
"""

import numpy as np

from fiberwatch.embedding import conditional_affinities, joint_affinities


def sq_dists(x):
    sq = np.sum(x ** 2, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def q_matrix(y):
    num = 1.0 / (1.0 + sq_dists(y))
    np.fill_diagonal(num, 0.0)
    return num / num.sum(), num


def kl_divergence(p, y):
    q, _ = q_matrix(y)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-12))))


def gradient(p, y):
    q, num = q_matrix(y)
    w = (p - q) * num
    return 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)


@np.errstate(over="ignore", invalid="ignore")
def tsne(points, cfg, seed):
    """(embedding, accepted KL per post-exaggeration step, KL evaluations)
    for distinct points; the jitter for duplicates is left out."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng([seed, 0x75E3])
    p = joint_affinities(conditional_affinities(sq_dists(x), cfg.perplexity))
    y = rng.normal(0.0, 1e-4, (n, cfg.dims))
    vel = np.zeros_like(y)
    kl_prev = None
    trace, kl_calls = [], 0
    for it in range(cfg.iterations):
        if not np.isfinite(y).all():
            break
        exag = it < cfg.exaggeration_iters
        p_eff = p * cfg.exaggeration if exag else p
        momentum = cfg.momentum_early if it < cfg.momentum_switch else cfg.momentum_late
        grad = gradient(p_eff, y)
        if exag:
            vel = momentum * vel - cfg.learning_rate * grad
            y = y + vel
            continue
        if kl_prev is None:
            kl_prev = kl_divergence(p, y)
            kl_calls += 1
        raw = momentum * vel - cfg.learning_rate * grad
        scale = 1.0
        for attempt in range(40):
            kl_new = kl_divergence(p, y + scale * raw)
            kl_calls += 1
            if kl_new <= kl_prev + 1e-12:
                break
            if attempt == 19:
                raw = -cfg.learning_rate * grad
                scale = 1.0
                continue
            scale *= 0.5
        else:
            kl_new = kl_prev
            scale = 0.0
        vel = scale * raw
        y = y + vel
        kl_prev = kl_new
        trace.append(kl_new)
    return y - y.mean(axis=0), trace, kl_calls
