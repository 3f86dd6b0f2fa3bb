"""Feature-space analysis: PCA, exact t-SNE, cluster centers, spanning tree.

The t-SNE here is the exact O(N^2) formulation: per-point Gaussian
bandwidths tuned by bisection to a target perplexity, symmetrized
affinities, Student-t low-dimensional kernel, gradient descent with early
exaggeration and a momentum switch.  A step-halving safeguard keeps the
KL divergence non-increasing once exaggeration ends, which makes the
objective's descent assertable in tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import CLASS_COUNT
from .config import at_least
from .errors import ConfigurationError, NumericError


@dataclass(frozen=True)
class EmbeddingConfig:
    """The ``embedding`` section; the optimizer's schedule is fixed."""
    pca_components: int = 64      # PCA dimensions t-SNE starts from
    dims: int = 3
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 100.0
    max_points: int = 5000        # larger sets are subsampled to this many

    exaggeration: ClassVar[float] = 4.0
    exaggeration_iters: ClassVar[int] = 100
    momentum_early: ClassVar[float] = 0.5
    momentum_late: ClassVar[float] = 0.8
    momentum_switch: ClassVar[int] = 250

    def __post_init__(self):
        at_least(self, pca_components=1, iterations=1, max_points=1)
        if self.dims not in (2, 3):
            raise ConfigurationError(f"dims must be 2 or 3, got {self.dims}")
        if not self.perplexity > 1:
            raise ConfigurationError(f"perplexity must exceed 1, got {self.perplexity}")
        if not self.learning_rate > 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class PcaResult:
    projection: np.ndarray       # (N, k)
    basis: np.ndarray            # (k, D), orthonormal rows
    explained_variance: np.ndarray
    mean: np.ndarray
    effective_rank: int


def pca(data: np.ndarray, n_components: int) -> PcaResult:
    """Mean-centered projection onto the top principal directions."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < n_components:
        raise ConfigurationError("need at least as many samples as components")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("PCA input must be finite")
    mean = x.mean(axis=0)
    centered = x - mean
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
    k = min(n_components, vt.shape[0])
    basis = vt[:k]
    return PcaResult(centered @ basis.T, basis,
                     (s[:k] ** 2) / max(x.shape[0] - 1, 1), mean,
                     effective_rank=min(rank, k))


def _sq_dists(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x ** 2, axis=1)
    d = np.add.outer(sq, sq)
    g = x @ x.T
    g *= 2.0
    d -= g
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _row_affinity(dist_row: np.ndarray, beta: float):
    """Conditional affinities and natural-log entropy for one precision."""
    p = np.exp(-dist_row * beta)
    total = p.sum()
    if total <= 0:
        return np.zeros_like(p), 0.0
    p /= total
    nz = p > 0
    h = float(-(p[nz] * np.log(p[nz])).sum())
    return p, h


# Perplexity bisection: stop when the entropy is within this many nats of
# log(perplexity), or after this many halvings.
ENTROPY_TOL = 1e-3
BISECTION_STEPS = 80


def conditional_affinities(dists: np.ndarray, perplexity: float):
    """Bisection per point until entropy matches log(perplexity) within
    ENTROPY_TOL.

    Returns the conditional matrix: rows sum to 1, zero diagonal.
    """
    n = dists.shape[0]
    target = np.log(perplexity)
    p_cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(dists[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        p, h = _row_affinity(row, beta)
        for _ in range(BISECTION_STEPS):
            if abs(h - target) <= ENTROPY_TOL:
                break
            if h > target:          # entropy too high -> sharpen
                lo = beta
                beta = beta * 2.0 if not np.isfinite(hi) else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (beta + lo) / 2.0
            p, h = _row_affinity(row, beta)
        p_cond[i, np.arange(n) != i] = p
    return p_cond


def joint_affinities(p_cond: np.ndarray) -> np.ndarray:
    n = p_cond.shape[0]
    p = (p_cond + p_cond.T) / (2.0 * n)
    return p


def _q_matrix(y: np.ndarray):
    num = _sq_dists(y)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    total = num.sum()
    return num / total, num


def kl_divergence(p_m: np.ndarray, mask: np.ndarray, y: np.ndarray):
    """KL(P || Q) of the embedding ``y``, and the ``(q, num)`` pair of
    ``_q_matrix(y)`` it was scored with, for the gradient at ``y`` to reuse.

    The sum runs over the pairs where ``mask`` (P > 0) holds, and ``p_m`` is
    ``p[mask]``; a q below 1e-12 counts as 1e-12.
    """
    q, num = _q_matrix(y)
    r = q[mask]
    np.maximum(r, 1e-12, out=r)
    np.divide(p_m, r, out=r)
    np.log(r, out=r)
    r *= p_m
    return float(r.sum()), (q, num)


def _tsne_gradient(p: np.ndarray, y: np.ndarray, q: np.ndarray,
                   num: np.ndarray) -> np.ndarray:
    """dKL/dy = 4 sum_j (p_ij - q_ij) num_ij (y_i - y_j), with ``(q, num)``
    the pair ``_q_matrix(y)`` returns and ``p`` the (possibly exaggerated)
    joint affinities."""
    w = p - q
    w *= num
    # (diag(row sums) - w) @ y, without the N x N diagonal matrix
    return 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)


@np.errstate(over="ignore", invalid="ignore")
def tsne(points: np.ndarray, cfg: EmbeddingConfig, seed: int,
         kl_trace: list | None = None) -> np.ndarray:
    """Embed points into cfg.dims dimensions; deterministic given ``seed``.

    When ``kl_trace`` is a list, the accepted KL value of every
    post-exaggeration step is appended to it.  A step that accepts none of
    its 40 attempts ends the descent: the next step would start from the
    same embedding at zero velocity and score the same candidates, so the
    embedding is final and ``kl_trace`` ends at the last accepted step.
    A descent whose embedding leaves the finite numbers (a learning rate
    too large) stops there with NumericError; it runs with numpy's
    overflow and invalid warnings off.
    Q is built once per embedding: the KL evaluation of an accepted
    candidate hands its Q to the next step's gradient.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if n < 3 * cfg.perplexity:
        raise ConfigurationError("sample count must be at least 3x perplexity")
    rng = np.random.default_rng([seed, 0x75E3])
    dists = _sq_dists(x)
    if np.count_nonzero(dists == 0.0) > n:       # a zero besides the diagonal's n
        warnings.warn("duplicate points: adding seeded jitter", stacklevel=2)
        x = x + rng.normal(0.0, 1e-8 * (1.0 + x.std()), x.shape)
        dists = _sq_dists(x)
    p = joint_affinities(conditional_affinities(dists, cfg.perplexity))
    mask = p > 0
    p_m = p[mask]
    p_exag = p * cfg.exaggeration

    y = rng.normal(0.0, 1e-4, (n, cfg.dims))
    vel = np.zeros_like(y)
    kl_prev = None
    for it in range(cfg.iterations):
        if not np.isfinite(y).all():
            break
        momentum = cfg.momentum_early if it < cfg.momentum_switch else cfg.momentum_late
        if it < cfg.exaggeration_iters:
            grad = _tsne_gradient(p_exag, y, *_q_matrix(y))
            vel = momentum * vel - cfg.learning_rate * grad
            y = y + vel
            continue
        if kl_prev is None:
            kl_prev, qn = kl_divergence(p_m, mask, y)
        grad = _tsne_gradient(p, y, *qn)
        raw = momentum * vel - cfg.learning_rate * grad
        scale = 1.0
        for attempt in range(40):
            kl_new, cand = kl_divergence(p_m, mask, y + scale * raw)
            if kl_new <= kl_prev + 1e-12:
                break
            if attempt == 19:
                # momentum may point uphill; fall back to pure gradient
                raw = -cfg.learning_rate * grad
                scale = 1.0
                continue
            scale *= 0.5
        else:
            break           # no attempt lowers KL: y is final
        vel = scale * raw
        y = y + vel
        qn = cand
        kl_prev = kl_new
        if kl_trace is not None:
            kl_trace.append(kl_new)
    if not np.isfinite(y).all():
        raise NumericError(f"the t-SNE embedding is not finite at "
                           f"embedding.learning_rate {cfg.learning_rate:g}")
    return y - y.mean(axis=0)


def median_centers(embedded: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(CLASS_COUNT, dims) coordinatewise medians of each class's points."""
    y = np.asarray(embedded, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    centers = np.empty((CLASS_COUNT, y.shape[1]))
    for c in range(CLASS_COUNT):
        mask = lab == c
        if not np.any(mask):
            raise ConfigurationError(f"class {c} has no points")
        centers[c] = np.median(y[mask], axis=0)
    return centers


def center_distances(centers: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, normalized so the largest entry is 1:
    (C, C), symmetric, zero diagonal."""
    d = np.sqrt(_sq_dists(centers))
    peak = d.max()
    if peak <= 0:
        raise NumericError("all cluster centers coincide; distances degenerate")
    return d / peak


@dataclass
class MstEdges:
    edges: list[tuple[int, int, float]]     # (i, j, weight), i < j
    total_weight: float


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def mst(matrix: np.ndarray) -> MstEdges:
    """Kruskal over a symmetric distance matrix; lexicographic tie-break."""
    d = np.asarray(matrix, dtype=np.float64)
    n = d.shape[0]
    if not np.allclose(d, d.T):
        raise ConfigurationError("distance matrix must be symmetric")
    if not np.all(np.isfinite(d)):
        raise NumericError("non-finite distances: graph is disconnected")
    candidates = sorted((float(d[i, j]), i, j)
                        for i in range(n) for j in range(i + 1, n))
    uf = _UnionFind(n)
    edges = []
    for w, i, j in candidates:
        if uf.union(i, j):
            edges.append((i, j, w))
            if len(edges) == n - 1:
                break
    if len(edges) != n - 1:
        raise NumericError("graph is disconnected; no spanning tree")
    return MstEdges(edges, float(sum(e[2] for e in edges)))
