"""Participant selection over the household similarity graph.

The exact two-means of the symmetrized attention matrix's Fiedler vector
splits households into two anonymous groups; a stratified
5%-per-neighborhood-per-cluster query reveals true accept/reject labels; a
featureless semi-supervised GCN labels everyone else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .autodiff import parameter
from .community import Community
from .errors import (
    DegenerateClusteringError,
    DegenerateSupervisionError,
    DomainError,
    InvalidSpecError,
    NumericalError,
    ReferentialIntegrityError,
    UndefinedMetricError,
)
from .forecaster import Hyper, degree_normalized, normalized_graph, rmsprop_step

ROW_SUM_TOL = 1e-6


def check_similarity(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"similarity matrix must be square, got {a.shape}")
    if not np.all((a >= 0) & (a <= 1 + 1e-12)):  # NaN fails too
        raise DomainError("similarity entries must lie in [0, 1]")
    if np.any(np.abs(a.sum(axis=1) - 1) > ROW_SUM_TOL):
        raise DomainError("similarity rows must sum to 1")
    return a


@dataclass(frozen=True)
class SelectionResult:
    household_ids: tuple[str, ...]
    clusters: np.ndarray  # {0, 1} per household
    queried: frozenset[str]
    predicted: np.ndarray  # bool per household
    accuracy_pct: float  # over non-queried households
    scores: np.ndarray  # accept probability per household; ones if supervision is degenerate


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2; exact fixed point for already-symmetric input."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def normalized_laplacian(a_sym: np.ndarray) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} for a symmetric non-negative matrix."""
    a_sym = np.asarray(a_sym, dtype=float)
    deg = a_sym.sum(axis=1)
    if np.any(deg <= 0):
        raise DomainError(f"isolated node (zero degree) at index {int(np.argmin(deg))}")
    lap = np.eye(a_sym.shape[0]) - degree_normalized(a_sym, deg)
    lap = lap + lap.T  # kill round-off asymmetry
    lap /= 2.0
    return lap


def spectral_embed(laplacian: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal eigenvectors of the k smallest eigenvalues, ascending.

    Per-column sign fixed by making the largest-magnitude entry positive.
    """
    n = laplacian.shape[0]
    if not 1 <= k <= n:
        raise DomainError(f"k={k} outside [1, {n}]")
    try:
        eigvals, eigvecs = np.linalg.eigh(laplacian)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    embed = eigvecs[:, :k].copy()
    for j in range(k):
        pivot = int(np.argmax(np.abs(embed[:, j])))
        if embed[pivot, j] < 0:
            embed[:, j] = -embed[:, j]
    return embed


def kmeans(values: np.ndarray) -> np.ndarray:
    """Exact two-means of one column of values, such as the Fiedler vector: of the
    cuts of the sorted values, the first with the least within-cluster sum of
    squares. Returns a {0, 1} label per value; row 0 gets label 0."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise DegenerateClusteringError(f"need one column of >= 2 values, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NumericalError("values to split must be finite")
    order = np.argsort(values, kind="stable")
    # With the values centered, a cut after k sorted values with centered sum S
    # leaves total - S^2 / k - S^2 / (n - k) within the clusters.
    sums = np.cumsum(values[order] - values.mean())[:-1]
    left = np.arange(1, values.size)
    cut = int(np.argmax(sums * sums * (1.0 / left + 1.0 / (values.size - left)))) + 1
    labels = np.zeros(values.size, dtype=int)
    labels[order[cut:]] = 1
    return labels ^ labels[0]


def pick_queries(community: Community, clusters: np.ndarray,
                 fraction: float = 0.05, seed: int = 0) -> np.ndarray:
    """Per neighborhood in id order, per cluster: ceil(fraction * stratum size)
    uniform picks from the stratum's rows in id order. Returns the picked rows, sorted."""
    if not 0 < fraction <= 1:
        raise InvalidSpecError(f"query fraction must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    picked: list[int] = []
    home, ids = community.neighborhood, community.ids
    for _, group in groupby(sorted(range(len(ids)), key=lambda i: (home[i], ids[i])),
                            key=home.__getitem__):
        rows = np.array(list(group))
        for cluster in sorted(set(clusters[rows].tolist())):
            stratum = rows[clusters[rows] == cluster]
            count = int(np.ceil(fraction * stratum.size))
            picked.extend(rng.choice(stratum, size=count, replace=False))
    return np.sort(np.array(picked, dtype=int))


def classify(a_sym: np.ndarray, labeled_rows: np.ndarray, accept: np.ndarray,
             hyper: Hyper | None = None, seed: int = 0,
             gcn_hidden: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Semi-supervised two-layer GCN node classification without node features.

    `labeled_rows` are strictly increasing rows of `a_sym` whose bool labels
    `accept` are known. With identity features (Kipf & Welling 2017) layer 1 is
    relu(Â W1), Â the `normalized_graph` of `a_sym`, so no identity is built.
    Each epoch runs the forward over every row, but the softmax, the mean
    cross-entropy and its gradient over the labeled rows alone, then one RMSProp
    step on W1 and W2. The last epoch is a forward with no update. Returns
    (predicted bool labels, that forward's accept probabilities); labeled rows
    keep their labels."""
    hyper = hyper or Hyper()
    if hyper.epochs < 1:
        raise InvalidSpecError(f"classifier needs >= 1 epoch, got {hyper.epochs}")
    if np.shape(labeled_rows) != np.shape(accept):
        raise DomainError(f"labeled_rows has shape {np.shape(labeled_rows)}, "
                          f"but accept has {np.shape(accept)}")
    n = a_sym.shape[0]
    labeled_rows, accept = np.asarray(labeled_rows), np.asarray(accept)
    if labeled_rows.dtype.kind not in "iu" or np.any((labeled_rows < 0) | (labeled_rows >= n)):
        raise DomainError(f"labeled_rows {labeled_rows} are not rows of the {n} x {n} graph")
    # A repeated row would count twice in the gathered loss.
    if np.any(np.diff(labeled_rows) <= 0):
        raise DomainError(f"labeled_rows {labeled_rows} are not strictly increasing")
    if accept.dtype != bool:
        raise DomainError(f"accept must be bool, got {accept.dtype}")
    if accept.all() or not accept.any():
        raise DegenerateSupervisionError("need at least one labeled example per class")
    targets = np.stack([~accept, accept], axis=1).astype(float)
    norm = normalized_graph(a_sym)[0]

    rng = np.random.default_rng(seed)
    # W1 and W2 are views of one buffer, as are their gradients, so that one
    # RMSProp step per epoch updates both.
    weights = np.concatenate([parameter(rng, (n, gcn_hidden), n).data.ravel(),
                              parameter(rng, (gcn_hidden, 2), gcn_hidden).data.ravel()])
    grads, cache = np.empty_like(weights), np.zeros_like(weights)
    split = n * gcn_hidden
    w1, w2 = weights[:split].reshape(n, gcn_hidden), weights[split:].reshape(gcn_hidden, 2)
    d_w1, d_w2 = grads[:split].reshape(n, gcn_hidden), grads[split:].reshape(gcn_hidden, 2)
    for _epoch in range(hyper.epochs - 1):
        _gcn_epoch(norm, w1, w2, labeled_rows, targets, d_w1, d_w2)
        rmsprop_step(weights, grads, cache, hyper)
    probs = _softmax(_gcn_forward(norm, w1, w2)[2])
    predicted = probs.argmax(axis=1).astype(bool)
    predicted[labeled_rows] = accept
    return predicted, probs[:, 1]


def _gcn_forward(norm: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """Layer 1's pre-activation and output, and the (n, 2) logits."""
    pre = norm @ w1
    h1 = np.maximum(pre, 0.0)
    return pre, h1, norm @ (h1 @ w2)


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _gcn_epoch(norm: np.ndarray, w1: np.ndarray, w2: np.ndarray, labeled_rows: np.ndarray,
               targets: np.ndarray, d_w1: np.ndarray, d_w2: np.ndarray) -> None:
    """One forward and backward pass of the classifier: writes the gradients of
    the mean cross-entropy over the labeled rows into `d_w1` and `d_w2`. Only
    layer 1 multiplies `norm` by an (n, h) array; the rest take (n, 2) or
    (labeled, 2)."""
    pre, h1, logits = _gcn_forward(norm, w1, w2)
    picked = _softmax(logits[labeled_rows])
    shifted = picked + 1e-12
    g = -(1.0 / labeled_rows.size) * targets / shifted
    d_picked = picked * (g - (g * picked).sum(axis=1, keepdims=True))
    # The labeled rows of `norm`, transposed as a view: a contiguous copy
    # would take another BLAS kernel and round differently.
    d_z = norm[labeled_rows].T @ d_picked
    np.matmul(h1.T, d_z, out=d_w2)
    np.matmul(norm.T, (d_z @ w2.T) * (pre > 0), out=d_w1)


def inject_noise(a: np.ndarray, level_pct: float, seed: int = 0) -> np.ndarray:
    """Add Uniform(0, b) per entry with b = level_pct/100 * mean(A); renormalize rows."""
    a = check_similarity(a)
    if not 0 <= level_pct < math.inf:
        raise DomainError(f"noise level must be finite and >= 0, got {level_pct}")
    if level_pct == 0:
        return a.copy()
    rng = np.random.default_rng(seed)
    b = (level_pct / 100.0) * a.mean()
    noisy = a + rng.uniform(0.0, b, size=a.shape)
    return noisy / noisy.sum(axis=1, keepdims=True)


def evaluate_accuracy(predicted: np.ndarray, truth: np.ndarray,
                      queried_rows: np.ndarray) -> float:
    """Percent agreement of two bool arrays over the rows not queried."""
    rows = np.delete(np.arange(truth.size), queried_rows)
    if not rows.size:
        raise UndefinedMetricError("no non-queried households to evaluate")
    return float(100.0 * np.count_nonzero(predicted[rows] == truth[rows]) / rows.size)


def run_selection(community: Community, similarity: np.ndarray,
                  truth: dict[str, bool], seed: int = 0,
                  fraction: float = 0.05, hyper: Hyper | None = None) -> SelectionResult:
    """Full selection pipeline: spectral clustering, stratified query, GCN labeling."""
    if truth.keys() != community.index.keys():
        raise ReferentialIntegrityError("truth ids do not match the community's households")
    labels = np.array([truth[hid] for hid in community.ids])
    if labels.dtype != bool:
        raise DomainError(f"truth values must be bool, got {labels.dtype}")
    similarity = check_similarity(similarity)
    if len(similarity) != len(community):
        raise DomainError(f"similarity is {len(similarity)} x {len(similarity)}, but the "
                          f"community has {len(community)} households")
    a_sym = symmetrize(similarity)
    clusters = kmeans(spectral_embed(normalized_laplacian(a_sym), k=2)[:, 1])
    queried = pick_queries(community, clusters, fraction=fraction, seed=seed)
    try:
        predicted, scores = classify(a_sym, queried, labels[queried], hyper=hyper, seed=seed)
    except DegenerateSupervisionError:
        # All queried households answered alike: predict that label everywhere.
        predicted = np.full(labels.size, labels[queried[0]])
        scores = np.ones(labels.size)
    return SelectionResult(
        household_ids=community.ids,
        clusters=clusters,
        queried=frozenset(community.ids[i] for i in queried),
        predicted=predicted,
        accuracy_pct=evaluate_accuracy(predicted, labels, queried),
        scores=scores,
    )

