"""Participant selection over the household similarity graph.

Spectral clustering of the (symmetrized) attention matrix splits households
into two anonymous groups; a stratified 5%-per-neighborhood-per-cluster query
reveals true accept/reject labels; a featureless semi-supervised GCN labels
everyone else.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

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
from .forecaster import Hyper, degree_normalized, rmsprop_step

ROW_SUM_TOL = 1e-6


def check_similarity(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"similarity matrix must be square, got {a.shape}")
    if not np.all((a >= -1e-12) & (a <= 1 + 1e-12)):  # NaN fails too
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


def kmeans(points: np.ndarray, clusters: int = 2, seed: int = 0,
           max_iter: int = 100, retries: int = 8) -> np.ndarray:
    """Seeded k-means++ initialization plus Lloyd's iteration.

    Re-seeds when a cluster comes out empty; raises after bounded retries.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < clusters:
        raise DegenerateClusteringError(f"{n} points cannot form {clusters} clusters")
    rng = np.random.default_rng(seed)
    for _attempt in range(retries):
        centers = _kmeanspp(points, clusters, rng)
        labels = np.zeros(n, dtype=int)
        for _it in range(max_iter):
            dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = dists.argmin(axis=1)
            if np.array_equal(new_labels, labels) and _it > 0:
                break
            labels = new_labels
            for c in range(clusters):
                mask = labels == c
                if mask.any():
                    centers[c] = points[mask].mean(axis=0)
        if all((labels == c).any() for c in range(clusters)):
            return labels
    raise DegenerateClusteringError("could not produce non-empty clusters")


def _kmeanspp(points: np.ndarray, clusters: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    for _ in range(clusters - 1):
        d2 = np.min(
            [((points - c) ** 2).sum(axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:
            # All remaining points coincide with a center; pick any.
            centers.append(points[rng.integers(n)])
            continue
        centers.append(points[rng.choice(n, p=d2 / total)])
    return np.stack(centers).astype(float)


def pick_queries(community: Community, clusters: np.ndarray,
                 fraction: float = 0.05, seed: int = 0) -> np.ndarray:
    """Per neighborhood, per cluster: ceil(fraction * stratum size) uniform
    picks from the stratum's rows in id order. Returns the picked rows, sorted."""
    if not 0 < fraction <= 1:
        raise InvalidSpecError(f"query fraction must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    picked: list[int] = []
    for nb_id in sorted(community.neighborhoods):
        rows = np.array([community.index[m] for m in sorted(community.neighborhoods[nb_id])])
        for cluster in sorted(set(clusters[rows].tolist())):
            stratum = rows[clusters[rows] == cluster]
            count = int(np.ceil(fraction * stratum.size))
            picked.extend(rng.choice(stratum, size=count, replace=False))
    return np.sort(np.array(picked, dtype=int))


def classify(a_sym: np.ndarray, labeled_rows: np.ndarray, accept: np.ndarray,
             hyper: Hyper | None = None, seed: int = 0,
             gcn_hidden: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Semi-supervised two-layer GCN node classification without node features.

    `labeled_rows` are sorted rows of `a_sym` whose labels `accept` are known.
    With identity features (Kipf & Welling 2017) layer 1 is relu(Â W1), so no
    identity is built. Returns (predicted bool labels, accept probabilities of
    the last epoch's forward pass); labeled rows keep their given labels."""
    hyper = hyper or Hyper()
    if hyper.epochs < 1:
        raise InvalidSpecError(f"classifier needs >= 1 epoch, got {hyper.epochs}")
    if accept.all() or not accept.any():
        raise DegenerateSupervisionError("need at least one labeled example per class")
    n = a_sym.shape[0]
    targets = np.stack([~accept, accept], axis=1).astype(float)
    # Â = D^-1/2 (A_sym + I) D^-1/2, once per call.
    norm = degree_normalized(a_sym + np.eye(n), a_sym.sum(axis=1) + 1.0)

    rng = np.random.default_rng(seed)
    weights = [parameter(rng, (n, gcn_hidden), n).data,
               parameter(rng, (gcn_hidden, 2), gcn_hidden).data]
    caches = [np.zeros_like(w) for w in weights]
    for _epoch in range(hyper.epochs):
        _loss, probs, grads = _gcn_epoch(norm, *weights, labeled_rows, targets)
        for w, g, c in zip(weights, grads, caches):
            rmsprop_step(w, g, c, hyper)
    predicted = probs.argmax(axis=1).astype(bool)
    predicted[labeled_rows] = accept
    return predicted, probs[:, 1]


def _gcn_epoch(norm: np.ndarray, w1: np.ndarray, w2: np.ndarray,
               labeled_idx: np.ndarray, targets: np.ndarray):
    """One forward and backward pass of the classifier: (mean cross-entropy
    over the labeled rows, (n, 2) class probabilities, [dloss/dw1, dloss/dw2]).
    Only layer 1 multiplies `norm` by an (n, h) array; the rest take (n, 2)."""
    pre = norm @ w1
    h1 = np.maximum(pre, 0.0)
    logits = norm @ (h1 @ w2)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    picked = probs[labeled_idx]
    shifted = picked + 1e-12
    scale = 1.0 / labeled_idx.size
    loss = -(targets * np.log(shifted)).sum() * scale
    # Softmax backward; only the labeled rows carry a gradient.
    g = -scale * targets / shifted
    d_logits = np.zeros_like(probs)
    d_logits[labeled_idx] = picked * (g - (g * picked).sum(axis=1, keepdims=True))
    d_z = norm.T @ d_logits
    d_w2 = h1.T @ d_z
    d_w1 = norm.T @ ((d_z @ w2.T) * (pre > 0))
    return loss, probs, [d_w1, d_w2]


def inject_noise(a: np.ndarray, level_pct: float, seed: int = 0) -> np.ndarray:
    """Add Uniform(0, b) per entry with b = level_pct/100 * mean(A); renormalize rows."""
    a = check_similarity(a)
    if level_pct < 0:
        raise DomainError("noise level must be >= 0")
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
    labels = np.array([truth[hid] for hid in community.ids], dtype=bool)
    a_sym = symmetrize(check_similarity(similarity))
    clusters = kmeans(spectral_embed(normalized_laplacian(a_sym), k=2), clusters=2, seed=seed)
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


def export_selection(result: SelectionResult, truth: dict[str, bool],
                     path: Path | str) -> None:
    with Path(path).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["household_id", "cluster", "queried", "true_label",
                         "predicted_label"])
        for i, hid in enumerate(result.household_ids):
            writer.writerow([
                hid, int(result.clusters[i]), int(hid in result.queried),
                int(truth[hid]), int(result.predicted[i]),
            ])
