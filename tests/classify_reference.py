"""The selection classifier that ran every epoch in full: a softmax over all
rows, the softmax gradient scattered into an (n, 2) array of zeros and
multiplied by the whole of `norm.T`, one RMSProp step per weight, and a last
backward and update whose weights nobody reads. It is the reference the
classifier in gridflex.selector is tested against: both must give the same
bytes."""

import numpy as np

from gridflex.autodiff import parameter
from gridflex.forecaster import Hyper, normalized_graph, rmsprop_step


def classify(a_sym: np.ndarray, labeled_rows: np.ndarray, accept: np.ndarray,
             hyper: Hyper | None = None, seed: int = 0,
             gcn_hidden: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """(predicted bool labels, last epoch's accept probabilities) for sorted,
    unique `labeled_rows` whose bool labels `accept` hold both classes."""
    hyper = hyper or Hyper()
    n = a_sym.shape[0]
    targets = np.stack([~accept, accept], axis=1).astype(float)
    norm = normalized_graph(a_sym)[0]

    rng = np.random.default_rng(seed)
    weights = [parameter(rng, (n, gcn_hidden), n).data,
               parameter(rng, (gcn_hidden, 2), gcn_hidden).data]
    caches = [np.zeros_like(w) for w in weights]
    for _epoch in range(hyper.epochs):
        _loss, probs, grads = gcn_epoch(norm, *weights, labeled_rows, targets)
        for w, g, c in zip(weights, grads, caches):
            rmsprop_step(w, g, c, hyper)
    predicted = probs.argmax(axis=1).astype(bool)
    predicted[labeled_rows] = accept
    return predicted, probs[:, 1]


def gcn_epoch(norm: np.ndarray, w1: np.ndarray, w2: np.ndarray,
              labeled_idx: np.ndarray, targets: np.ndarray):
    """One forward and backward pass of the classifier: (mean cross-entropy
    over the labeled rows, (n, 2) class probabilities, [dloss/dw1, dloss/dw2])."""
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
