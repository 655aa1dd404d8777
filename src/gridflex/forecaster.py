"""Demand-forecasting network whose side product is the household similarity matrix.

Per household, a GRU plus self-attention from the final step encodes the
recent load window; a multi-head attention layer across households produces
the row-stochastic similarity matrix used as edge weights of a two-layer graph
convolution that predicts the next hour of demand. Trained with MSE and
RMSProp.

The GRU, the self-attention, the cross-household attention weights and
output, and each graph layer are single autodiff nodes with hand-written numpy
backward passes; only the feature concatenation, the linear head and the loss
are composed from engine ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad, parameter
from .community import Community, check_split_ratios, normalize_features
from .errors import DomainError, InvalidSpecError, NumericalError, ShapeError


@dataclass
class Hyper:
    learning_rate: float = 3e-4
    epochs: int = 100
    batch_size: int = 32
    rmsprop_decay: float = 0.9
    rmsprop_eps: float = 1e-8
    split_ratios: tuple[float, float, float] = (0.7, 0.2, 0.1)

    def __post_init__(self):
        rules = {  # field -> (holds, rule)
            "epochs": (self.epochs >= 0, ">= 0"),
            "batch_size": (self.batch_size >= 1, ">= 1"),
            "learning_rate": (0 <= self.learning_rate < math.inf, "finite and >= 0"),
            "rmsprop_decay": (0 <= self.rmsprop_decay < 1, "in [0, 1)"),
            "rmsprop_eps": (0 <= self.rmsprop_eps < math.inf, "finite and >= 0"),
        }
        for name, (holds, rule) in rules.items():
            if not holds:
                raise InvalidSpecError(f"{name} must be {rule}, got {getattr(self, name)}")
        check_split_ratios(self.split_ratios)


def rmsprop_step(param: np.ndarray, grad: np.ndarray, cache: np.ndarray, hyper: Hyper):
    """One RMSProp update of `param` and its `cache`, in place."""
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient during training")
    cache *= hyper.rmsprop_decay
    cache += (1 - hyper.rmsprop_decay) * grad * grad
    param -= hyper.learning_rate * grad / (np.sqrt(cache) + hyper.rmsprop_eps)


def degree_normalized(a: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """D^{-1/2} A D^{-1/2} for the degree vector `deg`."""
    inv_sqrt = 1.0 / np.sqrt(deg)
    # Scaled in place: numpy's check for a reusable temporary in `x * a * y`
    # costs more than the product at n = 250.
    out = inv_sqrt[:, None] * a
    out *= inv_sqrt[None, :]
    return out


def parameter_table(m: int, heads: int, gcn: int, socio: int) -> dict[str, tuple[tuple, int]]:
    """Parameter name -> (shape, fan_in), in draw order; fan_in 0 is a zero bias.

    m is the hidden size, split over `heads` attention heads; `socio` static
    features join the cross-attention output before the `gcn`-wide layers.
    """
    table = {}
    for gate in ("update", "reset", "cand"):
        table |= {f"gru.w_{gate}": ((1, m), 1), f"gru.u_{gate}": ((m, m), m),
                  f"gru.b_{gate}": ((m,), 0)}
    table |= {f"self_attn.{x}": ((m, m), m) for x in "qkv"}
    table |= {f"mha.{x}": ((heads, m, m // heads), m) for x in "qkv"}
    return table | {
        "mha.out": ((m, m), m),
        "gcn.0": ((m + socio, gcn), m + socio),
        "gcn.1": ((gcn, gcn), gcn),
        "head.w": ((gcn, 1), gcn),
        "head.b": ((1,), 0),
    }


@dataclass
class PatternModel:
    params: dict[str, Tensor]  # name -> parameter, in the order of parameter_table
    window: int = 24

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())


def build_model(
    rng: np.random.Generator,
    hidden_size: int = 32,
    head_count: int = 4,
    gcn_hidden: int = 32,
    socio_width: int = 7,
    window: int = 24,
) -> PatternModel:
    if hidden_size % head_count != 0:
        raise InvalidSpecError("hidden_size must be divisible by head_count")
    table = parameter_table(hidden_size, head_count, gcn_hidden, socio_width)
    return PatternModel({
        name: parameter(rng, shape, fan_in) if fan_in
        else Tensor(np.zeros(shape), requires_grad=True)
        for name, (shape, fan_in) in table.items()
    }, window)


# -- forward components --------------------------------------------------------


def gru_forward(params: dict[str, Tensor], sequence: Tensor | np.ndarray) -> Tensor:
    """GRU over a batch of series (n, s, input_dim), as one autodiff node.

    Returns the hidden states (n, s, M) from a zero initial state. The input
    projections of all steps are one matmul before the time loop, and the
    update and reset gates share one (M, 2M) recurrent matmul per step
    (Appleyard et al. 2016, arXiv:1604.01946). Backpropagation through time is
    a hand-written numpy loop over the gate activations kept here.
    """
    x = Tensor._lift(sequence)
    gate_params = tuple(params[f"gru.{kind}_{gate}"]
                        for kind in "wub" for gate in ("update", "reset", "cand"))
    width, m = gate_params[0].shape
    if x.data.ndim != 3 or x.shape[2] != width:
        raise ShapeError(f"expected (n, s, {width}) input, got {x.shape}")
    n, s, _ = x.shape
    w_x = np.concatenate([p.data for p in gate_params[:3]], axis=1)  # (d, 3M)
    u_zr = np.concatenate([p.data for p in gate_params[3:5]], axis=1)  # (M, 2M)
    u_c = gate_params[5].data
    x_steps = x.data.transpose(1, 0, 2)  # (s, n, d)
    proj = x_steps @ w_x + np.concatenate([p.data for p in gate_params[6:]])  # (s, n, 3M)

    zr = np.empty((s, n, 2 * m))  # update gate z, then reset gate r
    cand = np.empty((s, n, m))
    rh = np.empty((s, n, m))  # r * h_{t-1}, the input of the candidate's matmul
    h = np.zeros((s + 1, n, m))  # h[t] is the state before step t
    for t in range(s):  # in place: each step writes only into the arrays above
        gates, c, h_prev, h_next = zr[t], cand[t], h[t], h[t + 1]
        np.matmul(h_prev, u_zr, out=gates)
        gates += proj[t, :, : 2 * m]
        np.negative(gates, out=gates)  # sigmoid
        np.exp(gates, out=gates)
        gates += 1.0
        np.reciprocal(gates, out=gates)
        np.multiply(gates[:, m:], h_prev, out=rh[t])
        np.matmul(rh[t], u_c, out=c)
        c += proj[t, :, 2 * m :]
        np.tanh(c, out=c)
        np.subtract(h_prev, c, out=h_next)  # h = z * h_prev + (1 - z) * c
        h_next *= gates[:, :m]
        h_next += c

    def backward(g):
        g_steps = g.transpose(1, 0, 2)  # (s, n, M)
        d_proj = np.empty((s, n, 3 * m))  # gradient w.r.t. the gate pre-activations
        dh = np.zeros((n, m))
        for t in range(s - 1, -1, -1):
            dh += g_steps[t]
            z, r = zr[t, :, :m], zr[t, :, m:]
            d_cand = d_proj[t, :, 2 * m :]
            np.multiply(dh * (1.0 - z), 1.0 - cand[t] * cand[t], out=d_cand)
            d_rh = d_cand @ u_c.T
            d_proj[t, :, :m] = dh * (h[t] - cand[t]) * z * (1.0 - z)
            d_proj[t, :, m : 2 * m] = d_rh * h[t] * r * (1.0 - r)
            dh = dh * z + d_rh * r + d_proj[t, :, : 2 * m] @ u_zr.T
        flat = d_proj.reshape(s * n, 3 * m)
        d_w_x = x_steps.reshape(s * n, -1).T @ flat
        d_u_zr = h[:-1].reshape(s * n, m).T @ flat[:, : 2 * m]
        d_u_c = rh.reshape(s * n, m).T @ flat[:, 2 * m :]
        d_b = flat.sum(axis=0)
        grads = (d_w_x[:, :m], d_w_x[:, m : 2 * m], d_w_x[:, 2 * m :],
                 d_u_zr[:, :m], d_u_zr[:, m:], d_u_c,
                 d_b[:m], d_b[m : 2 * m], d_b[2 * m :])
        for p, grad in zip(gate_params, grads):
            if p.requires_grad:
                p._accumulate(grad)
        if x.requires_grad:
            x._accumulate((d_proj @ w_x.T).transpose(1, 0, 2))

    return x._make(h[1:].transpose(1, 0, 2), (x, *gate_params), backward)


def self_attention(params: dict[str, Tensor], hidden: Tensor) -> Tensor:
    """Single-head scaled dot-product attention over the time steps of
    (n, s, M), queried from the final step only, as one autodiff node.

    Returns the (n, M) encoding of each household's last step. The key and
    value projections are applied to the query and to the attention-weighted
    states, not to every step: scores = H (W_k q) and out = (a H) W_v.
    """
    w_q, w_k, w_v = (params[f"self_attn.{x}"] for x in "qkv")
    m = w_q.shape[0]
    if hidden.data.ndim != 3 or hidden.shape[2] != m:
        raise ShapeError(f"expected (n, s, {m}) hidden states, got {hidden.shape}")
    h = hidden.data
    scale = 1.0 / np.sqrt(m)
    last = h[:, -1, :]
    q = last @ w_q.data  # (n, M)
    r = (q @ w_k.data.T) * scale  # the query mapped back through the key projection
    scores = (h @ r[:, :, None])[:, :, 0]  # (n, s)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    ctx = (att[:, None, :] @ h)[:, 0, :]  # (n, M)

    def backward(g):
        if w_v.requires_grad:
            w_v._accumulate(ctx.T @ g)
        d_ctx = g @ w_v.data.T
        d_att = (h @ d_ctx[:, :, None])[:, :, 0]
        d_scores = att * (d_att - (d_att * att).sum(axis=1, keepdims=True))
        d_r = (d_scores[:, None, :] @ h)[:, 0, :] * scale
        if w_k.requires_grad:
            w_k._accumulate(d_r.T @ q)
        d_q = d_r @ w_k.data
        if w_q.requires_grad:
            w_q._accumulate(last.T @ d_q)
        if hidden.requires_grad:
            # att_t d_ctx + d_scores_t r for every step t, as one batched matmul.
            d_h = np.stack([att, d_scores], axis=2) @ np.stack([d_ctx, r], axis=1)
            d_h[:, -1, :] += d_q @ w_q.data.T
            hidden._accumulate(d_h)

    return hidden._make(ctx @ w_v.data, (hidden, w_q, w_k, w_v), backward)


def inter_series_attention(params: dict[str, Tensor], embeddings: Tensor | np.ndarray):
    """Multi-head attention across households, as two autodiff nodes.

    Returns (similarity, projected): similarity is the head-averaged (n, n)
    row-stochastic attention matrix; projected is the (n, M) output. The
    per-head weights are one node and the output projection another, so the
    softmax backward runs once on the sum of both paths' gradients.
    """
    e = Tensor._lift(embeddings)
    weights = _attention_weights(e, params["mha.q"], params["mha.k"])
    projected = _attention_output(weights, e, params["mha.v"], params["mha.out"])
    return weights.mean(axis=0), projected


def _attention_weights(e: Tensor, w_q: Tensor, w_k: Tensor) -> Tensor:
    """softmax(e W_q (e W_k)^T / sqrt(M)) per head: (heads, n, n)."""
    x = e.data
    scale = 1.0 / np.sqrt(x.shape[1])
    q = x @ w_q.data  # (heads, n, dk)
    k = x @ w_k.data
    # In place: at n = 250 a fresh (heads, n, n) temporary per step costs more
    # than the arithmetic on it.
    att = (q * scale) @ k.transpose(0, 2, 1)
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)

    def backward(g):
        d_scores = g - np.einsum("hij,hij->hi", g, att)[:, :, None]
        d_scores *= att
        d_q = (d_scores @ k) * scale
        d_k = d_scores.transpose(0, 2, 1) @ q * scale
        if w_q.requires_grad:
            w_q._accumulate(x.T @ d_q)
        if w_k.requires_grad:
            w_k._accumulate(x.T @ d_k)
        if e.requires_grad:
            e._accumulate((d_q @ w_q.data.transpose(0, 2, 1)).sum(axis=0)
                          + (d_k @ w_k.data.transpose(0, 2, 1)).sum(axis=0))

    return e._make(att, (e, w_q, w_k), backward)


def _attention_output(weights: Tensor, e: Tensor, w_v: Tensor, w_out: Tensor) -> Tensor:
    """The heads' weighted values, side by side, times W_out: (n, M)."""
    att, x = weights.data, e.data
    heads, n, _ = att.shape
    v = x @ w_v.data  # (heads, n, dv)
    merged = (att @ v).transpose(1, 0, 2).reshape(n, -1)

    def backward(g):
        if w_out.requires_grad:
            w_out._accumulate(merged.T @ g)
        d_heads = (g @ w_out.data.T).reshape(n, heads, -1).transpose(1, 0, 2)
        if weights.requires_grad:
            weights._accumulate(d_heads @ v.transpose(0, 2, 1))
        d_v = att.transpose(0, 2, 1) @ d_heads
        if w_v.requires_grad:
            w_v._accumulate(x.T @ d_v)
        if e.requires_grad:
            e._accumulate((d_v @ w_v.data.transpose(0, 2, 1)).sum(axis=0))

    return e._make(merged @ w_out.data, (weights, e, w_v, w_out), backward)


def gcn_layer(
    features: Tensor | np.ndarray, edge_weights: Tensor | np.ndarray, weight: Tensor
) -> Tensor:
    """Graph convolution with self-loops, symmetric degree normalization, ReLU,
    as one autodiff node: relu(D^-1/2 (A+I) D^-1/2 X W), D the degrees of A+I.

    The backward reaches the edge weights A both directly and through D.
    """
    h = Tensor._lift(features)
    a = Tensor._lift(edge_weights)
    if np.any(a.data < 0):
        raise DomainError("edge weights must be non-negative")
    a_hat = a.data + np.eye(a.shape[0])
    deg = a_hat.sum(axis=1)
    norm = degree_normalized(a_hat, deg)
    mixed = norm @ h.data  # (n, F_in)
    pre = mixed @ weight.data

    def backward(g):
        d_pre = g * (pre > 0)
        if weight.requires_grad:
            weight._accumulate(mixed.T @ d_pre)
        d_mixed = d_pre @ weight.data.T
        if h.requires_grad:
            h._accumulate(norm.T @ d_mixed)
        if a.requires_grad:
            d_norm = d_mixed @ h.data.T
            t = d_norm * norm
            # norm_ij = a_hat_ij (deg_i deg_j)^-1/2 with deg_i = sum_j a_ij + 1.
            d_deg = -0.5 * (t.sum(axis=1) + t.sum(axis=0)) / deg
            d_a = degree_normalized(d_norm, deg)
            d_a += d_deg[:, None]
            a._accumulate(d_a)

    return h._make(np.maximum(pre, 0.0), (h, a, weight), backward)


def forward(model: PatternModel, windows: np.ndarray, socio: np.ndarray):
    """Full pipeline for one time sample.

    windows: (n, s) load windows sharing the same time span; socio: (n, M_bar)
    z-scored static features. Returns (predictions Tensor (n, 1), similarity
    Tensor (n, n)).
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] != model.window:
        raise ShapeError(f"expected (n, {model.window}) windows, got {windows.shape}")
    hidden = gru_forward(model.params, windows[:, :, None])
    embeddings = self_attention(model.params, hidden)
    similarity, projected = inter_series_attention(model.params, embeddings)
    if np.shape(socio)[0] != projected.shape[0]:
        raise ShapeError("row count mismatch between temporal and static features")
    g = Tensor.concat([projected, socio], axis=1)
    for name in ("gcn.0", "gcn.1"):
        g = gcn_layer(g, similarity, model.params[name])
    predictions = g @ model.params["head.w"] + model.params["head.b"]
    return predictions, similarity


def mse_loss(model: PatternModel, windows: np.ndarray, targets: np.ndarray, socio: np.ndarray):
    predictions, similarity = forward(model, windows, socio)
    diff = predictions - np.asarray(targets, dtype=float).reshape(-1, 1)
    return (diff * diff).mean(), similarity


# -- dataset construction ------------------------------------------------------


@dataclass(frozen=True)
class SampleSet:
    """Windows (k, n, s) and next-hour targets (k, n) plus static features."""

    windows: np.ndarray
    targets: np.ndarray
    socio: np.ndarray


def make_dataset(community: Community, window: int = 24, stride: int = 24) -> SampleSet:
    """Sliding next-hour samples over the community's shared load timeline.

    Inputs and targets are z-scored over the whole timeline per household so
    the MSE is scale-free.
    """
    series = community.loads  # (n, T)
    mean = series.mean(axis=1, keepdims=True)
    std = series.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    series = (series - mean) / std
    t_total = series.shape[1]
    starts = range(0, t_total - window, stride)
    windows = np.stack([series[:, t : t + window] for t in starts])
    targets = np.stack([series[:, t + window] for t in starts])
    return SampleSet(windows, targets, normalize_features(community))


def split_dataset(data: SampleSet, ratios: tuple[float, float, float]):
    """Chronological train/validation/test split."""
    k = data.windows.shape[0]
    n_train = max(1, int(round(k * ratios[0])))
    n_val = max(1, int(round(k * ratios[1])))
    if n_train + n_val >= k + 1:
        raise InvalidSpecError(f"{k} samples cannot honor split {ratios}")
    train = SampleSet(data.windows[:n_train], data.targets[:n_train], data.socio)
    val = SampleSet(data.windows[n_train : n_train + n_val],
                    data.targets[n_train : n_train + n_val], data.socio)
    test = SampleSet(data.windows[n_train + n_val :],
                     data.targets[n_train + n_val :], data.socio)
    return train, val, test


# -- training ------------------------------------------------------------------


@dataclass
class TrainResult:
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    initial_val_mse: float = float("nan")
    similarity: np.ndarray | None = None  # attention matrix of the last training sample
    max_row_sum_dev: float = 0.0  # worst |row sum - 1| seen across training
    similarity_range: tuple[float, float] = (math.inf, -math.inf)  # entry min/max seen


def _eval_mse(model: PatternModel, data: SampleSet) -> float:
    total = 0.0
    with no_grad(model.params.values()):
        for i in range(data.windows.shape[0]):
            loss, _ = mse_loss(model, data.windows[i], data.targets[i], data.socio)
            total += float(loss.data)
    return total / data.windows.shape[0]


def train(model: PatternModel, data: SampleSet, hyper: Hyper | None = None) -> TrainResult:
    """RMSProp training on the MSE objective; deterministic for a fixed model init."""
    hyper = hyper or Hyper()
    train_set, val_set, _ = split_dataset(data, hyper.split_ratios)
    params = list(model.params.values())
    cache = [np.zeros_like(p.data) for p in params]
    result = TrainResult()
    result.initial_val_mse = _eval_mse(model, val_set)
    k = train_set.windows.shape[0]
    for _epoch in range(hyper.epochs):
        epoch_loss = 0.0
        for batch_start in range(0, k, hyper.batch_size):
            idx = range(batch_start, min(batch_start + hyper.batch_size, k))
            for p in params:
                p.grad = None
            for i in idx:  # each parameter's .grad gains one term per sample
                loss, similarity = mse_loss(
                    model, train_set.windows[i], train_set.targets[i], train_set.socio
                )
                loss.backward()
                epoch_loss += float(loss.data)
                result.similarity = similarity.data
                result.max_row_sum_dev = max(
                    result.max_row_sum_dev,
                    float(np.abs(similarity.data.sum(axis=1) - 1).max()),
                )
                result.similarity_range = (
                    min(result.similarity_range[0], float(similarity.data.min())),
                    max(result.similarity_range[1], float(similarity.data.max())),
                )
            for p, c in zip(params, cache):
                p.grad /= len(idx)
                rmsprop_step(p.data, p.grad, c, hyper)
        result.train_mse.append(epoch_loss / k)
        result.val_mse.append(_eval_mse(model, val_set))
    if hyper.epochs == 0:
        result.val_mse.append(result.initial_val_mse)
    return result


def similarity_matrix(model: PatternModel, data: SampleSet) -> np.ndarray:
    """Attention matrix from a full-population forward pass on the last sample."""
    with no_grad(model.params.values()):
        _, similarity = forward(model, data.windows[-1], data.socio)
    return similarity.data


GRAD_CHECK_FLOOR = 1e-6


def grad_check(model: PatternModel, windows: np.ndarray, targets: np.ndarray,
               socio: np.ndarray, epsilon: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per parameter tensor: ||g_a - g_n|| / max(||g_a|| + ||g_n||, floor). The
    floor keeps tensors whose gradients vanish (norms at the finite-difference
    round-off scale, ~1e-9) from reporting noise as relative error.
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise InvalidSpecError("epsilon must lie in [1e-7, 1e-4]")
    params = list(model.params.values())
    for p in params:
        p.grad = None
    loss, _ = mse_loss(model, windows, targets, socio)
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    if any(not np.all(np.isfinite(a)) for a in analytic):
        raise NumericalError("non-finite analytic gradient")
    worst = 0.0
    with no_grad(params):  # the central differences need losses only
        for p, g_a in zip(params, analytic):
            flat = p.data.reshape(-1)
            g_n = np.zeros_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + epsilon
                up, _ = mse_loss(model, windows, targets, socio)
                flat[j] = orig - epsilon
                down, _ = mse_loss(model, windows, targets, socio)
                flat[j] = orig
                g_n[j] = (float(up.data) - float(down.data)) / (2 * epsilon)
            num = float(np.linalg.norm(g_a.reshape(-1) - g_n))
            denom = max(float(np.linalg.norm(g_a)) + float(np.linalg.norm(g_n)),
                        GRAD_CHECK_FLOOR)
            worst = max(worst, num / denom)
    return worst

