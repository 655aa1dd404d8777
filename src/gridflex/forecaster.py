"""Demand-forecasting network whose side product is the household similarity matrix.

Per household, a GRU plus self-attention encodes the recent load window; a
multi-head attention layer across households produces the row-stochastic
similarity matrix used as edge weights of a two-layer graph convolution that
predicts the next hour of demand. Trained with MSE and RMSProp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, no_grad, parameter
from .community import Community, normalize_features
from .errors import DomainError, InvalidSpecError, NumericalError, ShapeError


@dataclass
class Hyper:
    learning_rate: float = 3e-4
    epochs: int = 100
    batch_size: int = 32
    rmsprop_decay: float = 0.9
    rmsprop_eps: float = 1e-8
    split_ratios: tuple[float, float, float] = (0.7, 0.2, 0.1)


@dataclass
class EncoderParams:
    """GRU gates plus single-head self-attention projections."""

    hidden_size: int
    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor
    attn_q: Tensor
    attn_k: Tensor
    attn_v: Tensor


@dataclass
class AttentionParams:
    """Per-head projections stacked on a leading head axis, plus output projection."""

    head_count: int
    w_q: Tensor  # (heads, M, dk)
    w_k: Tensor
    w_v: Tensor
    w_out: Tensor  # (heads * dk, M)


@dataclass
class PatternModel:
    encoder: EncoderParams
    attention: AttentionParams
    gcn_weights: list[Tensor]
    head_w: Tensor
    head_b: Tensor
    window: int = 24
    socio_width: int = 7

    def parameters(self) -> list[tuple[str, Tensor]]:
        enc = self.encoder
        att = self.attention
        named = [
            ("gru.w_update", enc.w_update), ("gru.u_update", enc.u_update),
            ("gru.b_update", enc.b_update), ("gru.w_reset", enc.w_reset),
            ("gru.u_reset", enc.u_reset), ("gru.b_reset", enc.b_reset),
            ("gru.w_cand", enc.w_cand), ("gru.u_cand", enc.u_cand),
            ("gru.b_cand", enc.b_cand), ("self_attn.q", enc.attn_q),
            ("self_attn.k", enc.attn_k), ("self_attn.v", enc.attn_v),
            ("mha.q", att.w_q), ("mha.k", att.w_k), ("mha.v", att.w_v),
            ("mha.out", att.w_out),
        ]
        named += [(f"gcn.{i}", w) for i, w in enumerate(self.gcn_weights)]
        named += [("head.w", self.head_w), ("head.b", self.head_b)]
        return named


def build_model(
    rng: np.random.Generator,
    hidden_size: int = 32,
    head_count: int = 4,
    gcn_hidden: int = 32,
    socio_width: int = 7,
    window: int = 24,
    zero_head: bool = False,
) -> PatternModel:
    m = hidden_size
    if m % head_count != 0:
        raise InvalidSpecError("hidden_size must be divisible by head_count")
    dk = m // head_count
    encoder = EncoderParams(
        hidden_size=m,
        w_update=parameter(rng, (1, m), 1), u_update=parameter(rng, (m, m), m),
        b_update=Tensor(np.zeros(m), requires_grad=True),
        w_reset=parameter(rng, (1, m), 1), u_reset=parameter(rng, (m, m), m),
        b_reset=Tensor(np.zeros(m), requires_grad=True),
        w_cand=parameter(rng, (1, m), 1), u_cand=parameter(rng, (m, m), m),
        b_cand=Tensor(np.zeros(m), requires_grad=True),
        attn_q=parameter(rng, (m, m), m),
        attn_k=parameter(rng, (m, m), m),
        attn_v=parameter(rng, (m, m), m),
    )
    attention = AttentionParams(
        head_count=head_count,
        w_q=parameter(rng, (head_count, m, dk), m),
        w_k=parameter(rng, (head_count, m, dk), m),
        w_v=parameter(rng, (head_count, m, dk), m),
        w_out=parameter(rng, (head_count * dk, m), head_count * dk),
    )
    gcn_weights = [
        parameter(rng, (m + socio_width, gcn_hidden), m + socio_width),
        parameter(rng, (gcn_hidden, gcn_hidden), gcn_hidden),
    ]
    head_w = (
        Tensor(np.zeros((gcn_hidden, 1)), requires_grad=True)
        if zero_head
        else parameter(rng, (gcn_hidden, 1), gcn_hidden)
    )
    head_b = Tensor(np.zeros(1), requires_grad=True)
    return PatternModel(encoder, attention, gcn_weights, head_w, head_b,
                        window=window, socio_width=socio_width)


# -- forward components --------------------------------------------------------


def gru_forward(params: EncoderParams, sequence: Tensor | np.ndarray) -> Tensor:
    """GRU over one or many series, as one autodiff node.

    Accepts (s, input_dim) for a single series or (n, s, input_dim) for a
    batch; returns hidden states with shape matching the input convention
    ((s, M) or (n, s, M)). Zero initial hidden state.

    The input projections of all steps are one matmul before the time loop,
    and the update and reset gates share one (M, 2M) recurrent matmul per
    step (Appleyard et al. 2016, arXiv:1604.01946). Backpropagation through
    time is a hand-written numpy loop over the gate activations kept here.
    """
    x = Tensor._lift(sequence)
    width = params.w_update.shape[0]
    single = x.data.ndim == 2
    xs = x.data[None] if single else x.data
    if xs.ndim != 3 or xs.shape[2] != width:
        raise ShapeError(f"expected (n, s, {width}) input, got {x.shape}")
    n, s, _ = xs.shape
    m = params.hidden_size
    gate_params = (params.w_update, params.w_reset, params.w_cand,
                   params.u_update, params.u_reset, params.u_cand,
                   params.b_update, params.b_reset, params.b_cand)
    w_x = np.concatenate([p.data for p in gate_params[:3]], axis=1)  # (d, 3M)
    u_zr = np.concatenate([p.data for p in gate_params[3:5]], axis=1)  # (M, 2M)
    u_c = params.u_cand.data
    x_steps = xs.transpose(1, 0, 2)  # (s, n, d)
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
        g_steps = (g[None] if single else g).transpose(1, 0, 2)  # (s, n, M)
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
            d_x = (d_proj @ w_x.T).transpose(1, 0, 2)
            x._accumulate(d_x[0] if single else d_x)

    states = h[1:].transpose(1, 0, 2)
    return x._make(states[0] if single else states, (x, *gate_params), backward)


def self_attention(params: EncoderParams, hidden: Tensor) -> Tensor:
    """Single-head scaled dot-product attention over time steps.

    Accepts (s, M) or batched (n, s, M); same shape out.
    """
    h = Tensor._lift(hidden)
    m = params.hidden_size
    if h.shape[-1] != m:
        raise ShapeError(f"hidden width {h.shape[-1]} != {m}")
    q = h @ params.attn_q
    k = h @ params.attn_k
    v = h @ params.attn_v
    scores = (q @ k.mT) * (1.0 / np.sqrt(m))
    return scores.softmax(axis=-1) @ v


def household_embedding(params: EncoderParams, window: np.ndarray) -> np.ndarray:
    """Final-step embedding of one household's load window (length s)."""
    seq = np.asarray(window, dtype=float).reshape(-1, 1)
    out = self_attention(params, gru_forward(params, seq))
    return out.data[-1]


def inter_series_attention(params: AttentionParams, embeddings: Tensor | np.ndarray):
    """Multi-head attention across households.

    Returns (similarity, projected): similarity is the head-averaged (n, n)
    row-stochastic attention matrix; projected is the (n, M) output.
    """
    e = Tensor._lift(embeddings)
    n, m = e.shape
    e3 = e.reshape(1, n, m)
    q = e3 @ params.w_q  # (heads, n, dk)
    k = e3 @ params.w_k
    v = e3 @ params.w_v
    weights = ((q @ k.mT) * (1.0 / np.sqrt(m))).softmax(axis=-1)  # (heads, n, n)
    head_out = weights @ v  # (heads, n, dv)
    merged = head_out.transpose(1, 0, 2).reshape(n, -1)
    projected = merged @ params.w_out
    similarity = weights.mean(axis=0)
    return similarity, projected


def concat_features(temporal: Tensor | np.ndarray, socio: Tensor | np.ndarray) -> Tensor:
    temporal = Tensor._lift(temporal)
    socio = Tensor._lift(socio)
    if temporal.shape[0] != socio.shape[0]:
        raise ShapeError("row count mismatch between temporal and static features")
    if socio.shape[1] == 0:
        return temporal
    return Tensor.concat([temporal, socio], axis=1)


def gcn_layer(
    features: Tensor | np.ndarray, edge_weights: Tensor | np.ndarray, weight: Tensor
) -> Tensor:
    """Graph convolution with self-loops, symmetric degree normalization, ReLU."""
    h = Tensor._lift(features)
    a = Tensor._lift(edge_weights)
    if np.any(a.data < 0):
        raise DomainError("edge weights must be non-negative")
    n = a.shape[0]
    a_hat = a + np.eye(n)
    deg = a_hat.sum(axis=1, keepdims=True)  # (n, 1)
    inv_sqrt = deg.pow_const(-0.5)
    norm = a_hat * inv_sqrt * inv_sqrt.reshape(1, n)
    return (norm @ h @ weight).relu()


def forward(model: PatternModel, windows: np.ndarray, socio: np.ndarray):
    """Full pipeline for one time sample.

    windows: (n, s) load windows sharing the same time span; socio: (n, M_bar)
    z-scored static features. Returns (predictions Tensor (n, 1), similarity
    Tensor (n, n)).
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] != model.window:
        raise ShapeError(f"expected (n, {model.window}) windows, got {windows.shape}")
    hidden = gru_forward(model.encoder, windows[:, :, None])
    encoded = self_attention(model.encoder, hidden)
    embeddings = encoded[:, -1, :]
    similarity, projected = inter_series_attention(model.attention, embeddings)
    features = concat_features(projected, socio)
    g = features
    for w in model.gcn_weights:
        g = gcn_layer(g, similarity, w)
    predictions = g @ model.head_w + model.head_b
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
    series = np.stack([h.load.values for h in community.households])  # (n, T)
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
    similarity_range: tuple[float, float] = (0.0, 1.0)  # entry min/max seen


def _eval_mse(model: PatternModel, data: SampleSet) -> float:
    total = 0.0
    with no_grad(p for _, p in model.parameters()):
        for i in range(data.windows.shape[0]):
            loss, _ = mse_loss(model, data.windows[i], data.targets[i], data.socio)
            total += float(loss.data)
    return total / data.windows.shape[0]


def train(model: PatternModel, data: SampleSet, hyper: Hyper | None = None) -> TrainResult:
    """RMSProp training on the MSE objective; deterministic for a fixed model init."""
    hyper = hyper or Hyper()
    train_set, val_set, _ = split_dataset(data, hyper.split_ratios)
    params = [p for _, p in model.parameters()]
    cache = [np.zeros_like(p.data) for p in params]
    result = TrainResult()
    result.initial_val_mse = _eval_mse(model, val_set)
    k = train_set.windows.shape[0]
    for _epoch in range(hyper.epochs):
        epoch_loss = 0.0
        for batch_start in range(0, k, hyper.batch_size):
            idx = range(batch_start, min(batch_start + hyper.batch_size, k))
            grads = [np.zeros_like(p.data) for p in params]
            for i in idx:
                for p in params:
                    p.grad = None
                loss, similarity = mse_loss(
                    model, train_set.windows[i], train_set.targets[i], train_set.socio
                )
                loss.backward()
                epoch_loss += float(loss.data)
                for g, p in zip(grads, params):
                    if p.grad is not None:
                        g += p.grad
                result.similarity = similarity.data
                result.max_row_sum_dev = max(
                    result.max_row_sum_dev,
                    float(np.abs(similarity.data.sum(axis=1) - 1).max()),
                )
                result.similarity_range = (
                    min(result.similarity_range[0], float(similarity.data.min())),
                    max(result.similarity_range[1], float(similarity.data.max())),
                )
            for p, g, c in zip(params, grads, cache):
                g /= len(idx)
                if not np.all(np.isfinite(g)):
                    raise NumericalError("non-finite gradient during training")
                c *= hyper.rmsprop_decay
                c += (1 - hyper.rmsprop_decay) * g * g
                p.data -= hyper.learning_rate * g / (np.sqrt(c) + hyper.rmsprop_eps)
        result.train_mse.append(epoch_loss / k)
        result.val_mse.append(_eval_mse(model, val_set))
    if hyper.epochs == 0:
        result.val_mse.append(result.initial_val_mse)
    return result


def similarity_matrix(model: PatternModel, data: SampleSet) -> np.ndarray:
    """Attention matrix from a full-population forward pass on the last sample."""
    with no_grad(p for _, p in model.parameters()):
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
    params = [p for _, p in model.parameters()]
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


# -- checkpointing -------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(model: PatternModel, path: Path | str, seed: int | None = None,
                    hyper: Hyper | None = None) -> None:
    arrays = {name.replace(".", "__"): p.data for name, p in model.parameters()}
    meta = np.array([
        CHECKPOINT_VERSION, model.window, model.socio_width,
        model.encoder.hidden_size, model.attention.head_count,
        -1 if seed is None else seed,
    ], dtype=np.int64)
    hp = hyper or Hyper()
    np.savez(path, __meta__=meta,
             __hyper__=np.array([hp.learning_rate, hp.epochs, hp.batch_size,
                                 hp.rmsprop_decay, hp.rmsprop_eps]),
             **arrays)


def load_checkpoint(path: Path | str) -> PatternModel:
    blob = np.load(path)
    meta = blob["__meta__"]
    if int(meta[0]) != CHECKPOINT_VERSION:
        raise InvalidSpecError(f"unsupported checkpoint version {int(meta[0])}")
    window, socio_width, hidden, heads = (int(meta[1]), int(meta[2]),
                                          int(meta[3]), int(meta[4]))
    gcn_hidden = blob["gcn__1"].shape[0]
    model = build_model(np.random.default_rng(0), hidden_size=hidden,
                        head_count=heads, gcn_hidden=gcn_hidden,
                        socio_width=socio_width, window=window)
    for name, p in model.parameters():
        p.data = blob[name.replace(".", "__")]
    return model
