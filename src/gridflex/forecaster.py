"""Demand-forecasting network whose side product is the household similarity matrix.

Per household, a GRU plus self-attention from the final step encodes the
recent load window; a multi-head attention layer across households produces
the row-stochastic similarity matrix used as edge weights of a two-layer graph
convolution that predicts the next hour of demand. Trained with MSE and
RMSProp.

The network is one plain-numpy forward and backward pass. Each layer function
takes arrays and returns its output with a `backward` closure over the arrays
it kept, which maps the output's gradient to its inputs' and parameters'
gradients. The parameters sit in `Tensor` holders only for their seeded
initial draw; the layers read their `.data`, and no autodiff graph is built.
`forward`'s backward runs once, and frees each layer's arrays as soon as that
layer's backward has run. The graph normalization is a layer of its own: its
backward runs once per sample, on the sum of both graph layers' gradients.

Training and validation run up to `WORKERS` samples at once, on the calling
thread and a thread pool (numpy releases the GIL inside its loops and BLAS).
Results are consumed in sample order and summed on the caller, so every
output is byte-identical for any worker count. Each sample in flight holds
at most about 11.5 MB at 250 households.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, parameter
from .community import Community, check_split_ratios, normalize_features
from .errors import ContractViolation, DomainError, InvalidSpecError, NumericalError, ShapeError


def _sample_threads() -> int:
    """The CPUs this process may use, divided by the threads numpy's BLAS gives
    one matmul: every CPU, unless one of the BLAS's usual variables caps it.
    BLAS threads and sample threads would compete for the same cores; on 2
    cores, two sample threads over a 2-thread OpenBLAS trained 35% slower
    than one."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            return max(cpus // max(int(os.environ[name].split(",")[0]), 1), 1)
        except (KeyError, ValueError):
            continue
    return 1


# Training and validation samples in flight at once.
WORKERS = _sample_threads()


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
    """One RMSProp update of `param` and its `cache`, in place, through two
    scratch arrays: cache = d cache + ((1 - d) g) g, then
    param -= (lr g) / (sqrt(cache) + eps)."""
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient during training")
    scratch = np.multiply(1 - hyper.rmsprop_decay, grad)
    scratch *= grad
    cache *= hyper.rmsprop_decay
    cache += scratch
    np.sqrt(cache, out=scratch)
    scratch += hyper.rmsprop_eps
    step = np.multiply(hyper.learning_rate, grad)
    step /= scratch
    param -= step


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
    for name, value, least in [("hidden_size", hidden_size, 1), ("head_count", head_count, 1),
                               ("gcn_hidden", gcn_hidden, 1), ("window", window, 1),
                               ("socio_width", socio_width, 0)]:
        if value < least:
            raise InvalidSpecError(f"{name} must be >= {least}, got {value}")
    if hidden_size % head_count != 0:
        raise InvalidSpecError("hidden_size must be divisible by head_count")
    table = parameter_table(hidden_size, head_count, gcn_hidden, socio_width)
    return PatternModel({
        name: parameter(rng, shape, fan_in) if fan_in
        else Tensor(np.zeros(shape), requires_grad=True)
        for name, (shape, fan_in) in table.items()
    }, window)


# -- forward components --------------------------------------------------------


def gru_forward(params: dict[str, Tensor], sequence: np.ndarray):
    """GRU over a batch of series (n, s, input_dim).

    Returns the hidden states (n, s, M) from a zero initial state, and their
    backward, which maps d_hidden to the nine parameter gradients. The gates
    are stored gate-major, in one (3, s, n, M) buffer of update gate z, reset
    gate r and candidate, so that each step's gates are contiguous (n, M)
    blocks and every elementwise op runs on contiguous memory. The input
    projection x W + b of every step is written into the buffer before the
    recurrence, which then adds h_{t-1} U, one matmul per gate (Appleyard et
    al. 2016, arXiv:1604.01946). Only step t's r * h_{t-1} is kept, in one
    (n, M) scratch array. Backpropagation through time, a numpy loop,
    overwrites step t's update gate and candidate with the gradients of their
    pre-activations once it has read them, and writes the reset gate's into a
    buffer of its own. After the loop the reset gates become r * h_{t-1} in
    place, the input of the candidate's weight gradient.
    """
    x = np.asarray(sequence, dtype=float)
    names = [f"gru.{kind}_{gate}" for kind in "wub" for gate in ("update", "reset", "cand")]
    gate_params = [params[name].data for name in names]
    width, m = gate_params[0].shape
    if x.ndim != 3 or x.shape[2] != width:
        raise ShapeError(f"expected (n, s, {width}) input, got {x.shape}")
    n, s, _ = x.shape
    w, u, b = (np.stack(gate_params[i : i + 3]) for i in (0, 3, 6))  # gate-major
    x_flat = x.transpose(1, 0, 2).reshape(s * n, width)  # row t * n + i: step t of series i

    gates = np.empty((3, s, n, m))  # z, r, candidate; gates[g, t] is an (n, M) block
    for gate, w_gate in zip(gates, w):  # einsum: at width 1, 2x faster than matmul
        np.einsum("ik,kj->ij", x_flat, w_gate, out=gate.reshape(s * n, m))
    gates += np.repeat(b[:, None, None, :], n, axis=2)  # whole (n, M) blocks, not rows
    rh = np.empty((n, m))  # r * h_{t-1}, the input of the candidate's matmul
    h = np.zeros((s + 1, n, m))  # h[t] is the state before step t
    hu = np.empty((2, n, m))  # h_{t-1} U for z and r, then (r * h_{t-1}) U_c
    for t in range(s):  # in place: each step writes only into the arrays above
        zr, (z, r, c), h_prev, h_next = gates[:2, t], gates[:, t], h[t], h[t + 1]
        np.matmul(h_prev, u[:2], out=hu)
        zr += hu
        np.multiply(zr, -1.0, out=zr)  # sigmoid; np.negative misreads a (2, n, 1) view
        np.exp(zr, out=zr)
        zr += 1.0
        np.reciprocal(zr, out=zr)
        np.multiply(r, h_prev, out=rh)
        np.matmul(rh, u[2], out=hu[0])
        c += hu[0]
        np.tanh(c, out=c)
        np.subtract(h_prev, c, out=h_next)  # h = z * h_prev + (1 - z) * c
        h_next *= z
        h_next += c

    def backward(g):
        dh = np.zeros((n, m))
        one_minus_z, hc, tmp = np.empty((3, n, m))
        d_r = np.empty((s, n, m))
        d_zr = np.empty((n, 2 * m))  # [d_z d_r], for one matmul with [U_z U_r]^T
        u_zr_t = np.concatenate(gate_params[3:5], axis=1).T
        for t in range(s - 1, -1, -1):
            (z, r, c), h_prev = gates[:, t], h[t]
            dh += g[:, t]
            np.multiply(c, c, out=tmp)
            np.subtract(1.0, tmp, out=tmp)  # 1 - c^2
            np.subtract(h_prev, c, out=hc)
            np.subtract(1.0, z, out=one_minus_z)
            np.multiply(dh, one_minus_z, out=c)
            c *= tmp  # d_c
            hc *= dh
            hc *= z
            dh *= z
            np.multiply(hc, one_minus_z, out=z)  # d_z
            np.matmul(c, u[2].T, out=tmp)  # d_rh
            np.multiply(tmp, h_prev, out=hc)
            hc *= r
            tmp *= r
            dh += tmp  # dh z + d_rh r
            np.subtract(1.0, r, out=d_r[t])
            d_r[t] *= hc
            d_zr[:, :m], d_zr[:, m:] = z, d_r[t]
            np.matmul(d_zr, u_zr_t, out=tmp)
            dh += tmp
        d_z, rh, d_c = gates  # rh holds r until the next line
        rh *= h[:-1]
        d_pre = [d.reshape(s * n, m) for d in (d_z, d_r, d_c)]  # pre-activation gradients
        h_flat = h[:-1].reshape(s * n, m).T
        d_u = [h_flat @ d_pre[0], h_flat @ d_pre[1], rh.reshape(s * n, m).T @ d_pre[2]]
        d_w = [x_flat.T @ d for d in d_pre]
        return dict(zip(names, (*d_w, *d_u, *(d.sum(axis=0) for d in d_pre))))

    return h[1:].transpose(1, 0, 2), backward


def self_attention(params: dict[str, Tensor], hidden: np.ndarray):
    """Single-head scaled dot-product attention over the time steps of
    (n, s, M), queried from the final step only.

    Returns the (n, M) encoding of each household's last step, and its
    backward, which maps d_encoding to (d_hidden, parameter gradients). The
    key and value projections are applied to the query and to the
    attention-weighted states, not to every step: scores = H (W_k q) and
    out = (a H) W_v.
    """
    w_q, w_k, w_v = (params[f"self_attn.{x}"].data for x in "qkv")
    m = w_q.shape[0]
    h = hidden
    if h.ndim != 3 or h.shape[2] != m:
        raise ShapeError(f"expected (n, s, {m}) hidden states, got {h.shape}")
    scale = 1.0 / np.sqrt(m)
    last = h[:, -1, :]
    q = last @ w_q  # (n, M)
    r = (q @ w_k.T) * scale  # the query mapped back through the key projection
    scores = (h @ r[:, :, None])[:, :, 0]  # (n, s)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    ctx = (att[:, None, :] @ h)[:, 0, :]  # (n, M)

    def backward(g):
        d_ctx = g @ w_v.T
        d_att = (h @ d_ctx[:, :, None])[:, :, 0]
        d_scores = att * (d_att - (d_att * att).sum(axis=1, keepdims=True))
        d_r = (d_scores[:, None, :] @ h)[:, 0, :] * scale
        d_q = d_r @ w_k
        # att_t d_ctx + d_scores_t r for every step t, as one batched matmul.
        d_h = np.stack([att, d_scores], axis=2) @ np.stack([d_ctx, r], axis=1)
        d_h[:, -1, :] += d_q @ w_q.T
        return d_h, {"self_attn.q": last.T @ d_q, "self_attn.k": d_r.T @ q,
                     "self_attn.v": ctx.T @ g}

    return ctx @ w_v, backward


def inter_series_attention(params: dict[str, Tensor], embeddings: np.ndarray):
    """Multi-head attention across households.

    Returns (similarity, projected, backward): similarity is the head-averaged
    (n, n) row-stochastic attention matrix, projected the (n, M) output, and
    backward maps (d_similarity, d_projected) to (d_embeddings, parameter
    gradients). The softmax backward runs once per head, on the sum of both
    paths' gradients, in one (n, n) scratch array that each head reuses.
    """
    x = embeddings
    w_q, w_k, w_v, w_out = (params[f"mha.{p}"].data for p in ("q", "k", "v", "out"))
    heads, n = w_q.shape[0], x.shape[0]
    scale = 1.0 / np.sqrt(x.shape[1])
    q = x @ w_q  # (heads, n, dk)
    k = x @ w_k
    # In place: at n = 250 a fresh (heads, n, n) temporary per step costs more
    # than the arithmetic on it.
    att = (q * scale) @ k.transpose(0, 2, 1)
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    v = x @ w_v  # (heads, n, dv)
    merged = (att @ v).transpose(1, 0, 2).reshape(n, -1)  # the heads side by side

    def backward(d_similarity, d_projected):
        d_heads = (d_projected @ w_out.T).reshape(n, heads, -1).transpose(1, 0, 2)
        d_shared = d_similarity * (1.0 / heads)  # every head's share of the average
        d_q, d_k = np.empty_like(q), np.empty_like(k)
        d_att = np.empty((n, n))
        for head in range(heads):
            np.matmul(d_heads[head], v[head].T, out=d_att)
            d_att += d_shared
            # The softmax backward, in place: d_att becomes the scores' gradient.
            d_att -= np.einsum("ij,ij->i", d_att, att[head])[:, None]
            d_att *= att[head]
            np.matmul(d_att, k[head], out=d_q[head])
            np.matmul(d_att.T, q[head], out=d_k[head])
        d_q *= scale
        d_k *= scale
        d_v = att.transpose(0, 2, 1) @ d_heads
        d_x = ((d_q @ w_q.transpose(0, 2, 1)).sum(axis=0)
               + (d_k @ w_k.transpose(0, 2, 1)).sum(axis=0))
        d_x += (d_v @ w_v.transpose(0, 2, 1)).sum(axis=0)
        return d_x, {"mha.q": x.T @ d_q, "mha.k": x.T @ d_k, "mha.v": x.T @ d_v,
                     "mha.out": merged.T @ d_projected}

    similarity = att.sum(axis=0)
    similarity *= 1.0 / heads
    return similarity, merged @ w_out, backward


def normalized_graph(edge_weights: np.ndarray):
    """(D^-1/2 (A+I) D^-1/2, backward) for edge weights A, D the degrees of A+I:
    the graph every `gcn_layer` over A shares, and the map of its gradient to
    A's, in place, which reaches A both directly and through D."""
    if np.any(edge_weights < 0):
        raise DomainError("edge weights must be non-negative")
    a_hat = edge_weights.copy()
    a_hat.flat[:: a_hat.shape[0] + 1] += 1.0  # A + I
    deg = a_hat.sum(axis=1)
    norm = degree_normalized(a_hat, deg)

    def backward(d_a):
        t = d_a * norm
        # norm_ij = a_hat_ij (deg_i deg_j)^-1/2 with deg_i = sum_j a_ij + 1.
        d_deg = -0.5 * (t.sum(axis=1) + t.sum(axis=0)) / deg
        inv_sqrt = 1.0 / np.sqrt(deg)
        d_a *= inv_sqrt[:, None]
        d_a *= inv_sqrt[None, :]
        d_a += d_deg[:, None]
        return d_a

    return norm, backward


def gcn_layer(features: np.ndarray, norm: np.ndarray, weight: np.ndarray):
    """Graph convolution relu(Â X W) on a normalized graph Â, such as the
    `normalized_graph` of the edge weights.

    Returns the output and its backward, which maps d_output to
    (d_features, d_norm, d_weight).
    """
    mixed = norm @ features  # (n, F_in)
    pre = mixed @ weight

    def backward(g):
        d_pre = g * (pre > 0)
        d_mixed = d_pre @ weight.T
        return norm.T @ d_mixed, d_mixed @ features.T, mixed.T @ d_pre

    return np.maximum(pre, 0.0), backward


def forward(model: PatternModel, windows: np.ndarray, socio: np.ndarray):
    """Full pipeline for one time sample.

    windows: (n, s) load windows sharing the same time span; socio: (n, M_bar)
    z-scored static features. Returns (predictions (n, 1), similarity (n, n),
    backward), where backward maps d_predictions to every parameter's gradient.
    Both graph layers share one normalization of the similarity and one run of
    its backward. backward runs once: it drops each layer's backward, and the
    arrays that layer kept, as soon as the layer has run.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] != model.window:
        raise ShapeError(f"expected (n, {model.window}) windows, got {windows.shape}")
    if not np.all(np.isfinite(windows)):
        raise NumericalError("non-finite load window")
    params = model.params
    hidden, gru_backward = gru_forward(params, windows[:, :, None])
    embeddings, self_backward = self_attention(params, hidden)
    similarity, projected, cross_backward = inter_series_attention(params, embeddings)
    if np.shape(socio)[0] != projected.shape[0]:
        raise ShapeError("row count mismatch between temporal and static features")
    norm, graph_backward = normalized_graph(similarity)
    g0, gcn0_backward = gcn_layer(np.concatenate([projected, socio], axis=1), norm,
                                  params["gcn.0"].data)
    g1, gcn1_backward = gcn_layer(g0, norm, params["gcn.1"].data)
    head_w = params["head.w"].data
    predictions = g1 @ head_w + params["head.b"].data
    if not (np.all(np.isfinite(predictions)) and np.all(np.isfinite(similarity))):
        raise NumericalError("non-finite forecaster output")
    width = projected.shape[1]
    layers = [gru_backward, self_backward, cross_backward, graph_backward, gcn0_backward,
              gcn1_backward]

    def backward(d_predictions):
        if not layers:
            raise ContractViolation("a sample's backward runs once")
        # Once popped, a layer's backward has no reference left but the call:
        # the arrays it kept are freed as soon as it returns.
        d_g1, d_norm, d_gcn1 = layers.pop()(d_predictions @ head_w.T)
        d_features, d_norm0, d_gcn0 = layers.pop()(d_g1)
        d_norm += d_norm0
        del d_norm0  # (n, n), and not needed through the cross attention's backward
        d_similarity = layers.pop()(d_norm)  # the normalization's backward, once, in place
        d_embeddings, grads = layers.pop()(d_similarity, d_features[:, :width])
        d_hidden, self_grads = layers.pop()(d_embeddings)
        return {**layers.pop()(d_hidden), **self_grads, **grads, "gcn.0": d_gcn0,
                "gcn.1": d_gcn1, "head.w": g1.T @ d_predictions,
                "head.b": d_predictions.sum(axis=0)}

    return predictions, similarity, backward


def mse_loss(model: PatternModel, windows: np.ndarray, targets: np.ndarray, socio: np.ndarray):
    """One sample's mean squared error: (loss, similarity, backward), where
    backward() returns every parameter's gradient of the loss."""
    predictions, similarity, backward = forward(model, windows, socio)
    diff = predictions - np.asarray(targets, dtype=float).reshape(-1, 1)
    scale = 1.0 / diff.size
    return float((diff * diff).sum() * scale), similarity, lambda: backward(2.0 * (diff * scale))


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
    t_total = series.shape[1]
    if window < 1 or stride < 1 or t_total <= window:
        raise InvalidSpecError(f"window {window} and stride {stride} must be >= 1, and the "
                               f"{t_total} hours of loads must exceed the window")
    mean = series.mean(axis=1, keepdims=True)
    std = series.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    series = (series - mean) / std
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


def _in_order(task, indices: range):
    """task(i) for each i in `indices`, yielded in order, on WORKERS threads.

    The calling thread runs every WORKERS-th task and a pool of WORKERS - 1
    threads runs the rest, in order. The caller's share reuses the memory its
    own allocator arena already holds, where a pool thread's would grow one
    more arena. A task's exception surfaces unchanged when its result is due;
    the pool's unstarted tasks are then cancelled and its threads joined.
    """
    pool = ThreadPoolExecutor(max_workers=max(WORKERS - 1, 1))
    try:
        pooled = pool.map(task, [i for j, i in enumerate(indices) if j % WORKERS])
        for j, i in enumerate(indices):
            yield next(pooled) if j % WORKERS else task(i)
    finally:
        pool.shutdown(cancel_futures=True)


def _eval_mse(model: PatternModel, data: SampleSet) -> float:
    def loss(i):
        return mse_loss(model, data.windows[i], data.targets[i], data.socio)[0]

    total = 0.0
    for value in _in_order(loss, range(data.windows.shape[0])):
        total += value
    return total / data.windows.shape[0]


def train(model: PatternModel, data: SampleSet, hyper: Hyper | None = None) -> TrainResult:
    """RMSProp training on the MSE objective; deterministic for a fixed model init.

    The parameters are fixed within a minibatch, so its samples' forward and
    backward passes are independent (synchronous data-parallel SGD, Goyal et
    al. 2017, arXiv:1706.02677): they run `WORKERS` at a time, on the caller
    and a pool, as do the validation samples. Results are consumed in sample
    order on the caller, which builds the gradient sums (a copy of the first
    sample's, then `+=` in order), the loss sum and the similarity statistics,
    and then takes the RMSProp step; so every output is byte-identical for
    any worker count. Peak memory grows by about 11.5 MB per worker at 250
    households (window 24, hidden size 32).
    """
    hyper = hyper or Hyper()
    train_set, val_set, _ = split_dataset(data, hyper.split_ratios)
    cache = {name: np.zeros_like(p.data) for name, p in model.params.items()}
    result = TrainResult()
    result.initial_val_mse = _eval_mse(model, val_set)
    k = train_set.windows.shape[0]

    def sample(i):
        loss, similarity, backward = mse_loss(
            model, train_set.windows[i], train_set.targets[i], train_set.socio
        )
        return loss, similarity, backward()

    for _epoch in range(hyper.epochs):
        epoch_loss = 0.0
        for batch_start in range(0, k, hyper.batch_size):
            idx = range(batch_start, min(batch_start + hyper.batch_size, k))
            sums = {}
            for loss, similarity, grads in _in_order(sample, idx):
                for name, grad in grads.items():  # one term per sample, in order
                    if name in sums:
                        sums[name] += grad
                    else:
                        sums[name] = grad.copy()
                epoch_loss += loss
                result.similarity = similarity
                result.max_row_sum_dev = max(
                    result.max_row_sum_dev,
                    float(np.abs(similarity.sum(axis=1) - 1).max()),
                )
                result.similarity_range = (
                    min(result.similarity_range[0], float(similarity.min())),
                    max(result.similarity_range[1], float(similarity.max())),
                )
            for name, p in model.params.items():
                sums[name] /= len(idx)
                rmsprop_step(p.data, sums[name], cache[name], hyper)
        result.train_mse.append(epoch_loss / k)
        result.val_mse.append(_eval_mse(model, val_set))
    if hyper.epochs == 0:
        result.val_mse.append(result.initial_val_mse)
    return result


def similarity_matrix(model: PatternModel, data: SampleSet) -> np.ndarray:
    """Attention matrix from a full-population forward pass on the last sample."""
    return forward(model, data.windows[-1], data.socio)[1]


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
    analytic = mse_loss(model, windows, targets, socio)[2]()
    if any(not np.all(np.isfinite(a)) for a in analytic.values()):
        raise NumericalError("non-finite analytic gradient")
    worst = 0.0
    for name, p in model.params.items():
        g_a = analytic[name]
        flat = p.data.reshape(-1)
        g_n = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + epsilon
            up = mse_loss(model, windows, targets, socio)[0]
            flat[j] = orig - epsilon
            down = mse_loss(model, windows, targets, socio)[0]
            flat[j] = orig
            g_n[j] = (up - down) / (2 * epsilon)
        num = float(np.linalg.norm(g_a.reshape(-1) - g_n))
        denom = max(float(np.linalg.norm(g_a)) + float(np.linalg.norm(g_n)),
                    GRAD_CHECK_FLOOR)
        worst = max(worst, num / denom)
    return worst
