"""Forecasting network: component oracles, invariants, training behavior."""

import hashlib
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflex import forecaster
from gridflex.autodiff import Tensor
from gridflex.errors import DomainError, InvalidSpecError, NumericalError, ShapeError
from gridflex.forecaster import (
    Hyper,
    PatternModel,
    build_model,
    forward,
    gcn_layer,
    grad_check,
    gru_forward,
    inter_series_attention,
    make_dataset,
    mse_loss,
    parameter_table,
    rmsprop_step,
    self_attention,
    similarity_matrix,
    split_dataset,
    train,
)
from tests.conftest import community_of, household


def random_params(rng: np.random.Generator, m: int, heads: int = 1, gcn: int = 1,
                  socio: int = 0, prefixes: tuple[str, ...] = ("",)) -> dict[str, Tensor]:
    """The parameters of parameter_table(m, heads, gcn, socio) whose names start
    with one of `prefixes`, biases included, drawn from N(0, 0.5^2)."""
    return {name: Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)
            for name, (shape, _) in parameter_table(m, heads, gcn, socio).items()
            if name.startswith(prefixes)}


def tiny_encoder(rng: np.random.Generator, m: int = 3) -> dict[str, Tensor]:
    """The GRU and self-attention parameters of hidden size m."""
    return random_params(rng, m, prefixes=("gru.", "self_attn."))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_gru_forward(params: dict[str, Tensor], sequence) -> Tensor:
    """Step-by-step GRU built from Tensor ops: the reference for the fused op."""
    x = Tensor._lift(sequence)
    n, s, _ = x.data.shape
    p = params
    h = Tensor(np.zeros((n, p["gru.u_update"].shape[0])))
    states = []
    for t in range(s):
        x_t = x[:, t, :]
        z = (x_t @ p["gru.w_update"] + h @ p["gru.u_update"] + p["gru.b_update"]).sigmoid()
        r = (x_t @ p["gru.w_reset"] + h @ p["gru.u_reset"] + p["gru.b_reset"]).sigmoid()
        cand = (x_t @ p["gru.w_cand"] + (r * h) @ p["gru.u_cand"] + p["gru.b_cand"]).tanh()
        h = z * h + (1.0 - z) * cand
        states.append(h)
    return Tensor.stack(states, axis=1)


def reference_self_attention(params: dict[str, Tensor], hidden: Tensor) -> Tensor:
    """Self-attention over every query step, built from Tensor ops, keeping the
    final step: the reference for the fused op."""
    m = params["self_attn.q"].shape[0]
    q = hidden @ params["self_attn.q"]
    k = hidden @ params["self_attn.k"]
    v = hidden @ params["self_attn.v"]
    scores = (q @ k.mT) * (1.0 / np.sqrt(m))
    return (scores.softmax(axis=-1) @ v)[:, -1, :]


def reference_cross_attention(params: dict[str, Tensor], e: Tensor):
    """Multi-head attention across households built from Tensor ops: the
    reference for the fused layer."""
    n, m = e.shape
    e3 = e.reshape(1, n, m)
    q = e3 @ params["mha.q"]
    k = e3 @ params["mha.k"]
    v = e3 @ params["mha.v"]
    weights = ((q @ k.mT) * (1.0 / np.sqrt(m))).softmax(axis=-1)
    merged = (weights @ v).transpose(1, 0, 2).reshape(n, -1)
    return weights.mean(axis=0), merged @ params["mha.out"]


def reference_gcn_layer(features, edge_weights, weight: Tensor) -> Tensor:
    """relu(D^-1/2 (A+I) D^-1/2 X W) built from Tensor ops: the reference for
    the fused op."""
    h = Tensor._lift(features)
    a = Tensor._lift(edge_weights)
    n = a.shape[0]
    a_hat = a + np.eye(n)
    inv_sqrt = a_hat.sum(axis=1, keepdims=True).pow_const(-0.5)
    norm = a_hat * inv_sqrt * inv_sqrt.reshape(1, n)
    return (norm @ h @ weight).relu()


def reference_forward(model: PatternModel, windows: np.ndarray, socio: np.ndarray):
    """The whole network composed from Tensor ops and the reference layers:
    (predictions, similarity)."""
    p = model.params
    hidden = reference_gru_forward(p, windows[:, :, None])
    similarity, projected = reference_cross_attention(p, reference_self_attention(p, hidden))
    g = Tensor.concat([projected, socio], axis=1)
    for name in ("gcn.0", "gcn.1"):
        g = reference_gcn_layer(g, similarity, p[name])
    return g @ p["head.w"] + p["head.b"], similarity


def gru_names(enc: dict[str, Tensor]) -> list[str]:
    return [name for name in enc if name.startswith("gru.")]


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def reference_grads(reference, inputs: list[Tensor], upstreams: list[np.ndarray]):
    """Outputs of reference() (one Tensor or a tuple) and the gradients of
    sum_i sum(output_i * upstream_i) w.r.t. each tensor in `inputs`, which
    includes the parameters a layer reads from its table."""
    for t in inputs:
        t.grad = None
    outs = reference()
    outs = outs if isinstance(outs, tuple) else (outs,)
    loss = (outs[0] * upstreams[0]).sum()
    for out, upstream in zip(outs[1:], upstreams[1:]):
        loss = loss + (out * upstream).sum()
    loss.backward()
    return [o.data for o in outs], [t.grad for t in inputs]


def assert_matches_reference(outs, grads, reference, inputs, upstreams):
    """A layer's outputs and the gradients its backward gave for `upstreams`
    against the engine reference's: forward within atol 1e-12, every gradient
    within relative error 1e-10."""
    ref_outs, ref_grads = reference_grads(reference, inputs, upstreams)
    for out, ref in zip(outs, ref_outs, strict=True):
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
    for grad, ref in zip(grads, ref_grads, strict=True):
        assert grad.shape == ref.shape
        assert relative_error(grad, ref) <= 1e-10


def numeric_grad(loss, target: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of loss() w.r.t. each entry of `target`, which is
    perturbed in place and restored."""
    flat = target.reshape(-1)
    numeric = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        up = loss()
        flat[j] = orig - eps
        down = loss()
        flat[j] = orig
        numeric[j] = (up - down) / (2 * eps)
    return numeric.reshape(target.shape)


def gate(enc, x, h, name, act):
    """One GRU gate in plain numpy: act(x W + h U + b)."""
    return act(x @ enc[f"gru.w_{name}"].data + h @ enc[f"gru.u_{name}"].data
               + enc[f"gru.b_{name}"].data)


class TestGru:
    def test_single_step_matches_hand_computation(self):
        enc = tiny_encoder(np.random.default_rng(0))
        x = np.array([[[0.7]]])  # one household, one step
        out, _ = gru_forward(enc, x)
        # Independent numpy recomputation of one update from zero state.
        h0 = np.zeros((1, 3))
        z = gate(enc, x[0], h0, "update", sigmoid)
        cand = gate(enc, x[0], h0, "cand", np.tanh)
        expected = z * 0.0 + (1.0 - z) * cand
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_two_step_recurrence(self):
        enc = tiny_encoder(np.random.default_rng(1))
        xs = np.array([[0.3], [-0.9]])
        out, _ = gru_forward(enc, xs[None])
        h = np.zeros(3)
        for x in xs:
            z = gate(enc, x, h, "update", sigmoid)
            r = gate(enc, x, h, "reset", sigmoid)
            cand = np.tanh(x @ enc["gru.w_cand"].data + (r * h) @ enc["gru.u_cand"].data
                           + enc["gru.b_cand"].data)
            h = z * h + (1 - z) * cand
        np.testing.assert_allclose(out[0, -1], h, atol=1e-12)

    def test_batched_equals_per_series(self):
        """Each row of a batch equals a batch of one."""
        enc = tiny_encoder(np.random.default_rng(2))
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(4, 6, 1))
        batched, _ = gru_forward(enc, batch)
        for i in range(4):
            single, _ = gru_forward(enc, batch[i : i + 1])
            np.testing.assert_allclose(batched[i], single[0], atol=1e-12)

    def test_zero_input_zero_bias_stays_zero(self):
        enc = tiny_encoder(np.random.default_rng(4))
        for name in ("gru.b_update", "gru.b_reset", "gru.b_cand"):
            enc[name].data[:] = 0.0
        out, _ = gru_forward(enc, np.zeros((1, 5, 1)))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_rejects_bad_width(self):
        enc = tiny_encoder(np.random.default_rng(5))
        with pytest.raises(ShapeError):
            gru_forward(enc, np.zeros((1, 4, 2)))

    def test_rejects_an_unbatched_series(self):
        enc = tiny_encoder(np.random.default_rng(5))
        with pytest.raises(ShapeError):
            gru_forward(enc, np.zeros((4, 1)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), s=st.integers(1, 10), m=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_matches_step_by_step_reference(self, n, s, m, seed):
        rng = np.random.default_rng(seed)
        enc = tiny_encoder(rng, m)
        x = rng.normal(size=(n, s, 1))
        upstream = rng.normal(size=(n, s, m))
        out, backward = gru_forward(enc, x)
        grads = backward(upstream)
        names = gru_names(enc)
        assert_matches_reference([out], [grads[name] for name in names],
                                 lambda: reference_gru_forward(enc, x),
                                 [enc[name] for name in names], [upstream])

    def test_fused_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        enc = tiny_encoder(rng, m=3)
        x = rng.normal(size=(2, 5, 1))
        upstream = rng.normal(size=(2, 5, 3))
        grads = gru_forward(enc, x)[1](upstream)
        for name in gru_names(enc):
            numeric = numeric_grad(lambda: float((gru_forward(enc, x)[0] * upstream).sum()),
                                   enc[name].data)
            err = np.linalg.norm(grads[name] - numeric) / max(
                np.linalg.norm(grads[name]) + np.linalg.norm(numeric), 1e-6)
            assert err < 1e-7


class TestSelfAttention:
    def test_single_timestep_is_value_projection(self):
        # With one timestep the softmax weight is exactly 1, so the output is
        # just the value projection of the hidden state.
        enc = tiny_encoder(np.random.default_rng(6))
        h = np.random.default_rng(7).normal(size=(3, 1, 3))
        out, _ = self_attention(enc, h)
        assert out.shape == (3, 3)
        np.testing.assert_allclose(out, h[:, 0] @ enc["self_attn.v"].data, atol=1e-12)

    def test_hand_two_timestep_case(self):
        enc = tiny_encoder(np.random.default_rng(8))
        h = np.random.default_rng(9).normal(size=(2, 3))
        out, _ = self_attention(enc, h[None])
        q, k, v = (h @ enc[f"self_attn.{x}"].data for x in "qkv")
        scores = q @ k.T / np.sqrt(3)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        # Only the final step's query row is computed.
        np.testing.assert_allclose(out[0], (weights @ v)[-1], atol=1e-12)

    def test_embedding_uses_final_step(self):
        """Cross attention sees each household's self-attention encoding, which
        attends from the final step."""
        model = build_model(np.random.default_rng(10), hidden_size=4, head_count=2,
                            gcn_hidden=4, socio_width=2, window=8)
        windows = np.random.default_rng(11).normal(size=(3, 8))
        encoded, _ = self_attention(model.params,
                                    gru_forward(model.params, windows[:, :, None])[0])
        assert encoded.shape == (3, 4)
        expected, _, _ = inter_series_attention(model.params, encoded)
        _, similarity, _ = forward(model, windows, np.zeros((3, 2)))
        np.testing.assert_array_equal(similarity, expected)

    def test_rejects_an_unbatched_series(self):
        enc = tiny_encoder(np.random.default_rng(12))
        with pytest.raises(ShapeError):
            self_attention(enc, np.ones((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), s=st.integers(1, 8), m=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_matches_reference(self, n, s, m, seed):
        rng = np.random.default_rng(seed)
        enc = tiny_encoder(rng, m)
        hidden = Tensor(rng.normal(size=(n, s, m)), requires_grad=True)
        upstream = rng.normal(size=(n, m))
        out, backward = self_attention(enc, hidden.data)
        d_hidden, grads = backward(upstream)
        names = [f"self_attn.{x}" for x in "qkv"]
        assert_matches_reference([out], [d_hidden] + [grads[name] for name in names],
                                 lambda: reference_self_attention(enc, hidden),
                                 [hidden] + [enc[name] for name in names], [upstream])


class TestInterSeriesAttention:
    def _model(self, seed=0, n_heads=2, m=4):
        return build_model(np.random.default_rng(seed), hidden_size=m,
                           head_count=n_heads, gcn_hidden=4, socio_width=2,
                           window=6)

    def test_row_stochastic_in_unit_interval(self):
        model = self._model()
        e = np.random.default_rng(1).normal(size=(5, 4))
        similarity, projected, _ = inter_series_attention(model.params, e)
        np.testing.assert_allclose(similarity.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(similarity >= 0) and np.all(similarity <= 1)
        assert projected.shape == (5, 4)

    def test_single_household_gives_identity(self):
        model = self._model()
        e = np.random.default_rng(2).normal(size=(1, 4))
        similarity, _, _ = inter_series_attention(model.params, e)
        np.testing.assert_allclose(similarity, [[1.0]], atol=1e-15)

    def test_permutation_equivariance(self):
        model = self._model(seed=3)
        e = np.random.default_rng(4).normal(size=(6, 4))
        perm = np.array([3, 0, 5, 1, 4, 2])
        s_orig, _, _ = inter_series_attention(model.params, e)
        s_perm, _, _ = inter_series_attention(model.params, e[perm])
        np.testing.assert_allclose(s_perm, s_orig[np.ix_(perm, perm)], atol=1e-12)

    def test_head_average_matches_manual(self):
        model = self._model(seed=5)
        w_q, w_k = model.params["mha.q"].data, model.params["mha.k"].data
        e = np.random.default_rng(6).normal(size=(4, 4))
        similarity, _, _ = inter_series_attention(model.params, e)
        per_head = []
        for head in range(w_q.shape[0]):
            q = e @ w_q[head]
            k = e @ w_k[head]
            scores = q @ k.T / np.sqrt(e.shape[1])
            ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
            per_head.append(ex / ex.sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(similarity, np.mean(per_head, axis=0), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), heads=st.integers(1, 3), dk=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_matches_reference(self, n, heads, dk, seed):
        rng = np.random.default_rng(seed)
        m = heads * dk
        params = random_params(rng, m, heads, prefixes=("mha.",))
        e = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        upstreams = [rng.normal(size=(n, n)), rng.normal(size=(n, m))]
        similarity, projected, backward = inter_series_attention(params, e.data)
        d_e, grads = backward(*upstreams)
        assert_matches_reference([similarity, projected], [d_e, *grads.values()],
                                 lambda: reference_cross_attention(params, e),
                                 [e, *params.values()], upstreams)


class TestGcnLayer:
    def test_three_node_path_oracle(self):
        # Path graph 0-1-2 with unit weights; compare to direct numpy evaluation
        # of ReLU(D^{-1/2} (A+I) D^{-1/2} X W).
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        x = np.random.default_rng(0).normal(size=(3, 2))
        w = np.random.default_rng(1).normal(size=(2, 2))
        out, _ = gcn_layer(x, a, w)
        a_hat = a + np.eye(3)
        d = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        expected = np.maximum(d @ a_hat @ d @ x @ w, 0.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), f_in=st.integers(1, 4), f_out=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_matches_reference(self, n, f_in, f_out, seed):
        # From n = 2: one node's normalized self-loop is 1 for every edge
        # weight, so its edge gradient is zero and leaves only round-off to compare.
        rng = np.random.default_rng(seed)
        features = Tensor(rng.normal(size=(n, f_in)), requires_grad=True)
        edges = Tensor(rng.uniform(0.0, 1.0, size=(n, n)), requires_grad=True)
        weight = Tensor(rng.normal(size=(f_in, f_out)), requires_grad=True)
        upstream = rng.normal(size=(n, f_out))
        out, backward = gcn_layer(features.data, edges.data, weight.data)
        assert_matches_reference([out], list(backward(upstream)),
                                 lambda: reference_gcn_layer(features, edges, weight),
                                 [features, edges, weight], [upstream])

    def test_edge_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        features = rng.normal(size=(4, 3))
        edges = rng.uniform(0.1, 1.0, size=(4, 4))
        weight = rng.normal(size=(3, 2))
        upstream = rng.normal(size=(4, 2))
        _, analytic, _ = gcn_layer(features, edges, weight)[1](upstream)
        numeric = numeric_grad(
            lambda: float((gcn_layer(features, edges, weight)[0] * upstream).sum()), edges)
        assert np.linalg.norm(analytic) > 1e-3
        err = np.linalg.norm(analytic - numeric) / (
            np.linalg.norm(analytic) + np.linalg.norm(numeric))
        assert err < 1e-7

    def test_rejects_negative_weights(self):
        with pytest.raises(DomainError):
            gcn_layer(np.ones((2, 2)), np.array([[0.0, -0.1], [0.1, 0.0]]), np.ones((2, 2)))

    def test_concat_features_widths(self, monkeypatch):
        """forward feeds the first graph layer the (n, M) cross-attention output
        followed by the (n, M_bar) static features, and needs one static row per
        household."""
        model = build_model(np.random.default_rng(0), hidden_size=4, head_count=2,
                            gcn_hidden=4, socio_width=2, window=6)
        windows = np.random.default_rng(1).normal(size=(3, 6))
        socio = np.random.default_rng(2).normal(size=(3, 2))
        seen = []

        def recording_gcn(features, edge_weights, weight):
            seen.append(features)
            return gcn_layer(features, edge_weights, weight)

        monkeypatch.setattr(forecaster, "gcn_layer", recording_gcn)
        forward(model, windows, socio)
        assert seen[0].shape == (3, 6)
        np.testing.assert_array_equal(seen[0][:, 4:], socio)
        with pytest.raises(ShapeError):
            forward(model, windows, socio[:2])


class TestForward:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), s=st.integers(1, 6), heads=st.integers(1, 3),
           dk=st.integers(1, 3), gcn=st.integers(1, 4), socio=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_whole_pass_matches_engine_reference(self, n, s, heads, dk, gcn, socio, seed):
        """Predictions, similarity, loss and all 20 parameter gradients of the
        hand-written pass against the same network composed from engine ops."""
        rng = np.random.default_rng(seed)
        model = PatternModel(random_params(rng, heads * dk, heads, gcn, socio), window=s)
        windows, targets = rng.normal(size=(n, s)), rng.normal(size=n)
        static = rng.normal(size=(n, socio))
        predictions, similarity, _ = forward(model, windows, static)
        loss, _, backward = mse_loss(model, windows, targets, static)
        grads = backward()

        params = list(model.params.values())
        for p in params:
            p.grad = None
        ref_predictions, ref_similarity = reference_forward(model, windows, static)
        diff = ref_predictions - targets.reshape(-1, 1)
        ref_loss = (diff * diff).mean()
        ref_loss.backward()
        for out, ref in [(predictions, ref_predictions), (similarity, ref_similarity),
                         (np.array(loss), ref_loss)]:
            assert out.shape == ref.shape
            np.testing.assert_allclose(out, ref.data, rtol=0, atol=1e-12)
        assert grads.keys() == model.params.keys()
        for name, p in model.params.items():
            assert grads[name].shape == p.shape
            assert relative_error(grads[name], p.grad) <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_window(self, bad):
        model = build_model(np.random.default_rng(0), hidden_size=4, head_count=2,
                            gcn_hidden=4, socio_width=2, window=6)
        windows = np.zeros((3, 6))
        windows[1, 2] = bad
        with pytest.raises(NumericalError, match="^non-finite load window$"):
            forward(model, windows, np.zeros((3, 2)))


class TestDataset:
    def _community(self, n=4, days=4, seed=0):
        rng = np.random.default_rng(seed)
        return community_of([
            household(f"h{i}", load=rng.uniform(0.1, 2.0, size=days * 24))
            for i in range(n)
        ])

    def test_shapes_and_targets(self):
        c = self._community()
        data = make_dataset(c, window=24, stride=24)
        # 4 days = 96 hours -> windows start at 0, 24, 48 (72 would need hour 96).
        assert data.windows.shape == (3, 4, 24)
        assert data.targets.shape == (3, 4)
        assert data.socio.shape == (4, 7)
        # Target is the z-scored hour immediately after each window.
        series = np.stack([h.load for h in c.households])
        z = (series - series.mean(axis=1, keepdims=True)) / series.std(
            axis=1, keepdims=True
        )
        np.testing.assert_allclose(data.windows[1], z[:, 24:48], atol=1e-12)
        np.testing.assert_allclose(data.targets[1], z[:, 48], atol=1e-12)

    def test_z_scoring_per_household(self):
        c = self._community(seed=1)
        data = make_dataset(c, window=24, stride=1)
        # Stride 1 covers the timeline: first-window hours plus every target
        # reconstruct each household's full normalized series.
        rebuilt = np.concatenate([data.windows[0], data.targets.T], axis=1)
        np.testing.assert_allclose(rebuilt.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(rebuilt.std(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize(("days", "window", "stride"), [
        (4, 0, 24), (4, 24, 0), (4, 24, -1), (1, 24, 24), (4, 96, 1)])
    def test_rejects_a_shape_that_leaves_no_sample(self, days, window, stride):
        with pytest.raises(InvalidSpecError, match=f"window {window} and stride {stride}"):
            make_dataset(self._community(days=days), window=window, stride=stride)

    def test_split_is_chronological(self):
        c = self._community(days=10, seed=2)
        data = make_dataset(c, window=24, stride=12)
        train_set, val, test = split_dataset(data, (0.7, 0.2, 0.1))
        k = data.windows.shape[0]
        assert (train_set.windows.shape[0] + val.windows.shape[0]
                + test.windows.shape[0]) == k
        np.testing.assert_array_equal(
            np.concatenate([train_set.windows, val.windows, test.windows]),
            data.windows,
        )

    def test_split_rejects_tiny_sets(self):
        c = self._community(days=2)
        data = make_dataset(c, window=24, stride=24)  # 1 sample
        with pytest.raises(InvalidSpecError):
            split_dataset(data, (0.7, 0.2, 0.1))


class TestHyper:
    @pytest.mark.parametrize("kwargs", [
        {"epochs": -1}, {"batch_size": 0}, {"learning_rate": -1e-3},
        {"learning_rate": float("nan")}, {"rmsprop_decay": 1.0}, {"rmsprop_decay": -0.1},
        {"rmsprop_eps": -1e-8}, {"rmsprop_eps": float("inf")},
        {"split_ratios": (0.9, 0.9, 0.9)}, {"split_ratios": (0.7, 0.3, 0.0)},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidSpecError, match=next(iter(kwargs))):
            Hyper(**kwargs)


class TestBuildModel:
    @pytest.mark.parametrize("kwargs", [
        {"hidden_size": 0}, {"head_count": 0}, {"gcn_hidden": 0}, {"window": 0},
        {"socio_width": -1},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidSpecError, match=next(iter(kwargs))):
            build_model(np.random.default_rng(0), **kwargs)


class TestRmspropStep:
    def test_one_step_by_hand(self):
        hyper = Hyper(learning_rate=0.1, rmsprop_decay=0.5, rmsprop_eps=0.0)
        param, cache = np.array([1.0, 1.0]), np.array([4.0, 0.0])
        rmsprop_step(param, np.array([2.0, -1.0]), cache, hyper)
        # cache = 0.5 * cache + 0.5 * g^2; param -= 0.1 * g / sqrt(cache)
        np.testing.assert_allclose(cache, [4.0, 0.5])
        np.testing.assert_allclose(param, [0.9, 1.0 + 0.1 / np.sqrt(0.5)])

    def test_non_finite_gradient_leaves_state_untouched(self):
        param, cache = np.ones(2), np.ones(2)
        with pytest.raises(NumericalError):
            rmsprop_step(param, np.array([np.nan, 0.0]), cache, Hyper())
        np.testing.assert_array_equal(param, np.ones(2))
        np.testing.assert_array_equal(cache, np.ones(2))


class TestTraining:
    def _setup(self, n=3, days=6, seed=0, **model_kw):
        rng = np.random.default_rng(seed)
        c = community_of([
            household(f"h{i}", load=rng.uniform(0.1, 2.0, size=days * 24))
            for i in range(n)
        ])
        data = make_dataset(c, window=24, stride=12)
        model = build_model(np.random.default_rng(seed), hidden_size=4,
                            head_count=2, gcn_hidden=4, socio_width=7,
                            **model_kw)
        return model, data

    def test_zero_learning_rate_keeps_val_constant(self):
        model, data = self._setup()
        hyper = Hyper(learning_rate=0.0, epochs=3, batch_size=4)
        result = train(model, data, hyper)
        for v in result.val_mse:
            assert v == pytest.approx(result.initial_val_mse, rel=1e-12)

    def test_loss_decreases_on_small_problem(self):
        # Sinusoidal daily loads: real temporal structure the network can learn
        # (uniform noise would leave nothing to fit).
        rng = np.random.default_rng(1)
        hours = np.arange(6 * 24)
        hs = []
        for i in range(3):
            vals = 1.5 + np.sin(2 * np.pi * hours / 24 + i)
            vals += 0.05 * rng.normal(size=hours.size)
            hs.append(household(f"h{i}", load=np.maximum(vals, 0.0)))
        data = make_dataset(community_of(hs), window=24, stride=12)
        model = build_model(np.random.default_rng(1), hidden_size=4, head_count=2,
                            gcn_hidden=4, socio_width=7)
        result = train(model, data, Hyper(learning_rate=3e-3, epochs=100, batch_size=8))
        assert result.train_mse[-1] < 0.5 * result.train_mse[0]

    def test_training_is_deterministic(self):
        model1, data1 = self._setup(seed=2)
        model2, data2 = self._setup(seed=2)
        r1 = train(model1, data1, Hyper(epochs=3, batch_size=4))
        r2 = train(model2, data2, Hyper(epochs=3, batch_size=4))
        assert r1.train_mse == r2.train_mse
        assert r1.val_mse == r2.val_mse
        np.testing.assert_array_equal(r1.similarity, r2.similarity)

    def test_similarity_invariants_tracked(self):
        model, data = self._setup(seed=3)
        result = train(model, data, Hyper(epochs=2, batch_size=4))
        assert result.max_row_sum_dev < 1e-9
        lo, hi = result.similarity_range
        assert 0.0 <= lo <= hi <= 1.0
        np.testing.assert_allclose(result.similarity.sum(axis=1), 1.0, atol=1e-9)

    def test_similarity_range_reports_the_entries_seen(self):
        model, data = self._setup(seed=6)
        lo, hi = train(model, data, Hyper(epochs=1, batch_size=4)).similarity_range
        assert 0.0 < lo <= hi < 1.0

    def test_training_and_evaluation_build_no_tensors(self, monkeypatch):
        model, data = self._setup(seed=4)
        _, val_set, _ = split_dataset(data, Hyper().split_ratios)
        expected_mse = float(np.mean([
            mse_loss(model, val_set.windows[i], val_set.targets[i], data.socio)[0]
            for i in range(val_set.windows.shape[0])]))
        _, expected_similarity, _ = forward(model, data.windows[-1], data.socio)
        built = []
        init = Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            built.append(tensor)
            init(tensor, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        assert forecaster._eval_mse(model, val_set) == pytest.approx(expected_mse, rel=1e-12)
        np.testing.assert_array_equal(similarity_matrix(model, data), expected_similarity)
        train(model, data, Hyper(epochs=1, batch_size=4))
        grad_check(model, data.windows[0], data.targets[0], data.socio)
        assert built == []

    def test_worker_count_does_not_change_a_bit(self, monkeypatch):
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(forecaster, "WORKERS", workers)
                model, data = self._setup(days=8, seed=5)
                _, val_set, _ = split_dataset(data, Hyper().split_ratios)
                initial = forecaster._eval_mse(model, val_set)
                result = train(model, data, Hyper(epochs=2, batch_size=4))
                results.append((initial, result.train_mse, result.val_mse,
                                result.similarity.tobytes(), _parameter_digest(model)))
        finally:
            sys.setswitchinterval(interval)
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_the_caller_and_the_pool_share_the_samples(self, monkeypatch):
        monkeypatch.setattr(forecaster, "WORKERS", 2)
        threads = []
        original = forecaster.forward

        def recording_forward(*args):
            threads.append(threading.current_thread())
            return original(*args)

        monkeypatch.setattr(forecaster, "forward", recording_forward)
        model, data = self._setup()
        train(model, data, Hyper(epochs=1, batch_size=4))
        # 2 validation samples, minibatches of 4 and 3, 2 validation samples:
        # the caller runs samples 0 and 2 of each, a pool thread the others.
        caller = threading.main_thread()
        assert threads.count(caller) == 1 + 2 + 2 + 1
        assert len(threads) == 11

    @pytest.mark.parametrize("bad", [0, 2])  # run by the caller, by a pool thread
    def test_a_sample_error_surfaces_and_the_pool_is_joined(self, monkeypatch, bad):
        monkeypatch.setattr(forecaster, "WORKERS", 3)
        model, data = self._setup()
        data.windows[bad, 1, 5] = np.nan  # a sample of the first minibatch
        before = set(threading.enumerate())
        with pytest.raises(NumericalError, match="^non-finite load window$"):
            train(model, data, Hyper(epochs=1, batch_size=4))
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("env, expected", [
        ({}, 1),  # BLAS left at its default uses every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"MKL_NUM_THREADS": "3"}, 1),
        ({"OMP_NUM_THREADS": "2,1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "0"}, 4),
    ])
    def test_sample_threads_leave_blas_its_cpus(self, monkeypatch, env, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert forecaster._sample_threads() == expected

    def test_forward_validates_window_shape(self):
        model, data = self._setup()
        with pytest.raises(ShapeError):
            forward(model, data.windows[0][:, :10], data.socio)


def test_grad_check_small_model():
    rng = np.random.default_rng(0)
    c = community_of([
        household(f"h{i}", load=rng.uniform(0.1, 2.0, size=48))
        for i in range(3)
    ])
    data = make_dataset(c, window=6, stride=6)
    model = build_model(np.random.default_rng(1), hidden_size=4, head_count=2,
                        gcn_hidden=4, socio_width=7, window=6)
    err = grad_check(model, data.windows[0], data.targets[0], data.socio,
                     epsilon=1e-5)
    assert err < 1e-4


def _parameter_digest(model) -> str:
    digest = hashlib.sha256()
    for _, p in model.parameters():
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def _shapes(m, heads, gcn, socio):
    dk = m // heads
    return [
        ("gru.w_update", (1, m)), ("gru.u_update", (m, m)), ("gru.b_update", (m,)),
        ("gru.w_reset", (1, m)), ("gru.u_reset", (m, m)), ("gru.b_reset", (m,)),
        ("gru.w_cand", (1, m)), ("gru.u_cand", (m, m)), ("gru.b_cand", (m,)),
        ("self_attn.q", (m, m)), ("self_attn.k", (m, m)), ("self_attn.v", (m, m)),
        ("mha.q", (heads, m, dk)), ("mha.k", (heads, m, dk)), ("mha.v", (heads, m, dk)),
        ("mha.out", (heads * dk, m)), ("gcn.0", (m + socio, gcn)), ("gcn.1", (gcn, gcn)),
        ("head.w", (gcn, 1)), ("head.b", (1,)),
    ]


class TestPinnedBytes:
    """The initial parameters and a short training run, pinned to the byte."""

    @pytest.mark.parametrize("kwargs, shapes, sha", [
        ({}, _shapes(32, 4, 32, 7),
         "964369204359400bc0170c71f40110760b6dece5fea8a12db650c1d8acc6e668"),
        (dict(hidden_size=4, head_count=2, gcn_hidden=4, socio_width=2), _shapes(4, 2, 4, 2),
         "0b46736e3aef02c55a31348778fb6226d02bf02402f6407544b01588a23db8c1"),
    ])
    def test_build_model(self, kwargs, shapes, sha):
        model = build_model(np.random.default_rng(0), **kwargs)
        assert [(name, p.shape) for name, p in model.parameters()] == shapes
        assert _parameter_digest(model) == sha

    def test_two_epochs_of_training(self):
        rng = np.random.default_rng(0)
        data = make_dataset(community_of([
            household(f"h{i}", load=rng.uniform(0.1, 2.0, size=6 * 24)) for i in range(3)
        ]), window=24, stride=12)
        model = build_model(np.random.default_rng(0), hidden_size=4, head_count=2,
                            gcn_hidden=4, socio_width=7)
        result = train(model, data, Hyper(epochs=2, batch_size=4))
        assert repr(result.val_mse) == "[1.3099867590495677, 1.3102949068388015]"
        assert (_parameter_digest(model)
                == "35c80596e5c409bada56fffd62a80d5668302012f7f0d0e61a65d401ccf6287c")
