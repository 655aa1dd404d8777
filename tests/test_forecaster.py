"""Forecasting network: component oracles, invariants, training behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflex import forecaster
from gridflex.autodiff import Tensor
from gridflex.errors import DomainError, InvalidSpecError, NumericalError, ShapeError
from gridflex.forecaster import (
    EncoderParams,
    Hyper,
    build_model,
    concat_features,
    forward,
    gcn_layer,
    grad_check,
    gru_forward,
    inter_series_attention,
    make_dataset,
    mse_loss,
    rmsprop_step,
    self_attention,
    similarity_matrix,
    split_dataset,
    train,
)
from tests.conftest import community_of, household


def household_embedding(params: EncoderParams, window: np.ndarray) -> np.ndarray:
    """Final-step embedding of one household's load window (length s)."""
    seq = np.asarray(window, dtype=float).reshape(-1, 1)
    out = self_attention(params, gru_forward(params, seq))
    return out.data[-1]


def tiny_encoder(rng: np.random.Generator, m: int = 3) -> EncoderParams:
    def p(shape):
        return Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)

    return EncoderParams(
        hidden_size=m,
        w_update=p((1, m)), u_update=p((m, m)), b_update=p((m,)),
        w_reset=p((1, m)), u_reset=p((m, m)), b_reset=p((m,)),
        w_cand=p((1, m)), u_cand=p((m, m)), b_cand=p((m,)),
        attn_q=p((m, m)), attn_k=p((m, m)), attn_v=p((m, m)),
    )


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_gru_forward(params: EncoderParams, sequence) -> Tensor:
    """Step-by-step GRU built from Tensor ops: the reference for the fused op."""
    x = Tensor._lift(sequence)
    single = x.data.ndim == 2
    if single:
        x = x.reshape(1, *x.shape)
    n, s, _ = x.data.shape
    h = Tensor(np.zeros((n, params.hidden_size)))
    states = []
    for t in range(s):
        x_t = x[:, t, :]
        z = (x_t @ params.w_update + h @ params.u_update + params.b_update).sigmoid()
        r = (x_t @ params.w_reset + h @ params.u_reset + params.b_reset).sigmoid()
        cand = (x_t @ params.w_cand + (r * h) @ params.u_cand + params.b_cand).tanh()
        h = z * h + (1.0 - z) * cand
        states.append(h)
    out = Tensor.stack(states, axis=1)
    return out[0] if single else out


def gru_params(enc: EncoderParams) -> list[Tensor]:
    return [enc.w_update, enc.u_update, enc.b_update, enc.w_reset, enc.u_reset,
            enc.b_reset, enc.w_cand, enc.u_cand, enc.b_cand]


def gru_grads(gru, enc: EncoderParams, x_data: np.ndarray, upstream: np.ndarray):
    """Output and the gradients of sum(output * upstream) w.r.t. the nine GRU
    parameters and the input."""
    for p in gru_params(enc):
        p.grad = None
    x = Tensor(x_data.copy(), requires_grad=True)
    out = gru(enc, x)
    (out * upstream).sum().backward()
    return out.data, [p.grad for p in gru_params(enc)] + [x.grad]


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


class TestGru:
    def test_single_step_matches_hand_computation(self):
        enc = tiny_encoder(np.random.default_rng(0))
        x = np.array([[0.7]])
        out = gru_forward(enc, x)
        # Independent numpy recomputation of one update from zero state.
        z = sigmoid(x @ enc.w_update.data + enc.b_update.data)
        r = sigmoid(x @ enc.w_reset.data + enc.b_reset.data)
        cand = np.tanh(x @ enc.w_cand.data + enc.b_cand.data)
        expected = z * 0.0 + (1.0 - z) * cand
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_two_step_recurrence(self):
        enc = tiny_encoder(np.random.default_rng(1))
        xs = np.array([[0.3], [-0.9]])
        out = gru_forward(enc, xs)
        h = np.zeros(enc.hidden_size)
        for x in xs:
            z = sigmoid(x @ enc.w_update.data + h @ enc.u_update.data + enc.b_update.data)
            r = sigmoid(x @ enc.w_reset.data + h @ enc.u_reset.data + enc.b_reset.data)
            cand = np.tanh(
                x @ enc.w_cand.data + (r * h) @ enc.u_cand.data + enc.b_cand.data
            )
            h = z * h + (1 - z) * cand
        np.testing.assert_allclose(out.data[-1], h, atol=1e-12)

    def test_batched_equals_per_series(self):
        enc = tiny_encoder(np.random.default_rng(2))
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(4, 6, 1))
        batched = gru_forward(enc, batch)
        for i in range(4):
            single = gru_forward(enc, batch[i])
            np.testing.assert_allclose(batched.data[i], single.data, atol=1e-12)

    def test_zero_input_zero_bias_stays_zero(self):
        enc = tiny_encoder(np.random.default_rng(4))
        for b in (enc.b_update, enc.b_reset, enc.b_cand):
            b.data[:] = 0.0
        out = gru_forward(enc, np.zeros((5, 1)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_rejects_bad_width(self):
        enc = tiny_encoder(np.random.default_rng(5))
        with pytest.raises(ShapeError):
            gru_forward(enc, np.zeros((4, 2)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), s=st.integers(1, 10), m=st.integers(1, 6),
           batched=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_fused_matches_step_by_step_reference(self, n, s, m, batched, seed):
        rng = np.random.default_rng(seed)
        enc = tiny_encoder(rng, m)
        shape = (n, s, 1) if batched else (s, 1)
        x_data = rng.normal(size=shape)
        upstream = rng.normal(size=shape[:-1] + (m,))
        out, grads = gru_grads(gru_forward, enc, x_data, upstream)
        ref_out, ref_grads = gru_grads(reference_gru_forward, enc, x_data, upstream)
        assert out.shape == ref_out.shape
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        for grad, ref in zip(grads, ref_grads):
            assert grad.shape == ref.shape
            assert relative_error(grad, ref) <= 1e-10

    def test_fused_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        enc = tiny_encoder(rng, m=3)
        x_data = rng.normal(size=(2, 5, 1))
        upstream = rng.normal(size=(2, 5, 3))
        _, grads = gru_grads(gru_forward, enc, x_data, upstream)
        eps = 1e-6

        def loss(x):
            return float((gru_forward(enc, x).data * upstream).sum())

        for target, analytic in zip([p.data for p in gru_params(enc)] + [x_data], grads):
            flat = target.reshape(-1)
            numeric = np.zeros_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = loss(x_data)
                flat[j] = orig - eps
                down = loss(x_data)
                flat[j] = orig
                numeric[j] = (up - down) / (2 * eps)
            err = np.linalg.norm(analytic.reshape(-1) - numeric) / max(
                np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-6)
            assert err < 1e-7

    def test_fused_op_builds_one_node(self):
        enc = tiny_encoder(np.random.default_rng(13))
        out = gru_forward(enc, np.ones((3, 4, 1)))
        assert set(map(id, out._parents)) == set(map(id, gru_params(enc)))


class TestSelfAttention:
    def test_single_timestep_is_value_projection(self):
        # With one timestep the softmax weight is exactly 1, so the output is
        # just the value projection of the hidden state.
        enc = tiny_encoder(np.random.default_rng(6))
        h = np.random.default_rng(7).normal(size=(1, enc.hidden_size))
        out = self_attention(enc, Tensor(h))
        np.testing.assert_allclose(out.data, h @ enc.attn_v.data, atol=1e-12)

    def test_hand_two_timestep_case(self):
        enc = tiny_encoder(np.random.default_rng(8))
        h = np.random.default_rng(9).normal(size=(2, enc.hidden_size))
        out = self_attention(enc, Tensor(h))
        q, k, v = h @ enc.attn_q.data, h @ enc.attn_k.data, h @ enc.attn_v.data
        scores = q @ k.T / np.sqrt(enc.hidden_size)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data, weights @ v, atol=1e-12)

    def test_embedding_uses_final_step(self):
        enc = tiny_encoder(np.random.default_rng(10))
        window = np.random.default_rng(11).normal(size=8)
        emb = household_embedding(enc, window)
        full = self_attention(enc, gru_forward(enc, window.reshape(-1, 1)))
        np.testing.assert_allclose(emb, full.data[-1], atol=1e-12)


class TestInterSeriesAttention:
    def _model(self, seed=0, n_heads=2, m=4):
        return build_model(np.random.default_rng(seed), hidden_size=m,
                           head_count=n_heads, gcn_hidden=4, socio_width=2,
                           window=6)

    def test_row_stochastic_in_unit_interval(self):
        model = self._model()
        e = np.random.default_rng(1).normal(size=(5, 4))
        similarity, projected = inter_series_attention(model.attention, e)
        np.testing.assert_allclose(similarity.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(similarity.data >= 0) and np.all(similarity.data <= 1)
        assert projected.shape == (5, 4)

    def test_single_household_gives_identity(self):
        model = self._model()
        e = np.random.default_rng(2).normal(size=(1, 4))
        similarity, _ = inter_series_attention(model.attention, e)
        np.testing.assert_allclose(similarity.data, [[1.0]], atol=1e-15)

    def test_permutation_equivariance(self):
        model = self._model(seed=3)
        e = np.random.default_rng(4).normal(size=(6, 4))
        perm = np.array([3, 0, 5, 1, 4, 2])
        s_orig, _ = inter_series_attention(model.attention, e)
        s_perm, _ = inter_series_attention(model.attention, e[perm])
        np.testing.assert_allclose(
            s_perm.data, s_orig.data[np.ix_(perm, perm)], atol=1e-12
        )

    def test_head_average_matches_manual(self):
        model = self._model(seed=5)
        att = model.attention
        e = np.random.default_rng(6).normal(size=(4, 4))
        similarity, _ = inter_series_attention(att, e)
        per_head = []
        for head in range(att.head_count):
            q = e @ att.w_q.data[head]
            k = e @ att.w_k.data[head]
            scores = q @ k.T / np.sqrt(e.shape[1])
            ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
            per_head.append(ex / ex.sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(similarity.data, np.mean(per_head, axis=0),
                                   atol=1e-12)


class TestGcnLayer:
    def test_three_node_path_oracle(self):
        # Path graph 0-1-2 with unit weights; compare to direct numpy evaluation
        # of ReLU(D^{-1/2} (A+I) D^{-1/2} X W).
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        x = np.random.default_rng(0).normal(size=(3, 2))
        w = Tensor(np.random.default_rng(1).normal(size=(2, 2)), requires_grad=True)
        out = gcn_layer(x, a, w)
        a_hat = a + np.eye(3)
        d = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        expected = np.maximum(d @ a_hat @ d @ x @ w.data, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rejects_negative_weights(self):
        with pytest.raises(DomainError):
            gcn_layer(np.ones((2, 2)), np.array([[0.0, -0.1], [0.1, 0.0]]),
                      Tensor(np.ones((2, 2))))

    def test_concat_features_widths(self):
        out = concat_features(np.ones((3, 4)), np.zeros((3, 2)))
        assert out.shape == (3, 6)
        with pytest.raises(ShapeError):
            concat_features(np.ones((3, 4)), np.zeros((2, 2)))


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

    def test_evaluation_builds_no_graph(self, monkeypatch):
        model, data = self._setup(seed=4)
        params = [p for _, p in model.parameters()]
        _, val_set, _ = split_dataset(data, Hyper().split_ratios)
        expected_mse = float(np.mean([
            float(mse_loss(model, val_set.windows[i], val_set.targets[i],
                           data.socio)[0].data)
            for i in range(val_set.windows.shape[0])]))
        _, expected_similarity = forward(model, data.windows[-1], data.socio)
        for p in params:
            p.grad = None
        outputs = []
        real_forward = forecaster.forward

        def recording_forward(*args):
            predictions, similarity = real_forward(*args)
            outputs.extend([predictions, similarity])
            return predictions, similarity

        monkeypatch.setattr(forecaster, "forward", recording_forward)
        assert forecaster._eval_mse(model, val_set) == pytest.approx(expected_mse, rel=1e-12)
        np.testing.assert_array_equal(similarity_matrix(model, data),
                                      expected_similarity.data)
        assert outputs and all(not t.requires_grad and t._backward is None
                               for t in outputs)
        assert all(p.grad is None and p.requires_grad for p in params)

    def test_evaluation_restores_requires_grad_when_forward_raises(self, monkeypatch):
        model, data = self._setup(seed=5)
        params = [p for _, p in model.parameters()]
        seen = []

        def failing_forward(*args):
            seen.append([p.requires_grad for p in params])
            raise NumericalError("forward failed")

        monkeypatch.setattr(forecaster, "forward", failing_forward)
        for evaluate in (forecaster._eval_mse, similarity_matrix):
            with pytest.raises(NumericalError):
                evaluate(model, data)
        assert seen == [[False] * len(params)] * 2
        assert all(p.requires_grad and p.grad is None for p in params)

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
