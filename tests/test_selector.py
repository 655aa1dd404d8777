"""Selection pipeline: Laplacian/spectral oracles, the split vs brute force,
stratified querying, semi-supervised classification, noise injection."""

import csv
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridflex import harness, selector
from gridflex.autodiff import Tensor, parameter
from gridflex.cli import _write_similarity, main
from gridflex.community import ScenarioConfig, emergency_schedule, save_community
from gridflex.errors import (
    DegenerateClusteringError,
    DegenerateSupervisionError,
    DomainError,
    InvalidSpecError,
    NumericalError,
    ReferentialIntegrityError,
    UndefinedMetricError,
)
from gridflex.forecaster import Hyper
from gridflex.selector import (
    _gcn_epoch,
    check_similarity,
    classify,
    degree_normalized,
    evaluate_accuracy,
    inject_noise,
    kmeans,
    normalized_laplacian,
    pick_queries,
    run_selection,
    spectral_embed,
    symmetrize,
)
from tests import classify_reference
from tests.conftest import community_of, household
from tests.test_forecaster import reference_gcn_layer


def row_normalize(a: np.ndarray) -> np.ndarray:
    return a / a.sum(axis=1, keepdims=True)


def two_block_similarity(sizes, rng, in_w=1.0, out_w=0.05):
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    base = np.where(labels[:, None] == labels[None, :], in_w, out_w)
    base = base * rng.uniform(0.8, 1.2, size=(n, n))
    return row_normalize(base), labels


def planted_selection(seed: int, level: float):
    """(community, similarity, truth) of the planted study's `seed` at noise
    `level` percent."""
    spec = harness.PlantedSpec()
    community = harness.planted_community(spec, seed)
    rng = np.random.default_rng(seed + 10_000)
    days = tuple(sorted(int(d) for d in rng.choice(spec.community.days, size=3,
                                                   replace=False)))
    truth = harness.oracle_truth(community, spec.incentive, spec.reduction_pct, days,
                                 spec.community.days)
    clean = harness.label_similarity(truth, tuple(community.index), seed,
                                     spec.in_weight, spec.out_weight, spec.jitter)
    return community, inject_noise(clean, level, seed=seed + 20_000), truth


def planted_classifier_inputs(seed: int, level: float):
    """What `run_selection` hands `classify` on the planted study's 250
    households at `seed` and noise `level` percent, with the default hyper."""
    community, similarity, truth = planted_selection(seed, level)
    a_sym = symmetrize(similarity)
    clusters = kmeans(spectral_embed(normalized_laplacian(a_sym), k=2)[:, 1])
    rows = pick_queries(community, clusters, fraction=0.10, seed=seed)
    accept = np.array([truth[community.ids[i]] for i in rows])
    return a_sym, rows, accept, Hyper(), seed, 32


@st.composite
def classifier_inputs(draw):
    """A symmetrized random graph of 2 to 60 rows, sorted unique labeled rows
    holding both classes, and the classifier's schedule, seed and width."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_sym = symmetrize(row_normalize(rng.uniform(0.0, 1.0, (n, n)) + 1e-3))
    rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    accept = rng.permutation([True, False] + list(rng.random(rows.size - 2) < 0.5))
    hyper = Hyper(epochs=draw(st.integers(1, 30)),
                  learning_rate=draw(st.sampled_from((3e-4, 1e-2))))
    return a_sym, rows, accept, hyper, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 32))


def reference_classify(adj: np.ndarray, labeled_idx: np.ndarray, accept: np.ndarray,
                       hyper: Hyper, seed: int = 0, gcn_hidden: int = 32):
    """The classifier as Tensor ops on one-hot features: the reference for the
    fused `classify`. `adj` is symmetric; `labeled_idx` is sorted."""
    n = adj.shape[0]
    y = np.zeros(n, dtype=int)
    y[labeled_idx] = accept
    rng = np.random.default_rng(seed)
    params = [parameter(rng, (n, gcn_hidden), n),
              parameter(rng, (gcn_hidden, 2), gcn_hidden)]
    cache = [np.zeros_like(p.data) for p in params]
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
    norm = (adj + np.eye(n)) * inv_sqrt[:, None] * inv_sqrt[None, :]
    targets = np.zeros((labeled_idx.size, 2))
    targets[np.arange(labeled_idx.size), y[labeled_idx]] = 1.0
    for _epoch in range(hyper.epochs):
        for p in params:
            p.grad = None
        h1 = reference_gcn_layer(np.eye(n), adj, params[0])
        probs = (Tensor(norm) @ h1 @ params[1]).softmax(axis=1)
        loss = -(Tensor(targets) * (probs[labeled_idx, :] + 1e-12).log()).sum() * (
            1.0 / labeled_idx.size)
        loss.backward()
        for p, c in zip(params, cache):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            c *= hyper.rmsprop_decay
            c += (1 - hyper.rmsprop_decay) * g * g
            p.data -= hyper.learning_rate * g / (np.sqrt(c) + hyper.rmsprop_eps)
    predicted = probs.data.argmax(axis=1).astype(bool)
    predicted[labeled_idx] = y[labeled_idx].astype(bool)
    return predicted, probs.data[:, 1]


class TestCheckSimilarity:
    def test_accepts_row_stochastic(self):
        a = row_normalize(np.random.default_rng(0).uniform(0.1, 1, (4, 4)))
        np.testing.assert_array_equal(check_similarity(a), a)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            check_similarity(np.ones((2, 3)) / 3)

    def test_rejects_bad_row_sum(self):
        a = np.full((3, 3), 1 / 3)
        a[0, 0] += 1e-3
        with pytest.raises(DomainError):
            check_similarity(a)

    def test_rejects_negative_entries(self):
        a = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(DomainError):
            check_similarity(a)

    def test_rejects_non_finite_entries(self):
        a = np.full((3, 3), 1 / 3)
        a[0, 0] = np.nan
        with pytest.raises(DomainError):
            check_similarity(a)


class TestLaplacian:
    def test_symmetrize(self):
        a = np.array([[0.0, 1.0], [3.0, 0.0]])
        np.testing.assert_array_equal(symmetrize(a),
                                      np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_two_node_hand_case(self):
        # Single edge: degrees are 1, L = I - A = [[1,-1],[-1,1]].
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            normalized_laplacian(a), np.array([[1.0, -1.0], [-1.0, 1.0]])
        )

    def test_triangle_spectrum(self):
        # Complete graph on 3 nodes: eigenvalues 0, 3/2, 3/2.
        a = np.ones((3, 3)) - np.eye(3)
        eigvals = np.linalg.eigvalsh(normalized_laplacian(a))
        np.testing.assert_allclose(sorted(eigvals), [0.0, 1.5, 1.5], atol=1e-12)

    def test_isolated_node_rejected(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        with pytest.raises(DomainError):
            normalized_laplacian(a)

    def test_degree_normalized_is_the_explicit_product(self):
        rng = np.random.default_rng(12)
        a = symmetrize(rng.uniform(0.1, 1.0, (5, 5)))
        deg = a.sum(axis=1)
        d = np.diag(1.0 / np.sqrt(deg))
        np.testing.assert_allclose(degree_normalized(a, deg), d @ a @ d, rtol=1e-14)

    def test_zero_eigenvalue_always_present(self):
        rng = np.random.default_rng(1)
        a = symmetrize(rng.uniform(0.1, 1.0, (6, 6)))
        np.fill_diagonal(a, 0.0)
        eigvals = np.linalg.eigvalsh(normalized_laplacian(a))
        assert abs(eigvals[0]) < 1e-10


class TestSpectralEmbed:
    def test_orthonormal_columns_with_positive_pivots(self):
        rng = np.random.default_rng(2)
        a, _ = two_block_similarity((5, 5), rng)
        lap = normalized_laplacian(symmetrize(a))
        embed = spectral_embed(lap, k=3)
        np.testing.assert_allclose(embed.T @ embed, np.eye(3), atol=1e-10)
        for j in range(3):
            assert embed[np.argmax(np.abs(embed[:, j])), j] > 0

    def test_disconnected_components_separate(self):
        # Exact block-diagonal graph: the 2-dim embedding is constant within
        # each component and distinct across them.
        blocks = [np.ones((3, 3)), np.ones((4, 4))]
        a = np.zeros((7, 7))
        a[:3, :3], a[3:, 3:] = blocks
        np.fill_diagonal(a, 0.0)
        embed = spectral_embed(normalized_laplacian(a), k=2)
        for rows in (embed[:3], embed[3:]):
            np.testing.assert_allclose(rows, np.broadcast_to(rows[0], rows.shape),
                                       atol=1e-8)
        assert np.linalg.norm(embed[0] - embed[-1]) > 0.1

    def test_rejects_bad_k(self):
        lap = normalized_laplacian(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(DomainError):
            spectral_embed(lap, k=0)
        with pytest.raises(DomainError):
            spectral_embed(lap, k=4)


class TestKmeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(0.0, 0.05, size=10), rng.normal(5.0, 0.05, size=8)])
        labels = kmeans(values)
        np.testing.assert_array_equal(labels, np.repeat([0, 1], [10, 8]))

    @pytest.mark.parametrize("extra", range(9))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_partition_cost(self, extra, data):
        """The split's within-cluster sum of squares is the least over every
        two-cluster labeling of n = 2 + extra values."""
        values = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 + extra,
                                              max_size=2 + extra)))
        labels = kmeans(values)

        def cost(assign):
            return sum(((values[assign == c] - values[assign == c].mean()) ** 2).sum()
                       for c in (0, 1))

        best = min(cost(np.array(assign))
                   for assign in itertools.product((0, 1), repeat=values.size)
                   if len(set(assign)) == 2)
        assert labels[0] == 0 and labels.max() == 1
        assert cost(labels) <= best + 1e-12

    def test_deterministic(self):
        """Equal cuts go to the first in sorted order."""
        np.testing.assert_array_equal(kmeans(np.array([0.0, 1.0, 2.0])), [0, 1, 1])
        np.testing.assert_array_equal(kmeans(np.zeros(4)), [0, 1, 1, 1])

    def test_row_0_gets_label_0(self):
        np.testing.assert_array_equal(kmeans(np.array([5.0, 0.0, 0.1, 5.1])), [0, 1, 1, 0])

    def test_too_few_points(self):
        with pytest.raises(DegenerateClusteringError):
            kmeans(np.ones(1))

    @pytest.mark.parametrize(("values", "error"), [
        pytest.param([0.0, math.nan, 1.0], NumericalError, id="nan"),
        pytest.param([0.0, math.inf, 1.0], NumericalError, id="inf"),
        pytest.param(np.ones((4, 2)), DegenerateClusteringError, id="2-d"),
    ])
    def test_rejects_what_is_not_one_finite_column(self, values, error):
        with pytest.raises(error):
            kmeans(np.asarray(values))


class TestPickQueries:
    def test_ceiling_arithmetic(self):
        # 50 households, clusters split 30/20: ceil(1.5) + ceil(1.0) = 3.
        hs = [household(f"h{i:02d}") for i in range(50)]
        community = community_of(hs)
        clusters = np.array([0 if i < 30 else 1 for i in range(50)])
        picked = pick_queries(community, clusters, fraction=0.05, seed=0)
        assert len(picked) == 3
        assert list(picked) == sorted(picked)
        assert sum(clusters[p] == 0 for p in picked) == 2
        assert sum(clusters[p] == 1 for p in picked) == 1

    def test_stratified_across_neighborhoods(self):
        hs = [household(f"h{i:02d}", neighborhood_id=f"n{i % 2}") for i in range(40)]
        community = community_of(hs)
        clusters = np.array([(i // 2) % 2 for i in range(40)])
        # 2 neighborhoods x 2 clusters, 10 each: ceil(0.5) = 1 per stratum.
        picked = pick_queries(community, clusters, fraction=0.05, seed=1)
        assert len(picked) == 4

    def test_deterministic(self):
        hs = [household(f"h{i:02d}") for i in range(20)]
        community = community_of(hs)
        clusters = np.arange(20) % 2
        np.testing.assert_array_equal(pick_queries(community, clusters, seed=3),
                                      pick_queries(community, clusters, seed=3))

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           fraction=st.sampled_from((0.05, 0.1, 0.5, 1.0)), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_drawing_over_ids(self, sizes, fraction, seed):
        # Rows listed out of id order, first grouped by neighborhood and then
        # shuffled so that neighborhoods interleave: each stratum is still
        # drawn over its ids in sorted order, as the id-keyed selector did.
        rng = np.random.default_rng(seed)
        ids = iter(rng.permutation(40))
        hs = [household(f"h{next(ids):02d}", neighborhood_id=f"n{nb}")
              for nb, size in enumerate(sizes) for _ in range(size)]
        cluster_of = dict(zip([h.id for h in hs], rng.integers(0, 2, len(hs))))
        draws = np.random.default_rng(seed)
        expected = []
        for nb_id in sorted({h.neighborhood_id for h in hs}):
            members = [h.id for h in hs if h.neighborhood_id == nb_id]
            for cluster in sorted({cluster_of[m] for m in members}):
                stratum = sorted(m for m in members if cluster_of[m] == cluster)
                count = int(np.ceil(fraction * len(stratum)))
                expected.extend(draws.choice(stratum, size=count, replace=False))
        for rows in (hs, [hs[i] for i in rng.permutation(len(hs))]):
            community = community_of(rows)
            clusters = np.array([cluster_of[h.id] for h in rows])
            picked = pick_queries(community, clusters, fraction=fraction, seed=seed)
            assert sorted(community.index[h] for h in expected) == list(picked)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_rejects_fraction_outside_unit_interval(self, fraction):
        community = community_of([household(f"h{i}") for i in range(4)])
        with pytest.raises(InvalidSpecError):
            pick_queries(community, np.arange(4) % 2, fraction=fraction)


class TestClassify:
    def test_block_similarity_recovered(self):
        rng = np.random.default_rng(6)
        a, labels = two_block_similarity((8, 8), rng)
        predicted, probs = classify(symmetrize(a), np.array([0, 1, 8, 9]),
                                    np.array([True, True, False, False]),
                                    Hyper(epochs=100), seed=0)
        expected = labels == 0
        np.testing.assert_array_equal(predicted, expected)
        assert probs.shape == (16,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_labeled_nodes_keep_labels(self):
        rng = np.random.default_rng(7)
        a, _ = two_block_similarity((5, 5), rng, out_w=0.9)  # weak structure
        predicted, _ = classify(symmetrize(a), np.array([0, 5]), np.array([True, False]),
                                Hyper(epochs=5), seed=0)
        assert predicted[0] == True  # noqa: E712
        assert predicted[5] == False  # noqa: E712

    def test_one_sided_supervision_rejected(self):
        a = row_normalize(np.ones((4, 4)))
        with pytest.raises(DegenerateSupervisionError):
            classify(a, np.array([0, 1]), np.array([True, True]))
        with pytest.raises(DegenerateSupervisionError):
            classify(a, np.array([0, 1]), np.array([False, False]))

    def test_zero_epochs_rejected(self):
        a = row_normalize(np.ones((4, 4)))
        with pytest.raises(InvalidSpecError):
            classify(a, np.array([0, 1]), np.array([True, False]), Hyper(epochs=0))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), hidden=st.integers(1, 8), epochs=st.integers(1, 30),
           learning_rate=st.sampled_from((3e-4, 1e-2)), seed=st.integers(0, 2**32 - 1))
    def test_fused_matches_autodiff_reference(self, n, hidden, epochs, learning_rate,
                                              seed):
        rng = np.random.default_rng(seed)
        a_sym = symmetrize(row_normalize(rng.uniform(0.0, 1.0, (n, n)) + 1e-3))
        chosen = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        accept = rng.permutation([True, False] + list(rng.random(chosen.size - 2) < 0.5))
        hyper = Hyper(epochs=epochs, learning_rate=learning_rate)
        predicted, probs = classify(a_sym, chosen, accept, hyper, seed=seed, gcn_hidden=hidden)
        ref_predicted, ref_probs = reference_classify(a_sym, chosen, accept, hyper, seed=seed,
                                                      gcn_hidden=hidden)
        np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(predicted, ref_predicted)

    @settings(derandomize=True, deadline=None)
    @given(case=classifier_inputs())
    @example(case=(symmetrize(np.full((2, 2), 0.5)), np.array([0, 1]), np.array([True, False]),
                   Hyper(epochs=3, learning_rate=1e-2), 0, 1))
    @example(case=(symmetrize(row_normalize(np.arange(1.0, 10.0).reshape(3, 3))),
                   np.array([0, 2]), np.array([False, True]), Hyper(epochs=30), 1, 32))
    @example(case=planted_classifier_inputs(2, 50.0))
    def test_same_bytes_as_the_full_epoch_reference(self, case):
        """The classifier's predictions and probabilities are the bytes of the
        reference that runs every epoch over all rows. Derandomized, so a
        shape whose BLAS path rounds differently fails on every run."""
        a_sym, rows, accept, hyper, seed, hidden = case
        got = classify(a_sym, rows, accept, hyper, seed=seed, gcn_hidden=hidden)
        expected = classify_reference.classify(a_sym, rows, accept, hyper, seed=seed,
                                               gcn_hidden=hidden)
        for array, reference in zip(got, expected):
            assert array.tobytes() == reference.tobytes()

    def test_epoch_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        n, hidden = 7, 3
        adj = symmetrize(row_normalize(rng.uniform(0.1, 1.0, (n, n))))
        inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
        norm = (adj + np.eye(n)) * inv_sqrt[:, None] * inv_sqrt[None, :]
        weights = [rng.normal(size=(n, hidden)), rng.normal(size=(hidden, 2))]
        labeled_idx = np.array([0, 2, 5])
        targets = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        grads = [np.empty_like(w) for w in weights]
        _gcn_epoch(norm, *weights, labeled_idx, targets, *grads)

        def loss():
            """Mean cross-entropy over the labeled rows."""
            logits = norm @ np.maximum(norm @ weights[0], 0.0) @ weights[1]
            probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            return -(targets * np.log(probs[labeled_idx] + 1e-12)).sum() / labeled_idx.size

        eps = 1e-6
        for w, analytic in zip(weights, grads):
            flat = w.reshape(-1)
            numeric = np.zeros_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = loss()
                flat[j] = orig - eps
                down = loss()
                flat[j] = orig
                numeric[j] = (up - down) / (2 * eps)
            err = np.linalg.norm(analytic.reshape(-1) - numeric) / max(
                np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-6)
            assert err < 1e-7


class TestInjectNoise:
    def test_zero_level_is_copy(self):
        a = row_normalize(np.random.default_rng(8).uniform(0.1, 1, (5, 5)))
        out = inject_noise(a, 0.0, seed=0)
        np.testing.assert_array_equal(out, a)
        assert out is not a

    def test_rows_stay_stochastic(self):
        a = row_normalize(np.random.default_rng(9).uniform(0.1, 1, (6, 6)))
        for level in (10.0, 50.0, 75.0):
            noisy = inject_noise(a, level, seed=1)
            check_similarity(noisy)

    def test_noise_magnitude_scales_with_level(self):
        a = row_normalize(np.random.default_rng(10).uniform(0.1, 1, (8, 8)))
        d25 = np.abs(inject_noise(a, 25.0, seed=2) - a).mean()
        d75 = np.abs(inject_noise(a, 75.0, seed=2) - a).mean()
        assert d75 > d25

    def test_rejects_negative_level(self):
        a = row_normalize(np.ones((3, 3)))
        with pytest.raises(DomainError):
            inject_noise(a, -1.0)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_rejects_a_level_that_is_not_finite(self, level):
        a = row_normalize(np.ones((3, 3)))
        with pytest.raises(DomainError, match="noise level must be finite and >= 0"):
            inject_noise(a, level)


class TestEvaluateAccuracy:
    def test_arithmetic(self):
        truth = np.array([True, False, True, False])
        predicted = np.array([True, True, True, False])
        acc = evaluate_accuracy(predicted, truth, queried_rows=np.array([0]))
        assert acc == pytest.approx(100.0 * 2 / 3)
        assert evaluate_accuracy(predicted, truth, np.array([], dtype=int)) == 75.0

    def test_all_queried_rejected(self):
        truth = np.array([True])
        with pytest.raises(UndefinedMetricError):
            evaluate_accuracy(truth, truth, queried_rows=np.array([0]))


class TestRunSelection:
    def _fixture(self, n=20, seed=0):
        hs = [household(f"h{i:02d}", elasticity=-0.5 if i % 2 == 0 else -0.05)
              for i in range(n)]
        community = community_of(hs)
        truth = {h.id: h.elasticity < -0.2 for h in hs}
        rng = np.random.default_rng(seed)
        y = np.array([truth[h.id] for h in hs])
        base = np.where(y[:, None] == y[None, :], 1.0, 0.1)
        similarity = row_normalize(base * rng.uniform(0.9, 1.1, size=(n, n)))
        return community, similarity, truth

    def test_end_to_end_accuracy_on_separable_instance(self):
        community, similarity, truth = self._fixture()
        # Only two households get queried at this scale, so give the
        # classifier extra epochs to converge from so few labels.
        result = run_selection(community, similarity, truth, seed=0,
                               fraction=0.1, hyper=Hyper(epochs=200))
        assert result.accuracy_pct >= 90.0
        assert set(result.household_ids) == set(truth)
        assert result.queried  # stratified query picked someone
        for hid in result.queried:
            i = result.household_ids.index(hid)
            assert bool(result.predicted[i]) == truth[hid]

    def test_scores_are_the_classifier_probabilities(self):
        community, similarity, truth = self._fixture(seed=2)
        hyper = Hyper(epochs=30)
        result = run_selection(community, similarity, truth, seed=2, fraction=0.1,
                               hyper=hyper)
        rows = np.array(sorted(community.index[h] for h in result.queried))
        accept = np.array([truth[result.household_ids[i]] for i in rows])
        _, probs = classify(symmetrize(similarity), rows, accept, hyper, seed=2)
        np.testing.assert_array_equal(result.scores, probs)

    def test_validates_and_symmetrizes_once(self, monkeypatch):
        community, similarity, truth = self._fixture(seed=4)
        calls = {"check_similarity": 0, "symmetrize": 0}
        for name in calls:
            original = getattr(selector, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(selector, name, counted)
        run_selection(community, similarity, truth, seed=4, fraction=0.1,
                      hyper=Hyper(epochs=5))
        assert calls == {"check_similarity": 1, "symmetrize": 1}

    @pytest.mark.parametrize(("case", "error", "message"), [
        pytest.param("similarity-of-13", DomainError,
                     "similarity is 13 x 13, but the community has 12", id="similarity-of-13"),
        pytest.param("entry-of--1e-13", DomainError, r"similarity entries must lie in \[0, 1\]",
                     id="entry-of--1e-13"),
        pytest.param("truth-strings", DomainError, "truth values must be bool, got <U3",
                     id="truth-strings"),
        pytest.param("3-rows-2-labels", DomainError,
                     r"labeled_rows has shape \(3,\), but accept has \(2,\)", id="3-rows-2-labels"),
        pytest.param("row-12-of-12", DomainError,
                     r"labeled_rows \[ 0 12\] are not rows of the 12 x 12 graph",
                     id="row-12-of-12"),
        pytest.param("float-rows", DomainError,
                     r"labeled_rows \[0.5 3. \] are not rows of the 12 x 12 graph",
                     id="float-rows"),
        pytest.param("accept-ints", DomainError, "accept must be bool, got int64",
                     id="accept-ints"),
        pytest.param("repeated-row", DomainError,
                     r"labeled_rows \[0 0\] are not strictly increasing", id="repeated-row"),
        pytest.param("rows-out-of-order", DomainError,
                     r"labeled_rows \[3 1\] are not strictly increasing", id="rows-out-of-order"),
        pytest.param("id-missing-from-truth", InvalidSpecError,
                     r"truth has no value for ids \['h03'\]", id="id-missing-from-truth"),
    ])
    def test_rejects_inputs_that_do_not_fit(self, case, error, message):
        """Each input is checked where it enters, at 12 households, before any
        work: none may pass silently or end in a bare numpy or dict error."""
        community, similarity, truth = self._fixture(n=12)
        negative = similarity.copy()  # row 0 still sums to 1
        negative[0, 2] += negative[0, 1] + 1e-13
        negative[0, 1] = -1e-13
        calls = {
            "similarity-of-13": lambda: run_selection(community, self._fixture(n=13)[1], truth),
            "entry-of--1e-13": lambda: run_selection(community, negative, truth),
            "truth-strings": lambda: run_selection(
                community, similarity, {hid: "yes" if y else "no" for hid, y in truth.items()}),
            "3-rows-2-labels": lambda: classify(symmetrize(similarity), np.array([0, 1, 2]),
                                                np.array([True, False])),
            "row-12-of-12": lambda: classify(symmetrize(similarity), np.array([0, 12]),
                                             np.array([True, False])),
            "float-rows": lambda: classify(symmetrize(similarity), np.array([0.5, 3.0]),
                                           np.array([True, False])),
            "accept-ints": lambda: classify(symmetrize(similarity), np.array([0, 1]),
                                            np.array([1, 0])),
            "repeated-row": lambda: classify(symmetrize(similarity), np.array([0, 0]),
                                             np.array([True, False])),
            "rows-out-of-order": lambda: classify(symmetrize(similarity), np.array([3, 1]),
                                                  np.array([True, False])),
            "id-missing-from-truth": lambda: harness.label_similarity(
                {hid: y for hid, y in truth.items() if hid != "h03"}, community.ids, seed=0),
        }
        with pytest.raises(error, match=message):
            calls[case]()

    def test_truth_must_match_the_community(self):
        community, similarity, truth = self._fixture()
        missing = dict(list(truth.items())[1:])
        with pytest.raises(ReferentialIntegrityError):
            run_selection(community, similarity, missing)
        with pytest.raises(ReferentialIntegrityError):
            run_selection(community, similarity, {**truth, "stranger": True})

    # sha256 of (clusters as int64, sorted queried ids joined by newlines,
    # predicted as bool) for planted seeds 2 and 3 at noise 0% and 50%, as
    # the id-keyed selector computed them.
    GOLDEN = {
        (2, 0.0): "df3f3c0d5ef75751d1ef4f63c551667c80d20e84db4a95cdaee7dde3d8f39289",
        (2, 50.0): "3c81de312eb5ff87b7ae286977307329c6151548c3f2a72dbff91ea5c6d73768",
        (3, 0.0): "2e68997bf09331ac957e71d1f38bac461965401c54d746e2e5e7e7b2eff0673e",
        (3, 50.0): "563362614af599dcecccd4fa7e10f2062a148b4c4c60092217789a487ef12078",
    }
    # sha256 of `scores.tobytes()` for the same selections: the classifier's
    # accept probabilities, by which the sweeps and the offer pool rank.
    SCORES_GOLDEN = {
        (2, 0.0): "d47aae1dcfd2211f19592f92a16b7ecbf25feac76e2d72fe0278f9e74e2b3ee0",
        (2, 50.0): "1d3613583b51bf1c76aff88cfe48bc65eedfc4f2bbcfdcc0747d872e4b1985d3",
        (3, 0.0): "b9704e8765b7fb050b528ca49768c81680775e24eb4c54a6132b55874e40f77d",
        (3, 50.0): "46a7cb627e671aa48b8568dbf32f8b57dec4bcce6b3518fab318877f20842f90",
    }

    @pytest.mark.parametrize("seed", [2, 3])
    def test_planted_selections_match_golden_digests(self, seed):
        for level in (0.0, 50.0):
            community, noisy, truth = planted_selection(seed, level)
            result = run_selection(community, noisy, truth, seed=seed, fraction=0.10)
            digest = hashlib.sha256()
            digest.update(np.asarray(result.clusters, dtype=np.int64).tobytes())
            digest.update("\n".join(sorted(result.queried)).encode())
            digest.update(np.asarray(result.predicted, dtype=bool).tobytes())
            assert digest.hexdigest() == self.GOLDEN[seed, level], level
            scores = hashlib.sha256(result.scores.tobytes()).hexdigest()
            assert scores == self.SCORES_GOLDEN[seed, level], level

    def test_degenerate_supervision_scores_all_ones(self):
        community, similarity, truth = self._fixture(seed=3)
        all_accept = dict.fromkeys(truth, True)
        result = run_selection(community, similarity, all_accept, seed=3,
                               hyper=Hyper(epochs=5))
        np.testing.assert_array_equal(result.scores, np.ones(len(community)))
        assert result.predicted.all()

    def test_export_roundtrip(self, tmp_path):
        """`gridflex select` writes one selection.csv row per household, as
        run_selection labels it on the same population, matrix and oracle."""
        community, similarity, _ = self._fixture(seed=1)
        save_community(community, tmp_path / "households.csv", tmp_path / "loads.csv")
        _write_similarity(tmp_path / "sim.csv", community.ids, similarity)
        assert main(["select", "--households-csv", str(tmp_path / "households.csv"),
                     "--loads-csv", str(tmp_path / "loads.csv"),
                     "--similarity-csv", str(tmp_path / "sim.csv"), "--days", "30",
                     "--incentive", "5", "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 0
        config = ScenarioConfig(cycle_days=30, rng_seed=1, default_incentive=5.0,
                                target_reduction_pct=10.0)
        days = emergency_schedule(config, np.random.default_rng(1))
        truth = harness.oracle_truth(community, 5.0, 10.0, days, 30)
        result = run_selection(community, similarity, truth, seed=1)
        with (tmp_path / "out" / "selection.csv").open(newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert [row["household_id"] for row in rows] == list(result.household_ids)
        assert len(set(truth.values())) == 2
        for i, row in enumerate(rows):
            hid = row["household_id"]
            assert int(row["cluster"]) == result.clusters[i]
            assert int(row["queried"]) == (hid in result.queried)
            assert int(row["true_label"]) == truth[hid]
            assert int(row["predicted_label"]) == result.predicted[i]
