"""Selection pipeline: Laplacian/spectral oracles, k-means vs brute force,
stratified querying, semi-supervised classification, noise injection."""

import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflex.autodiff import Tensor, parameter
from gridflex.errors import (
    DegenerateClusteringError,
    DegenerateSupervisionError,
    DomainError,
    InvalidSpecError,
    UndefinedMetricError,
)
from gridflex.forecaster import Hyper, gcn_layer
from gridflex.selector import (
    SelectionGraph,
    _gcn_epoch,
    check_similarity,
    classify,
    evaluate_accuracy,
    export_selection,
    inject_noise,
    kmeans,
    normalized_laplacian,
    pick_queries,
    run_selection,
    spectral_embed,
    symmetrize,
)
from tests.conftest import community_of, household


def row_normalize(a: np.ndarray) -> np.ndarray:
    return a / a.sum(axis=1, keepdims=True)


def two_block_similarity(sizes, rng, in_w=1.0, out_w=0.05):
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    base = np.where(labels[:, None] == labels[None, :], in_w, out_w)
    base = base * rng.uniform(0.8, 1.2, size=(n, n))
    return row_normalize(base), labels


def reference_classify(graph: SelectionGraph, labeled: dict[str, bool],
                       hyper: Hyper, seed: int = 0, gcn_hidden: int = 32):
    """The classifier as Tensor ops on one-hot features: the reference for the
    fused `classify`."""
    n = len(graph.household_ids)
    idx = {hid: i for i, hid in enumerate(graph.household_ids)}
    labeled_idx = np.array(sorted(idx[h] for h in labeled))
    y = np.zeros(n, dtype=int)
    for hid, accept in labeled.items():
        y[idx[hid]] = int(accept)
    adj = symmetrize(graph.edge_weights)
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
        h1 = gcn_layer(np.eye(n), adj, params[0])
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
        pts = np.concatenate([
            rng.normal(0.0, 0.05, size=(10, 2)),
            rng.normal(5.0, 0.05, size=(8, 2)),
        ])
        labels = kmeans(pts, clusters=2, seed=0)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[-1]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_partition_cost(self, seed):
        rng = np.random.default_rng(40 + seed)
        pts = rng.normal(size=(7, 2))
        labels = kmeans(pts, clusters=2, seed=seed)

        def cost(assign):
            total = 0.0
            for c in (0, 1):
                members = pts[np.array(assign) == c]
                if len(members):
                    total += ((members - members.mean(axis=0)) ** 2).sum()
            return total

        best = min(
            cost(assign)
            for assign in itertools.product((0, 1), repeat=7)
            if len(set(assign)) == 2
        )
        # Lloyd's may hit a local optimum; on these tiny instances it should
        # stay within a small factor of the exhaustive best.
        assert cost(labels) <= best * 1.5 + 1e-9

    def test_deterministic(self):
        pts = np.random.default_rng(5).normal(size=(12, 3))
        np.testing.assert_array_equal(kmeans(pts, seed=9), kmeans(pts, seed=9))

    def test_too_few_points(self):
        with pytest.raises(DegenerateClusteringError):
            kmeans(np.ones((1, 2)), clusters=2)


class TestPickQueries:
    def test_ceiling_arithmetic(self):
        # 50 households, clusters split 30/20: ceil(1.5) + ceil(1.0) = 3.
        hs = [household(f"h{i:02d}") for i in range(50)]
        community = community_of(hs)
        clusters = {h.id: (0 if i < 30 else 1) for i, h in enumerate(hs)}
        picked = pick_queries(community, clusters, fraction=0.05, seed=0)
        assert len(picked) == 3
        assert sum(clusters[p] == 0 for p in picked) == 2
        assert sum(clusters[p] == 1 for p in picked) == 1

    def test_stratified_across_neighborhoods(self):
        hs = [household(f"h{i:02d}", neighborhood_id=f"n{i % 2}") for i in range(40)]
        community = community_of(hs)
        clusters = {h.id: (i // 2) % 2 for i, h in enumerate(hs)}
        # 2 neighborhoods x 2 clusters, 10 each: ceil(0.5) = 1 per stratum.
        picked = pick_queries(community, clusters, fraction=0.05, seed=1)
        assert len(picked) == 4

    def test_deterministic(self):
        hs = [household(f"h{i:02d}") for i in range(20)]
        community = community_of(hs)
        clusters = {h.id: i % 2 for i, h in enumerate(hs)}
        assert pick_queries(community, clusters, seed=3) == pick_queries(
            community, clusters, seed=3
        )


class TestClassify:
    def test_block_similarity_recovered(self):
        rng = np.random.default_rng(6)
        a, labels = two_block_similarity((8, 8), rng)
        ids = tuple(f"h{i:02d}" for i in range(16))
        graph = SelectionGraph(ids, a)
        labeled = {ids[0]: True, ids[1]: True, ids[8]: False, ids[9]: False}
        predicted, probs = classify(graph, labeled, Hyper(epochs=100), seed=0)
        expected = labels == 0
        np.testing.assert_array_equal(predicted, expected)
        assert probs.shape == (16,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_labeled_nodes_keep_labels(self):
        rng = np.random.default_rng(7)
        a, _ = two_block_similarity((5, 5), rng, out_w=0.9)  # weak structure
        ids = tuple(f"h{i}" for i in range(10))
        labeled = {ids[0]: True, ids[5]: False}
        predicted, _ = classify(SelectionGraph(ids, a), labeled,
                                Hyper(epochs=5), seed=0)
        assert predicted[0] == True  # noqa: E712
        assert predicted[5] == False  # noqa: E712

    def test_one_sided_supervision_rejected(self):
        a = row_normalize(np.ones((4, 4)))
        ids = ("a", "b", "c", "d")
        with pytest.raises(DegenerateSupervisionError):
            classify(SelectionGraph(ids, a), {"a": True, "b": True})

    def test_zero_epochs_rejected(self):
        a = row_normalize(np.ones((4, 4)))
        graph = SelectionGraph(("a", "b", "c", "d"), a)
        with pytest.raises(InvalidSpecError):
            classify(graph, {"a": True, "b": False}, Hyper(epochs=0))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), hidden=st.integers(1, 8), epochs=st.integers(1, 30),
           learning_rate=st.sampled_from((3e-4, 1e-2)), seed=st.integers(0, 2**32 - 1))
    def test_fused_matches_autodiff_reference(self, n, hidden, epochs, learning_rate,
                                              seed):
        rng = np.random.default_rng(seed)
        ids = tuple(f"h{i}" for i in range(n))
        graph = SelectionGraph(ids, row_normalize(rng.uniform(0.0, 1.0, (n, n)) + 1e-3))
        chosen = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        answers = [True, False] + list(rng.random(chosen.size - 2) < 0.5)
        labeled = {ids[i]: bool(a) for i, a in zip(chosen, answers)}
        hyper = Hyper(epochs=epochs, learning_rate=learning_rate)
        predicted, probs = classify(graph, labeled, hyper, seed=seed, gcn_hidden=hidden)
        ref_predicted, ref_probs = reference_classify(graph, labeled, hyper, seed=seed,
                                                      gcn_hidden=hidden)
        np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(predicted, ref_predicted)

    def test_epoch_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        n, hidden = 7, 3
        adj = symmetrize(row_normalize(rng.uniform(0.1, 1.0, (n, n))))
        inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
        norm = (adj + np.eye(n)) * inv_sqrt[:, None] * inv_sqrt[None, :]
        weights = [rng.normal(size=(n, hidden)), rng.normal(size=(hidden, 2))]
        labeled_idx = np.array([0, 2, 5])
        targets = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        _, _, grads = _gcn_epoch(norm, *weights, labeled_idx, targets)
        eps = 1e-6
        for w, analytic in zip(weights, grads):
            flat = w.reshape(-1)
            numeric = np.zeros_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = _gcn_epoch(norm, *weights, labeled_idx, targets)[0]
                flat[j] = orig - eps
                down = _gcn_epoch(norm, *weights, labeled_idx, targets)[0]
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


class TestEvaluateAccuracy:
    def test_arithmetic(self):
        truth = {"a": True, "b": False, "c": True, "d": False}
        predicted = {"a": True, "b": True, "c": True, "d": False}
        acc = evaluate_accuracy(predicted, truth, queried=frozenset({"a"}))
        assert acc == pytest.approx(100.0 * 2 / 3)

    def test_all_queried_rejected(self):
        truth = {"a": True}
        with pytest.raises(UndefinedMetricError):
            evaluate_accuracy({"a": True}, truth, queried=frozenset({"a"}))


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
        graph = SelectionGraph(result.household_ids, similarity)
        _, probs = classify(graph, result.true_labels, hyper, seed=2)
        np.testing.assert_array_equal(result.scores, probs)

    def test_degenerate_supervision_scores_all_ones(self):
        community, similarity, truth = self._fixture(seed=3)
        all_accept = dict.fromkeys(truth, True)
        result = run_selection(community, similarity, all_accept, seed=3,
                               hyper=Hyper(epochs=5))
        np.testing.assert_array_equal(result.scores, np.ones(len(community)))
        assert result.predicted.all()

    def test_export_roundtrip(self, tmp_path):
        community, similarity, truth = self._fixture(seed=1)
        result = run_selection(community, similarity, truth, seed=1,
                               hyper=Hyper(epochs=30))
        path = tmp_path / "selection.csv"
        export_selection(result, truth, path)
        with path.open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(community)
        for row in rows:
            i = result.household_ids.index(row["household_id"])
            assert int(row["predicted_label"]) == int(result.predicted[i])
            assert int(row["true_label"]) == int(truth[row["household_id"]])
