"""Tests for the similarity feature-matrix builder."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.features.extractors import FEATURE_TYPES
from repro.features.similarity import SimilarityFeatureBuilder
from repro.hashing.compare import compare_digests


@pytest.fixture(scope="module")
def fitted_builder(tiny_features):
    builder = SimilarityFeatureBuilder()
    builder.fit(tiny_features)
    return builder


def test_matrix_shape_class_max(tiny_features, fitted_builder):
    matrix = fitted_builder.transform(tiny_features[:20])
    n_classes = len(fitted_builder.classes_)
    assert matrix.X.shape == (20, n_classes * len(FEATURE_TYPES))
    assert len(matrix.feature_names) == matrix.X.shape[1]
    assert set(matrix.feature_groups) == set(FEATURE_TYPES)


def test_scores_are_in_0_100(tiny_features, fitted_builder):
    matrix = fitted_builder.transform(tiny_features)
    assert matrix.X.min() >= 0.0
    assert matrix.X.max() <= 100.0


def test_reduceat_aggregation_matches_per_class_loop(tiny_features,
                                                     fitted_builder):
    """The vectorised per-class max (one reduceat over class-grouped
    anchors) must equal the straightforward per-class column loop."""

    rng = np.random.default_rng(11)
    scores = rng.uniform(0.0, 100.0,
                         size=(7, len(fitted_builder.anchor_classes_)))
    expected = np.zeros((7, len(fitted_builder.classes_)))
    for class_idx in range(len(fitted_builder.classes_)):
        members = np.flatnonzero(
            fitted_builder._anchor_class_idx == class_idx)
        expected[:, class_idx] = scores[:, members].max(axis=1)
    assert np.array_equal(fitted_builder._aggregate(scores), expected)


def test_own_class_column_scores_highest_for_most_samples(tiny_features, fitted_builder):
    matrix = fitted_builder.transform(tiny_features)
    classes = fitted_builder.classes_
    groups = matrix.feature_groups["ssdeep-symbols"]
    block = matrix.X[:, groups]
    correct = 0
    for row, features in zip(block, tiny_features):
        best_class = classes[int(np.argmax(row))]
        correct += int(best_class == features.class_name)
    assert correct / len(tiny_features) > 0.8


def test_self_similarity_excluded_when_requested(tiny_features):
    builder = SimilarityFeatureBuilder()
    with_self = builder.fit(tiny_features).transform(tiny_features, exclude_self=False)
    without_self = builder.transform(tiny_features, exclude_self=True)
    # Excluding self matches can only lower (or keep) the scores.
    assert np.all(without_self.X <= with_self.X + 1e-9)
    assert (without_self.X < with_self.X).any()


def test_matrix_matches_pairwise_compare_for_class_max(tiny_features):
    """The vectorised candidate/batch path must agree with naive pairwise
    ssdeep comparison."""

    anchors = tiny_features[::3]
    queries = tiny_features[1::5][:10]
    builder = SimilarityFeatureBuilder(["ssdeep-symbols"]).fit(anchors)
    matrix = builder.transform(queries)
    classes = builder.classes_
    for qi, query in enumerate(queries):
        for ci, class_name in enumerate(classes):
            expected = 0
            for anchor in anchors:
                if anchor.class_name != class_name:
                    continue
                score = compare_digests(query.digest("ssdeep-symbols"),
                                        anchor.digest("ssdeep-symbols"))
                expected = max(expected, score)
            assert matrix.X[qi, ci] == pytest.approx(expected), \
                f"mismatch for query {query.sample_id} vs class {class_name}"


def test_fitted_builder_exposes_its_index(fitted_builder):
    from repro.index import SimilarityIndex

    assert isinstance(fitted_builder.index_, SimilarityIndex)
    assert fitted_builder.index_.n_members == len(fitted_builder.anchor_ids_)
    assert list(fitted_builder.index_.class_names) == \
        fitted_builder.anchor_classes_


def test_fit_from_index_matches_direct_fit(tiny_features):
    direct = SimilarityFeatureBuilder(["ssdeep-file"]).fit(tiny_features)
    adopted = SimilarityFeatureBuilder(["ssdeep-file"])
    adopted.fit_from_index(direct.index_)
    queries = tiny_features[:8]
    assert np.array_equal(adopted.transform(queries).X,
                          direct.transform(queries).X)


def test_fit_from_index_validates_compatibility(tiny_features):
    from repro.index import SimilarityIndex

    builder = SimilarityFeatureBuilder(["ssdeep-file"])
    with pytest.raises(ValidationError, match="empty"):
        builder.fit_from_index(SimilarityIndex(["ssdeep-file"]))
    wrong_type = SimilarityIndex(["ssdeep-strings"])
    wrong_type.add("a", {}, class_name="X")
    with pytest.raises(ValidationError, match="feature types"):
        builder.fit_from_index(wrong_type)
    unlabelled = SimilarityIndex(["ssdeep-file"])
    unlabelled.add("a", {})
    with pytest.raises(ValidationError, match="class label"):
        builder.fit_from_index(unlabelled)


def test_transform_before_fit_raises(tiny_features):
    with pytest.raises(NotFittedError):
        SimilarityFeatureBuilder().transform(tiny_features[:2])


def test_empty_anchor_set_rejected():
    with pytest.raises(ValidationError):
        SimilarityFeatureBuilder().fit([])


def test_columns_for_selects_feature_type(tiny_features, fitted_builder):
    matrix = fitted_builder.transform(tiny_features[:6])
    block = matrix.columns_for("ssdeep-file")
    assert block.shape == (6, len(fitted_builder.classes_))
    assert matrix.columns_for("not-a-type").shape == (6, 0)
