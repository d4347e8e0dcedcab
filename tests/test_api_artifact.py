"""Tests for the versioned model artifact format (``repro.api.artifact``).

Covers the bit-exact save/load round trip, header inspection, headless
artifacts, and the strict validation paths: corrupt files, truncation,
future format versions, unknown feature types and mismatched indexes
must all raise a :class:`~repro.exceptions.ModelFormatError` (a
``ReproError``), never an arbitrary traceback.
"""

import dataclasses
import json
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.artifact import (
    MODEL_CONTAINER,
    MODEL_FORMAT_VERSION,
    MODEL_MAGIC,
    inspect_model,
    load_model,
    save_model,
    validate_model,
)
from repro.core.classifier import FuzzyHashClassifier
from repro.exceptions import (
    ModelArtifactError,
    ModelFormatError,
    NotFittedError,
    ReproError,
)
from repro.features.records import SampleFeatures
from repro.hashing.ssdeep import fuzzy_hash
from repro.index import SimilarityIndex
from repro.index.storage import read_container, write_container

from test_index_core import make_corpus

#: A format-5 artifact with a dense forest table (``data/dense_forest``).
DENSE_MODEL = (Path(__file__).resolve().parent / "data" / "dense_forest"
               / "model.rpm")


def make_records(n=36, *, seed=5, n_families=4, feature_type="ssdeep-file"):
    return [SampleFeatures(sample_id=sid, class_name=cls, version="1",
                           executable=sid, digests=digests)
            for sid, digests, cls in make_corpus(n, seed=seed,
                                                 n_families=n_families,
                                                 feature_type=feature_type)]


@pytest.fixture(scope="module")
def fitted():
    records = make_records()
    clf = FuzzyHashClassifier(feature_types=["ssdeep-file"], n_estimators=12,
                              random_state=0, confidence_threshold=0.4)
    clf.fit(records)
    return clf, records


@pytest.fixture(scope="module")
def saved(fitted, tmp_path_factory):
    clf, _records = fitted
    path = tmp_path_factory.mktemp("models") / "model.rpm"
    return save_model(clf, path)


# -------------------------------------------------------------- round trip
def test_round_trip_is_bit_identical(fitted, saved):
    clf, records = fitted
    restored = load_model(saved)
    assert list(restored.classes_) == list(clf.classes_)
    assert restored.feature_names_ == clf.feature_names_
    assert np.array_equal(restored.predict_proba(records),
                          clf.predict_proba(records))
    assert list(restored.predict(records)) == list(clf.predict(records))
    assert np.array_equal(restored.feature_importances_,
                          clf.feature_importances_)


def test_round_trip_confidences_and_threshold(fitted, saved):
    clf, records = fitted
    restored = load_model(saved)
    labels, conf = restored.predict_with_confidence(records)
    labels2, conf2 = clf.predict_with_confidence(records)
    assert np.array_equal(conf, conf2)
    assert list(labels) == list(labels2)
    assert restored.confidence_threshold == clf.confidence_threshold
    # The threshold override plumbing survives the round trip too.
    assert list(restored.predict(records, confidence_threshold=0.99)) == \
        list(clf.predict(records, confidence_threshold=0.99))


def test_inspect_reports_header_summary(saved, fitted):
    clf, _ = fitted
    info = inspect_model(saved)
    assert info["kind"] == "repro.fuzzy-hash-classifier"
    assert info["format_version"] == MODEL_FORMAT_VERSION
    assert info["feature_types"] == ["ssdeep-file"]
    assert info["n_trees"] == 12
    assert info["n_classes"] == len(clf.classes_)
    assert info["index_included"] is True
    assert info["index_members"] == 36
    assert validate_model(saved)["n_trees"] == 12


def test_save_requires_fitted_classifier(tmp_path):
    with pytest.raises(NotFittedError):
        save_model(FuzzyHashClassifier(), tmp_path / "nope.rpm")
    with pytest.raises(ModelArtifactError):
        save_model(object(), tmp_path / "nope.rpm")


# ---------------------------------------------------------------- headless
def test_headless_artifact_requires_index(fitted, tmp_path):
    clf, records = fitted
    path = save_model(clf, tmp_path / "headless.rpm", include_index=False)
    # Much smaller without the anchor payload.
    assert path.stat().st_size < save_model(
        clf, tmp_path / "with-index.rpm").stat().st_size
    with pytest.raises(ModelFormatError, match="without its anchor index"):
        load_model(path)
    # Supplying the matching index (object or path) restores bit-exactly.
    index_path = clf.builder_.index_.save(tmp_path / "anchors.rpsi")
    for source in (clf.builder_.index_, index_path):
        restored = load_model(path, index=source)
        assert list(restored.predict(records)) == list(clf.predict(records))


def test_headless_artifact_rejects_wrong_index(fitted, tmp_path):
    clf, _records = fitted
    path = save_model(clf, tmp_path / "headless.rpm", include_index=False)
    wrong = SimilarityIndex(["ssdeep-file"])
    wrong.add_many(make_corpus(10, seed=99, n_families=2))
    with pytest.raises(ModelFormatError):
        load_model(path, index=wrong)


# ------------------------------------------------------------- error paths
def test_missing_file_raises_model_format_error(tmp_path):
    with pytest.raises(ModelFormatError, match="does not exist"):
        load_model(tmp_path / "missing.rpm")


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.rpm"
    path.write_bytes(b"\x13\x37" * 64)
    with pytest.raises(ModelFormatError, match="bad magic"):
        load_model(path)


def test_index_file_is_not_a_model(fitted, tmp_path):
    clf, _ = fitted
    index_path = clf.builder_.index_.save(tmp_path / "anchors.rpsi")
    with pytest.raises(ModelFormatError, match="bad magic"):
        inspect_model(index_path)


def test_truncation_raises(saved, tmp_path):
    data = saved.read_bytes()
    for cut in (10, len(data) // 2, len(data) - 7):
        path = tmp_path / f"trunc-{cut}.rpm"
        path.write_bytes(data[:cut])
        with pytest.raises(ModelFormatError):
            load_model(path)


def test_future_version_raises(saved, tmp_path):
    data = bytearray(saved.read_bytes())
    struct.pack_into("<I", data, 8, MODEL_FORMAT_VERSION + 1)
    path = tmp_path / "future.rpm"
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="format version"):
        load_model(path)


def _rewrite_header(saved, tmp_path, mutate, name="tampered.rpm"):
    """Rewrite the artifact with a mutated JSON header (payload kept)."""

    data = saved.read_bytes()
    magic, version, header_len = struct.unpack_from("<8sIQ", data)
    assert magic == MODEL_MAGIC
    header = json.loads(data[20:20 + header_len].decode("utf-8"))
    align = header.get("payload_alignment", 1)
    # Re-extract each payload at its (aligned) old offset so the new
    # header length cannot shift the padded layout out from under them.
    payloads = []
    offset = 20 + header_len
    for descriptor in header["arrays"]:
        offset += -offset % align
        n_bytes = np.dtype(descriptor["dtype"]).itemsize \
            * int(np.prod(descriptor["shape"], dtype=np.int64))
        payloads.append(data[offset:offset + n_bytes])
        offset += n_bytes
    mutate(header)
    new_header = json.dumps(header, separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
    out = bytearray(struct.pack("<8sIQ", magic, version, len(new_header)))
    out += new_header
    for payload in payloads:
        out += b"\0" * (-len(out) % align)
        out += payload
    path = tmp_path / name
    path.write_bytes(bytes(out))
    return path


def test_unknown_feature_type_raises(saved, tmp_path):
    def mutate(header):
        header["params"]["feature_types"] = ["ssdeep-quantum"]

    path = _rewrite_header(saved, tmp_path, mutate)
    with pytest.raises(ModelFormatError, match="ssdeep-quantum"):
        load_model(path)


def test_wrong_kind_raises(saved, tmp_path):
    path = _rewrite_header(saved, tmp_path,
                           lambda h: h.update(kind="something-else"))
    with pytest.raises(ModelFormatError, match="something-else"):
        load_model(path)


def test_tampered_feature_names_raise(saved, tmp_path):
    def mutate(header):
        header["feature_names"] = header["feature_names"][:-1]

    path = _rewrite_header(saved, tmp_path, mutate)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_embedded_index_over_other_ngrams_raises(saved, tmp_path):
    def mutate(header):
        header["index"]["header"]["ngram_length"] = 5

    path = _rewrite_header(saved, tmp_path, mutate)
    with pytest.raises(ModelFormatError, match="5-gram"):
        load_model(path)


def test_params_omit_n_jobs_and_artifacts_carrying_it_still_load(
        fitted, saved, tmp_path):
    clf, records = fitted
    written = {}

    def mutate(header):
        written.update(header["params"])
        header["params"]["n_jobs"] = 4      # as older builds wrote it

    path = _rewrite_header(saved, tmp_path, mutate)
    assert "n_jobs" not in written          # a run-time setting, not saved
    restored = load_model(path)
    assert np.array_equal(restored.predict_proba(records),
                          clf.predict_proba(records))


# --------------------------------------------------------- forest payload
def _forest_table(path):
    """The ``forest.*`` arrays of an artifact file, prefix stripped."""

    _header, arrays = read_container(path, fmt=MODEL_CONTAINER)
    return {name.split(".", 1)[1]: array for name, array in arrays.items()
            if name.startswith("forest.")}


def test_forest_table_is_the_files_forest_arrays(fitted, saved):
    clf, _records = fitted
    file_table = _forest_table(saved)
    loaded = {mode: load_model(saved, mmap_mode=mode) for mode in (None, "r")}
    for model in (clf, *loaded.values()):
        table = model.model_.forest_.get_state()["table"]
        assert list(table) == list(file_table)
        for name, array in table.items():
            assert array.dtype == file_table[name].dtype, name
            assert array.shape == file_table[name].shape, name
            assert array.tobytes() == file_table[name].tobytes(), name
    # A mapped load predicts from read-only views of the file, not copies,
    # and a loaded forest rebuilds no tree objects.
    mapped = loaded["r"].model_.forest_
    assert not any(array.flags.writeable
                   for array in mapped.get_state()["table"].values())
    assert not hasattr(mapped, "estimators_")
    assert len(clf.model_.forest_.estimators_) == 12


def _tamper(header, arrays, case):
    """Apply one named corruption to an artifact's header and arrays."""

    offsets = arrays["forest.tree_node_offsets"]
    if case == "decreasing-node-offsets":
        offsets[1], offsets[2] = offsets[2], offsets[1]
    elif case == "empty-tree":
        offsets[1] = offsets[0]
    elif case == "short-node-threshold":
        arrays["forest.node_threshold"] = arrays["forest.node_threshold"][:-1]
    elif case == "trailing-node-value":
        arrays["forest.node_values"] = np.append(arrays["forest.node_values"],
                                                 0.0)
    elif case == "class-index-past-class-table":
        arrays["forest.tree_classes"][0] = len(header["forest"]["classes"]
                                               ["values"])
    elif case == "float-tree-classes":
        arrays["forest.tree_classes"] = \
            arrays["forest.tree_classes"].astype(np.float64)
    elif case == "short-leaf-offsets":
        arrays["forest.leaf_offsets"] = arrays["forest.leaf_offsets"][:-1]
    elif case == "leaf-offsets-not-from-0":
        arrays["forest.leaf_offsets"][0] = -1
    elif case == "decreasing-leaf-offsets":
        leaf_offsets = arrays["forest.leaf_offsets"]
        leaf_offsets[-2] = leaf_offsets[-1] + 1
    elif case == "leaf-offsets-past-entries":
        arrays["forest.leaf_offsets"][-1] += 1
    elif case == "short-leaf-proba":
        arrays["forest.leaf_proba"] = arrays["forest.leaf_proba"][:-1]
    elif case == "internal-node-owns-entries":
        # An internal node takes the first entry of the node after it.
        leaf_offsets = arrays["forest.leaf_offsets"]
        counts = np.diff(leaf_offsets)
        node = next(i for i, feature in enumerate(arrays["forest.node_feature"])
                    if feature >= 0 and counts[i + 1] > 0)
        leaf_offsets[node + 1] += 1
    elif case == "leaf-class-past-class-table":
        arrays["forest.leaf_classes"][0] = len(header["forest"]["classes"]
                                               ["values"])
    elif case == "float-leaf-classes":
        arrays["forest.leaf_classes"] = \
            arrays["forest.leaf_classes"].astype(np.float64)
    elif case == "feature-past-n-features":
        arrays["forest.node_feature"][0] = header["forest"]["n_features_in"]
    elif case == "child-past-tree-end":
        # Tree 0's root (an internal node) points just past tree 0.
        assert arrays["forest.node_feature"][0] >= 0
        arrays["forest.node_left"][0] = offsets[1]
    elif case == "backward-child-pointer":
        # Tree 0's root points at itself: a walk would never end.
        assert arrays["forest.node_feature"][0] >= 0
        arrays["forest.node_left"][0] = 0
    elif case == "shared-child":
        # Both of the root's children are one node, whose subtree a
        # level-by-level pass would then visit twice.
        assert arrays["forest.node_feature"][0] >= 0
        arrays["forest.node_right"][0] = arrays["forest.node_left"][0]
    elif case == "short-importances":
        arrays["forest.importances"] = arrays["forest.importances"][:-1]
    elif case == "n-trees-off-by-one":
        header["forest"]["n_trees"] += 1
    else:
        raise AssertionError(case)


#: Each corruption ``_tamper`` applies, and what the error must say.
TAMPERED_FOREST = {
    "decreasing-node-offsets": "decreasing",
    "empty-tree": "no nodes",
    "short-node-threshold": "'node_threshold'",
    "trailing-node-value": "'node_values'",
    "class-index-past-class-table": "class table",
    "float-tree-classes": "integer",
    "short-leaf-offsets": "'leaf_offsets'",
    "leaf-offsets-not-from-0": "leaf offsets",
    "decreasing-leaf-offsets": "leaf offsets",
    "leaf-offsets-past-entries": "leaf offsets",
    "short-leaf-proba": "'leaf_proba'",
    "internal-node-owns-entries": "internal node that owns",
    "leaf-class-past-class-table": "leaf classes outside",
    "float-leaf-classes": "leaf classes that are not integer",
    "feature-past-n-features": "invalid feature",
    "child-past-tree-end": "child pointer",
    "backward-child-pointer": "child pointer",
    "shared-child": "two parents",
    "short-importances": "'importances'",
    "n-trees-off-by-one": "offsets",
}

#: The cases that tamper a dense forest table, which model formats 1–5
#: store: they start from a format-5 file written by the dense-table code.
DENSE_CASES = ("trailing-node-value", "class-index-past-class-table",
               "float-tree-classes")

#: The cases that tamper the tree structure, which both tables carry.
STRUCTURE_CASES = ("decreasing-node-offsets", "empty-tree",
                   "short-node-threshold", "feature-past-n-features",
                   "child-past-tree-end", "backward-child-pointer",
                   "shared-child", "short-importances", "n-trees-off-by-one")


def _assert_tampered_load_raises(source, version, case, tmp_path):
    """Tamper ``source`` by ``case``, write it stamped ``version``, and
    check both the load and the validation fail, naming the file."""

    header, arrays = read_container(source, fmt=MODEL_CONTAINER)
    _tamper(header, arrays, case)
    fmt = dataclasses.replace(MODEL_CONTAINER, version=version)
    path = write_container(tmp_path / f"{case}.rpm", header, arrays, fmt=fmt)
    for load in (load_model, validate_model):
        with pytest.raises(ModelFormatError,
                           match=TAMPERED_FOREST[case]) as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("case", TAMPERED_FOREST)
def test_tampered_forest_payload_raises(saved, tmp_path, case):
    """Every forest-table check fails the load and the validation, naming
    the file.  Neither call predicts, so a table that would make a walk
    loop forever fails here instead of hanging."""

    if case in DENSE_CASES:
        _assert_tampered_load_raises(DENSE_MODEL, 5, case, tmp_path)
    else:
        _assert_tampered_load_raises(saved, MODEL_FORMAT_VERSION, case,
                                     tmp_path)


@pytest.mark.parametrize("case", STRUCTURE_CASES)
def test_tampered_dense_forest_structure_raises(tmp_path, case):
    """A dense table's tree structure is checked before the table is
    converted, so each structure case fails a format-5 file as it fails
    a leaf table."""

    _assert_tampered_load_raises(DENSE_MODEL, 5, case, tmp_path)


def test_all_artifact_errors_are_repro_errors():
    assert issubclass(ModelFormatError, ModelArtifactError)
    assert issubclass(ModelArtifactError, ReproError)


# ----------------------------------------------- hypothesis: round trip
_seeds = st.integers(min_value=0, max_value=2**16)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=_seeds, threshold=st.floats(min_value=0.1, max_value=0.9),
       n_estimators=st.integers(min_value=3, max_value=12))
def test_roundtrip_predicts_bit_identically(tmp_path_factory, seed, threshold,
                                            n_estimators):
    """``load_model(save_model(m))``, eager or mapped, predicts
    bit-identically to ``m`` over random corpora, thresholds and forest
    sizes, and saves back to the same bytes."""

    rnd = random.Random(seed)
    n = rnd.randrange(12, 30)
    records = make_records(n, seed=seed, n_families=rnd.randrange(2, 5))
    queries = make_records(10, seed=seed + 1, n_families=3)
    clf = FuzzyHashClassifier(feature_types=["ssdeep-file"],
                              n_estimators=n_estimators,
                              confidence_threshold=threshold,
                              random_state=seed)
    clf.fit(records)
    path = save_model(clf, tmp_path_factory.mktemp("hyp") / "model.rpm")
    for mode in (None, "r"):
        restored = load_model(path, mmap_mode=mode)
        for batch in (records, queries):
            assert np.array_equal(restored.predict_proba(batch),
                                  clf.predict_proba(batch))
            assert list(restored.predict(batch)) == list(clf.predict(batch))
            assert np.array_equal(restored.confidence(batch),
                                  clf.confidence(batch))
        # A loaded model re-saves to the same bytes: the serving tier
        # re-exports loaded models when it publishes.
        resaved = save_model(restored, path.with_name(f"resaved-{mode}.rpm"))
        assert resaved.read_bytes() == path.read_bytes()
