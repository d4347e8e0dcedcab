"""A malformed ELF upload fails nobody: not its own request, not the
requests coalesced into its batch, not a ``classify`` over its directory.

The corrupt input is a real generated executable whose ``EI_DATA`` byte
claims big-endian data, which the ELF reader rejects after the magic
check; the symbol feature reads it as non-ELF input and counts it in
``malformed_elf_total``.
"""

import threading

import pytest

from repro.api.service import ClassificationService
from repro.binfmt.strip import strip_symbols
from repro.cli import main
from repro.features.extractors import FeatureExtractor, malformed_elf_total
from repro.hashing.ssdeep import SsdeepDigest
from repro.serving import ClassificationServer, ServerConfig
from repro.serving.model_manager import ModelManager
from repro.serving.protocol import decision_to_dict

from test_serving_server import classify_item, request_json

EI_DATA = 5


def corrupt_elf(data: bytes) -> bytes:
    broken = bytearray(data)
    broken[EI_DATA] = 2         # ELFDATA2MSB: big-endian, unsupported
    return bytes(broken)


@pytest.fixture(scope="module")
def symbol_model(tiny_features, tmp_path_factory):
    """An artifact over all the paper's features, symbols included."""

    path = tmp_path_factory.mktemp("symbol-model") / "model.rpm"
    ClassificationService.train(tiny_features, n_estimators=10,
                                random_state=1).save(path)
    return path


def test_malformed_elf_reads_as_non_elf_and_is_counted(sample_elf):
    before = malformed_elf_total()
    features = FeatureExtractor().extract(corrupt_elf(sample_elf))
    assert features.stripped
    assert features.n_symbols == 0
    assert SsdeepDigest.parse(features.digest("ssdeep-symbols")).is_empty
    assert malformed_elf_total() == before + 1
    # A stripped binary parses: it is not malformed.
    FeatureExtractor().extract(strip_symbols(sample_elf))
    assert malformed_elf_total() == before + 1


def test_corrupt_elf_does_not_fail_coalesced_neighbours(symbol_model,
                                                        tiny_samples):
    good = [(f"good-{n}", sample.data)
            for n, sample in enumerate(tiny_samples[:20])]
    reference = ClassificationService.load(symbol_model, cache_size=0)
    expected = {sid: decision_to_dict(reference.classify_bytes([(sid, data)])[0])
                for sid, data in good}
    items = good + [("corrupt", corrupt_elf(good[0][1]))]
    server = ClassificationServer(
        ModelManager(symbol_model, poll_interval=0.05, cache_size=256),
        ServerConfig(port=0, workers=2, max_batch=32)).start()
    try:
        before = malformed_elf_total()
        start = threading.Barrier(len(items))
        statuses, decisions = {}, {}

        def client(sid, data):
            start.wait(timeout=30)
            status, _, body = request_json(
                server.port, "POST", "/classify",
                {"items": [classify_item(sid, data)]})
            statuses[sid] = status
            if status == 200:
                decisions[sid] = body["decisions"][0]

        threads = [threading.Thread(target=client, args=item) for item in items]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        _, _, metrics = request_json(server.port, "GET", "/metrics")
    finally:
        server.shutdown()
    assert statuses == {sid: 200 for sid, _ in items}
    assert {sid: decisions[sid] for sid in expected} == expected
    assert metrics["malformed_elf_total"] >= before + 1


def test_classify_directory_survives_one_corrupt_elf(symbol_model,
                                                     tiny_samples, tmp_path,
                                                     capsys):
    target = tmp_path / "collected"
    target.mkdir()
    for n, sample in enumerate(tiny_samples[:3]):
        (target / f"job-exe-{n}").write_bytes(sample.data)
    (target / "job-exe-corrupt").write_bytes(corrupt_elf(tiny_samples[0].data))
    assert main(["classify", "--model", str(symbol_model), str(target)]) == 0
    out = capsys.readouterr().out
    assert "4 executables classified" in out
    assert "job-exe-corrupt" in out
