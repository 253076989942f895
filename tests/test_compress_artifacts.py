"""The compress stage does each piece of work once.

* A study encodes its op words once; every scheme given those words
  compresses exactly as it does from the image alone.
* A compress artifact stores only the stage's output: the program image
  stays out of the pickle and the study binds its own image on a hit.
* A trace artifact's machine keeps only its nonzero memory pages.
"""

from __future__ import annotations

import io
import json
import pathlib
import pickle

import pytest

from repro import runtime
from repro.compression.registry import (
    hybrid_profile_source,
    parse_hybrid_key,
    scheme_factory,
)
from repro.compression.schemes import CompressedImage
from repro.core.study import clear_caches, study_for
from repro.errors import CompressionError
from repro.runtime.fingerprint import artifact_digest
from repro.runtime.metrics import REPORT
from repro.runtime.store import default_store

GOLDEN = pathlib.Path(__file__).parent / "golden" / "compressed_images.json"

#: Every scheme key the golden file pins (``<benchmark>/<key>``).
GOLDEN_KEYS = sorted(
    {name.split("/", 1)[1] for name in json.loads(GOLDEN.read_text())}
)


def _image_fields(compressed) -> tuple:
    return (
        compressed.scheme_name,
        list(compressed.block_payloads),
        list(compressed.block_bit_lengths),
        [sorted(s.code.codes.items()) for s in compressed.streams],
        compressed.total_code_bytes,
        compressed.table_bytes,
        compressed.block_scheme_tags(),
    )


def _scheme(key, study):
    scheme = scheme_factory(key)
    if parse_hybrid_key(key) is not None:
        if hybrid_profile_source(key) == "static":
            from repro.analysis.freq import static_heat_profile

            scheme.with_profile(static_heat_profile(study.compiled.image))
        else:
            from repro.compression.adaptive import heat_profile

            scheme.with_profile(
                heat_profile(
                    study.run.block_trace, len(study.compiled.image)
                )
            )
    return scheme


@pytest.mark.parametrize("key", GOLDEN_KEYS)
def test_study_words_compress_like_the_image_alone(compress_study, key):
    image = compress_study.compiled.image
    with_words = _scheme(key, compress_study)
    with_words.with_words(compress_study.op_words)
    shared = with_words.compress(image)
    alone = _scheme(key, compress_study).compress(image)
    assert _image_fields(shared) == _image_fields(alone)
    shared.verify()
    # compress consumed the words: the kept scheme carries none.
    assert "_words" not in vars(shared.scheme)


def _count_encodes(monkeypatch) -> list:
    from repro.isa.operation import Operation

    calls = []
    encode = Operation.encode
    monkeypatch.setattr(
        Operation, "encode", lambda op: calls.append(op) or encode(op)
    )
    return calls


def test_tailored_and_hybrid_without_words_encode_every_op_once(
    compress_study, monkeypatch
):
    image = compress_study.compiled.image
    for key in ("tailored", "hybrid"):
        scheme = _scheme(key, compress_study)
        calls = _count_encodes(monkeypatch)
        scheme.compress(image)
        assert len(calls) == image.total_ops, key


def test_words_for_another_image_are_rejected(compress_study):
    scheme = scheme_factory("full").with_words(((1,),))
    with pytest.raises(CompressionError, match="blocks of op words"):
        scheme.compress(compress_study.compiled.image)


@pytest.fixture
def private_store(tmp_path):
    saved = runtime.runtime_config()
    clear_caches()
    runtime.configure(enabled=True, cache_dir=tmp_path / "cache")
    yield default_store()
    clear_caches()
    runtime.set_runtime_config(saved)


@pytest.mark.parametrize("key", ["full", "tailored", "hybrid"])
def test_stored_compressed_image_binds_the_study_image(
    private_store, key
):
    fresh = study_for("compress", 2).compressed(key)
    clear_caches()
    study = study_for("compress", 2)
    loaded = study.compressed(key)
    stage = REPORT.stage("compress")
    assert (stage.hits, stage.misses) == (1, 0)
    assert loaded is not fresh
    assert loaded.image is study.compiled.image
    assert type(loaded) is type(fresh)
    assert _image_fields(loaded) == _image_fields(fresh)
    assert loaded.ratio_percent() == fresh.ratio_percent()
    loaded.verify()


def test_study_encodes_each_op_once(private_store, monkeypatch):
    from repro.compression.alphabets import SIX_STREAM_CONFIGS

    study = study_for("compress", 2)
    image = study.compiled.image
    study.run
    calls = _count_encodes(monkeypatch)
    for key in ("base", "byte", "full", "context", "dict", "hybrid") + tuple(
        cfg.name for cfg in SIX_STREAM_CONFIGS
    ):
        study.compressed(key)
    assert len(calls) == image.total_ops


def test_tailored_and_hybrid_read_the_study_words(
    private_store, monkeypatch
):
    study = study_for("compress", 2)
    study.run
    study.op_words
    calls = _count_encodes(monkeypatch)
    study.compressed("tailored")
    study.compressed("hybrid")
    assert calls == []


class _ClassRecorder(pickle.Unpickler):
    """Unpickles normally and records every class the pickle names."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.names = set()

    def find_class(self, module, name):
        self.names.add(name)
        return super().find_class(module, name)


def test_compress_payload_holds_no_program_image(private_store):
    study_for("compress", 2).compressed("full")
    digest = artifact_digest(
        "compress", benchmark="compress", scale=2, scheme="full"
    )
    with open(private_store.path_for(digest), "rb") as fh:
        envelope = pickle.load(fh)
    recorder = _ClassRecorder(io.BytesIO(envelope["payload"]))
    compressed = recorder.load()
    assert "FullOpHuffmanScheme" in recorder.names
    for name in ("ProgramImage", "BasicBlockImage", "Operation"):
        assert name not in recorder.names
    assert "_words" not in vars(compressed.scheme)


@pytest.mark.parametrize("key", ["full", "hybrid", "dict"])
def test_unbound_compressed_image_raises_named_error(compress_study, key):
    compressed = pickle.loads(pickle.dumps(compress_study.compressed(key)))
    assert isinstance(compressed, CompressedImage)
    assert compressed.total_code_bytes > 0  # stage output survives
    for call in (
        lambda: compressed.decode_block(0),
        compressed.verify,
        compressed.ratio_percent,
    ):
        with pytest.raises(CompressionError, match="not bound"):
            call()
    compressed.bind(compress_study.compiled.image).verify()


def test_machine_pickles_only_nonzero_pages(compress_study):
    machine = compress_study.run.machine
    blob = pickle.dumps(machine, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) < 64 * 1024
    back = pickle.loads(blob)
    assert back.state_digest() == machine.state_digest()
    assert len(back.memory) == len(machine.memory)
    assert isinstance(back.memory, bytearray)
    address = compress_study.compiled.module.globals["result"].address
    assert back.load_word(address) == machine.load_word(address)
