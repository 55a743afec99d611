"""The one JSON writer, the checked JSON reader and the .bin sidecar pair."""

import hashlib
import json

import pytest

from xbarsim import cli
from xbarsim.errors import ValidationError
from xbarsim.files import load_with_blob, read_json_object, save_with_blob, write_json
from xbarsim.netrunner import build_tiny_model, save_model


def test_write_json_layout(tmp_path):
    write_json(tmp_path / "a.json", {"b": [1, 2.5], "a": None})
    assert (tmp_path / "a.json").read_text() == (
        '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n')


@pytest.mark.parametrize("content, match", [
    (b"null", "is not a JSON object"), (b"[1]", "is not a JSON object"),
    (b'"x"', "is not a JSON object"), (b"{", "is not valid JSON"),
    (b'{"a": "\x80"}', "is not valid JSON")])   # bytes that are not UTF-8
def test_read_json_object_rejects_other_documents(tmp_path, content, match):
    (tmp_path / "a.json").write_bytes(content)
    with pytest.raises(ValidationError, match=f"thing .*a.json {match}"):
        read_json_object(tmp_path / "a.json", "thing")


def test_sidecar_round_trip(tmp_path):
    json_path, blob_path = save_with_blob(tmp_path / "d.json", {"k": 1}, b"\x00\x01")
    assert blob_path == tmp_path / "d.bin" and blob_path.read_bytes() == b"\x00\x01"
    assert json.loads(json_path.read_text()) == {
        "k": 1, "blob_file": "d.bin", "blob_sha256": hashlib.sha256(b"\x00\x01").hexdigest()}
    assert load_with_blob(json_path, "thing", ("k",)) == (
        json.loads(json_path.read_text()), b"\x00\x01")
    # an optional key may be left out or held
    assert load_with_blob(json_path, "thing", (), optional=("k",))[0]["k"] == 1


@pytest.mark.parametrize("doc, match", [
    ({}, r"missing keys: \['blob_file', 'blob_sha256', 'k'\]"),
    ({"k": 1, "blob_file": 7, "blob_sha256": ""}, "blob_file is not a string"),
    ({"k": 1, "blob_file": "", "blob_sha256": ""}, "missing blob"),
    ({"k": 1, "blob_file": "gone.bin", "blob_sha256": ""}, "missing blob"),
    ({"k": 1, "blob_file": "d.bin", "blob_sha256": "0"}, "checksum mismatch"),
    ({"k": 1, "z": 2, "blob_file": "d.bin", "blob_sha256": "", "a": 3},
     r"thing .*d.json has unknown keys: \['a', 'z'\]")])
def test_load_with_blob_rejects(tmp_path, doc, match):
    save_with_blob(tmp_path / "d.json", {"k": 1}, b"\x00")
    (tmp_path / "d.json").write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=match):
        load_with_blob(tmp_path / "d.json", "thing", ("k",))


@pytest.mark.parametrize("content", [b"null", b"5", b"[]", b'"x"', b"{", b"\x80"])
@pytest.mark.parametrize("role", ["model", "config"])
def test_run_net_rejects_a_file_that_is_not_an_object(tmp_path, role, content):
    manifest, _ = save_model(build_tiny_model(seed=3), tmp_path / "tiny.json")
    (tmp_path / "imgs").mkdir()
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    args = {"model": ["--model", str(bad)],
            "config": ["--model", str(manifest), "--config", str(bad)]}[role]
    assert cli.main(["run-net", *args, "--images", str(tmp_path / "imgs"),
                     "--out", str(tmp_path / "net")]) == cli.EXIT_VALIDATION
    assert not (tmp_path / "net").exists()
