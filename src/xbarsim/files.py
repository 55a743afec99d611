"""The package's JSON files on disk. `write_json` writes every one of them
and `read_json_object` reads every one. An engine descriptor or a model
manifest keeps its arrays in a blob next to it with a .bin suffix, which
`save_with_blob` and `load_with_blob` write and check; what the entries of
each format mean is checked by that format's own loader.
"""

import hashlib
import json
from pathlib import Path

from .errors import ValidationError


def write_json(path, obj):
    """Write `obj` as JSON: sorted keys, a two-space indent, a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json_object(path, what):
    """The JSON object in `path`, or a ValidationError naming it a `what`."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except ValueError as exc:   # also bytes that are not Unicode text
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path} is not a JSON object")
    return doc


def save_with_blob(json_path, doc, blob):
    """Write `blob` as the .bin next to `json_path`, then `doc` with the blob's
    file name and SHA-256 as `blob_file` and `blob_sha256`; return both paths."""
    json_path, blob_path = Path(json_path), Path(json_path).with_suffix(".bin")
    blob_path.write_bytes(blob)
    write_json(json_path, {**doc, "blob_file": blob_path.name,
                           "blob_sha256": hashlib.sha256(blob).hexdigest()})
    return json_path, blob_path


def load_with_blob(json_path, what, keys, optional=()):
    """The JSON object in `json_path` and the bytes of its blob. The object
    must hold `keys`, `blob_file` and `blob_sha256`, and may hold `optional`
    but no other key (one error lists every missing key, sorted, and one
    every other key); `blob_file` must be a string naming a file next to
    `json_path` whose SHA-256 is `blob_sha256`."""
    json_path = Path(json_path)
    doc = read_json_object(json_path, what)
    keys = {*keys, "blob_file", "blob_sha256"}
    missing = sorted(keys - doc.keys())
    if missing:
        raise ValidationError(f"{what} {json_path} is missing keys: {missing}")
    unknown = sorted(doc.keys() - keys - set(optional))
    if unknown:
        raise ValidationError(f"{what} {json_path} has unknown keys: {unknown}")
    if not isinstance(doc["blob_file"], str):
        raise ValidationError(f"{what} {json_path} blob_file is not a string")
    blob_path = json_path.parent / doc["blob_file"]
    if not blob_path.is_file():
        raise ValidationError(f"missing blob {blob_path} of {what} {json_path}")
    blob = blob_path.read_bytes()
    if hashlib.sha256(blob).hexdigest() != doc["blob_sha256"]:
        raise ValidationError(f"blob checksum mismatch for {blob_path}")
    return doc, blob
