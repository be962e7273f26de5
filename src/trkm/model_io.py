"""Versioned model files of ``models.Model`` with exact float round-tripping.

Layout: a JSON document ``{"format_version": 1, "checksum": "...",
"payload": {...}}``. Every real number in the payload is stored as C99
hexadecimal float text (``float.hex()``), so loading reproduces each value
bit for bit and predictions after a save/load round trip are bitwise
identical. An array is decoded with one ``map(float.fromhex, ...)``; only an
array with a bad field is walked value by value, to name the first one. The checksum is the SHA-256 of the canonical payload encoding
(sorted keys, no whitespace). Files are written atomically
(temp file + rename). Loading rejects unknown versions before anything
else, then verifies the checksum, then holds each field to what a fit holds
its inputs to (finite floats, positive penalties, distinct raw labels). Every
refusal after the checksum names the file and the field, a value that is not
hex float text included.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from . import models
from .arrays import positive_number
from .errors import CorruptModel, IoError, VersionMismatch
from .kernels import KernelSpec

FORMAT_VERSION = 1


def _hex(v: float) -> str:
    return float(v).hex()


def _unhex(s) -> float:
    try:
        return float.fromhex(s)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: beyond double range
        raise CorruptModel(f"bad float field {s!r}") from exc


def _encode_array(a: np.ndarray) -> dict:
    flat = np.asarray(a, dtype=float).ravel(order="C")
    return {"shape": list(a.shape), "values": [_hex(v) for v in flat]}


def _decode_array(blob) -> np.ndarray:
    """One ``map(float.fromhex, ...)`` over the stored values; the first bad one is
    CorruptModel, as ``_unhex`` reports it."""
    try:
        shape = tuple(int(s) for s in blob["shape"])
        values = blob["values"]
        decoded = map(float.fromhex, values)
    except (KeyError, TypeError, OverflowError) as exc:
        raise CorruptModel(f"malformed array field: {exc}") from exc
    try:
        arr = np.array(list(decoded), dtype=float)
    except (TypeError, ValueError, OverflowError):
        for v in values:
            _unhex(v)
        raise
    if arr.size != int(np.prod(shape)):
        raise CorruptModel("array size does not match its shape")
    return arr.reshape(shape)


_ENCODE = {models.ARRAY: _encode_array, models.FLOAT: _hex}
_DECODE = {models.ARRAY: _decode_array, models.FLOAT: _unhex}


def _decode(name: str, encoding: str, blob):
    """The stored field ``name``; one it cannot read is a ValueError naming it, which
    ``load_model`` reports with the file."""
    try:
        return _DECODE[encoding](blob)
    except CorruptModel as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _encode_kernel(spec: KernelSpec) -> dict:
    return {
        "family": spec.family,
        "sigma": _hex(spec.sigma) if spec.sigma is not None else None,
    }


def _decode_kernel(blob) -> KernelSpec:
    sigma = blob["sigma"]
    return KernelSpec(blob["family"], None if sigma is None
                      else _decode("hyperparams kernel sigma", models.FLOAT, sigma))


def _payload(model: models.Model) -> dict:
    entry = model.type
    hyperparams = {name: _hex(model.hyperparams[name]) for name in entry.penalties}
    hyperparams["kernel"] = _encode_kernel(model.kernel)
    body = {"hyperparams": hyperparams}
    for name, encoding in entry.body:
        body[name] = _ENCODE[encoding](model.fields[name])
    return {
        "kind": entry.kind,
        "task": entry.task,
        "normalization": (
            None
            if model.normalization is None
            else [[_hex(lo), _hex(hi)] for lo, hi in model.normalization]
        ),
        "label_mapping": (
            None
            if model.label_mapping is None
            else [[raw, int(code)] for raw, code in model.label_mapping]
        ),
        "body": body,
    }


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_atomic(path: str, text: str) -> None:
    """Write a text file through a temp file in the same directory and a rename. The temp file
    is made with mode 0o666 less the umask, as ``open`` makes a file, which the rename keeps."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, f".trkm-{os.urandom(8).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_model(model: models.Model, path: str) -> None:
    """Write the model file atomically."""
    payload = _payload(model)
    doc = {
        "format_version": FORMAT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    write_atomic(path, json.dumps(doc, indent=1))


def load_model(path: str) -> models.Model:
    """Read, version-check, checksum-verify, and reconstruct a model file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise CorruptModel(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CorruptModel(f"{path}: missing format_version")
    if doc["format_version"] != FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format version {doc['format_version']!r}, expected {FORMAT_VERSION}"
        )
    payload = doc.get("payload")
    if payload is None or "checksum" not in doc:
        raise CorruptModel(f"{path}: missing payload or checksum")
    if _checksum(payload) != doc["checksum"]:
        raise CorruptModel(f"{path}: checksum mismatch")
    try:
        return _reconstruct(payload)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"{path}: malformed payload ({exc})") from exc


def _reconstruct(payload: dict) -> models.Model:
    entry = models.of_kind(payload["kind"])
    if payload["task"] != entry.task:
        raise ValueError(f"task {payload['task']!r} does not match kind {entry.kind!r}")
    body = payload["body"]
    normalization = payload.get("normalization")
    if normalization is not None:
        normalization = tuple((_decode("normalization", models.FLOAT, lo),
                               _decode("normalization", models.FLOAT, hi))
                              for lo, hi in normalization)
    label_mapping = payload.get("label_mapping")
    if label_mapping is not None:
        label_mapping = tuple((str(raw), int(code)) for raw, code in label_mapping)

    hp_blob = body["hyperparams"]
    hyperparams = {name: _decode(f"hyperparams {name}", models.FLOAT, hp_blob[name])
                   for name in entry.penalties}
    for name, value in hyperparams.items():
        if not positive_number(value):
            raise ValueError(f"hyperparams {name} = {value!r}: expected a finite positive number")
    kernel = _decode_kernel(hp_blob["kernel"])
    fields = {name: _decode(name, encoding, body[name]) for name, encoding in entry.body}
    for name, value in [*fields.items(), ("normalization", normalization or ())]:
        if not np.isfinite(value).all():
            raise ValueError(f"{name} holds a non-finite value")
    for vector, rows in entry.per_row:
        if fields[rows].ndim != 2 or fields[vector].shape != fields[rows].shape[:1]:
            raise ValueError(f"{vector} of shape {fields[vector].shape} does not match "
                             f"{rows} of shape {fields[rows].shape}")
    first, *others = dict.fromkeys(rows for _, rows in entry.per_row)
    for rows in others:
        if fields[rows].shape[1] != fields[first].shape[1]:
            raise ValueError(f"{rows} of shape {fields[rows].shape} has another column count "
                             f"than {first} of shape {fields[first].shape}")
    model = models.Model(entry, hyperparams, kernel, fields,
                         normalization=normalization, label_mapping=label_mapping)
    if normalization is not None and len(normalization) != model.n_features:
        raise ValueError(f"normalization has {len(normalization)} features, "
                         f"model has {model.n_features}")
    if label_mapping is not None and (sorted(code for _, code in label_mapping) != [-1, 1]
                                      or len(dict(label_mapping)) != 2):
        raise ValueError(f"label_mapping {label_mapping} is not two distinct labels coded -1, +1")
    return model
