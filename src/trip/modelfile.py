"""Model persistence: a text format with bit-exact round trips.

Files are JSON with format tag ``trip-v1``. Payload arrays are stored as
flat row-major lists of decimal floats; Python's float repr is shortest
round-trip, so save/load reproduces every 64-bit parameter exactly. Shapes
are stored explicitly next to each payload and validated on load.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .continuous import TripModel
from .cores import CoreSet
from .errors import ModelFormatError
from .joint import JointModel

FORMAT_TAG = "trip-v1"


def _encode_array(arr: np.ndarray) -> dict[str, Any]:
    return {"shape": list(arr.shape), "values": [float(v) for v in arr.ravel()]}


def _decode_array(obj: Any, what: str) -> np.ndarray:
    if not isinstance(obj, dict) or "shape" not in obj or "values" not in obj:
        raise ModelFormatError(f"{what}: expected an object with shape and values")
    shape = obj["shape"]
    values = obj["values"]
    if not isinstance(shape, list) or not all(isinstance(s, int) and s >= 1 for s in shape):
        raise ModelFormatError(f"{what}: bad shape {shape!r}")
    expected = math.prod(shape)
    if not isinstance(values, list) or len(values) != expected:
        raise ModelFormatError(
            f"{what}: payload length {len(values) if isinstance(values, list) else '?'} "
            f"does not match shape {shape} ({expected} entries)"
        )
    try:
        arr = np.array(values, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{what}: non-numeric payload") from exc
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{what}: non-finite payload values")
    return arr


def model_kind(model) -> str:
    if isinstance(model, JointModel):
        return "joint"
    if isinstance(model, TripModel):
        return "continuous"
    if isinstance(model, CoreSet):
        return "discrete"
    raise TypeError(f"cannot serialize {type(model).__name__}")


def save_model(model, path: "str | os.PathLike") -> None:
    """Write a CoreSet, TripModel, or JointModel to ``path``."""
    kind = model_kind(model)
    doc: dict[str, Any] = {"format": FORMAT_TAG, "kind": kind}
    if kind == "discrete":
        doc["cores"] = [_encode_array(c) for c in model.cores]
    elif kind == "continuous":
        doc["cores"] = [_encode_array(c) for c in model.cores.cores]
        doc["means"] = [_encode_array(m) for m in model.means]
        doc["log_stds"] = [_encode_array(s) for s in model.log_stds]
    else:
        trip = model.trip
        doc["latent"] = {
            "cores": [_encode_array(c) for c in trip.cores.cores],
            "means": [_encode_array(m) for m in trip.means],
            "log_stds": [_encode_array(s) for s in trip.log_stds],
        }
        doc["attributes"] = [
            {"name": name, "cardinality": int(core.shape[0]), "core": _encode_array(core)}
            for name, core in zip(model.attribute_names, model.attribute_cores)
        ]
        doc["permutation"] = [int(v) for v in model.permutation]
    # write a sibling file, then rename it over the target: a crash part-way
    # leaves the old file (or none) in place, never a truncated one
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_model(path: "str | os.PathLike"):
    """Read a model file; returns a CoreSet, TripModel, or JointModel."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level document must be an object")
    if doc.get("format") != FORMAT_TAG:
        raise ModelFormatError(
            f"unsupported format tag {doc.get('format')!r}, expected {FORMAT_TAG!r}"
        )
    kind = doc.get("kind")
    try:
        if kind == "discrete":
            return CoreSet(
                [_decode_array(c, f"cores[{i}]") for i, c in enumerate(doc.get("cores", []))]
            )
        if kind == "continuous":
            return _load_trip(doc)
        if kind == "joint":
            return _load_joint(doc)
    except ModelFormatError:
        raise
    except Exception as exc:
        raise ModelFormatError(f"inconsistent model file: {exc}") from exc
    raise ModelFormatError(f"unknown model kind {kind!r}")


def _load_trip(doc: dict[str, Any]) -> TripModel:
    cores = [_decode_array(c, f"cores[{i}]") for i, c in enumerate(doc.get("cores", []))]
    means = [_decode_array(m, f"means[{i}]") for i, m in enumerate(doc.get("means", []))]
    log_stds = [
        _decode_array(s, f"log_stds[{i}]") for i, s in enumerate(doc.get("log_stds", []))
    ]
    return TripModel(cores, means, log_stds=log_stds)


def _load_joint(doc: dict[str, Any]) -> JointModel:
    latent = doc.get("latent")
    if not isinstance(latent, dict):
        raise ModelFormatError("joint model requires a latent section")
    trip = _load_trip(latent)
    attrs = doc.get("attributes", [])
    if not isinstance(attrs, list):
        raise ModelFormatError("attributes must be a list")
    names, cores = [], []
    for i, entry in enumerate(attrs):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"attributes[{i}] must be an object")
        core = _decode_array(entry.get("core"), f"attributes[{i}].core")
        card = entry.get("cardinality")
        if card != core.shape[0]:
            raise ModelFormatError(
                f"attributes[{i}]: cardinality {card} does not match core shape {core.shape}"
            )
        names.append(str(entry.get("name", f"attr{i}")))
        cores.append(core)
    perm = doc.get("permutation")
    if not isinstance(perm, list):
        raise ModelFormatError("joint model requires a permutation")
    return JointModel(trip, cores, perm, names)
