"""Seeded benchmark inputs: model files, data rows and CSVs.

Everything here is drawn with the benchmark's own generators from a seed, and
model files are written and read with the benchmark's own trip-v1 code. The
program's samplers and its model reader/writer are never used to make inputs,
so a change to them cannot change what the measured operations are fed.
"""

from __future__ import annotations

import json

import numpy as np

CLUSTERS = 4


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(map(ord, workload))])


def random_params(rng, d: int, n_comp: int, m: int) -> dict:
    """Signed cores (the program uses their absolute values), sorted means."""
    return {
        "cores": [rng.standard_normal((n_comp, m, m)) for _ in range(d)],
        "means": [np.sort(rng.normal(0.0, 3.0, n_comp)) for _ in range(d)],
        "log_stds": [np.log(rng.uniform(0.5, 1.5, n_comp)) for _ in range(d)],
    }


def mixture_rows(rng, params: dict, n: int) -> np.ndarray:
    """Rows whose every dimension picks one of its components uniformly.

    Not the model's distribution (the ring weights are ignored): the points
    only need to sit where the model has mass.
    """
    d = len(params["means"])
    out = np.empty((n, d))
    for k in range(d):
        idx = rng.integers(params["means"][k].shape[0], size=n)
        out[:, k] = params["means"][k][idx] + np.exp(params["log_stds"][k][idx]) * rng.standard_normal(n)
    return out


def cluster_rows(rng, centers: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows around shared cluster centers, and the cluster of each row.

    Every dimension is multimodal and the dimensions are dependent, so a
    fitted ring mixture beats a diagonal Gaussian by a wide margin.
    """
    labels = rng.integers(centers.shape[0], size=n)
    return centers[labels] + 0.4 * rng.standard_normal((n, centers.shape[1])), labels


def cluster_centers(rng, d: int) -> np.ndarray:
    return rng.normal(0.0, 3.0, (CLUSTERS, d))


# -- trip-v1 files ------------------------------------------------------------


def _enc(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "values": [float(v) for v in arr.ravel()]}


def _dec(obj: dict) -> np.ndarray:
    return np.array(obj["values"], dtype=float).reshape(obj["shape"])


def _latent_doc(params: dict) -> dict:
    return {key: [_enc(a) for a in params[key]] for key in ("cores", "means", "log_stds")}


def write_continuous(path, params: dict) -> None:
    doc = {"format": "trip-v1", "kind": "continuous", **_latent_doc(params)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_joint(path, params: dict, attr_cores, perm) -> None:
    doc = {
        "format": "trip-v1",
        "kind": "joint",
        "latent": _latent_doc(params),
        "attributes": [
            {"name": f"attr{i}", "cardinality": int(c.shape[0]), "core": _enc(c)}
            for i, c in enumerate(attr_cores)
        ],
        "permutation": [int(v) for v in perm],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def read_model(path) -> dict:
    """Parameters of a continuous or joint trip-v1 file as plain arrays.

    A continuous model reads as a joint one with no attributes and the
    identity ring order.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    latent = doc["latent"] if doc["kind"] == "joint" else doc
    out = {key: [_dec(a) for a in latent[key]] for key in ("cores", "means", "log_stds")}
    out["attr_cores"] = [_dec(a["core"]) for a in doc.get("attributes", [])]
    out["perm"] = doc.get("permutation", list(range(len(out["cores"]))))
    return out


# -- CSV ------------------------------------------------------------------------


def write_csv(path, latents: np.ndarray, attrs: np.ndarray | None = None) -> None:
    """One row per line; attribute cells ``-1`` are written as ``?``."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(latents.shape[0]):
            cells = [repr(float(v)) for v in latents[i]]
            if attrs is not None:
                cells += ["?" if a < 0 else str(int(a)) for a in attrs[i]]
            fh.write(",".join(cells) + "\n")

