"""Persistence round trips and file validation."""

import json

import numpy as np
import pytest
from conftest import random_core_set, random_joint_model, random_trip_model

import trip
from trip.modelfile import load_model, save_model


def assert_bit_equal(a, b):
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype


class TestRoundTrip:
    def test_discrete(self, tmp_path):
        rng = np.random.default_rng(0)
        cs = random_core_set(rng, [3, 2, 4], sizes=[2, 3, 2])
        path = tmp_path / "m.json"
        save_model(cs, path)
        loaded = load_model(path)
        assert isinstance(loaded, trip.CoreSet)
        for a, b in zip(cs.cores, loaded.cores):
            assert_bit_equal(a, b)

    def test_continuous(self, tmp_path):
        rng = np.random.default_rng(1)
        model = random_trip_model(rng, [2, 3])
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, trip.TripModel)
        for a, b in zip(model.cores.cores, loaded.cores.cores):
            assert_bit_equal(a, b)
        for a, b in zip(model.means, loaded.means):
            assert_bit_equal(a, b)
        for a, b in zip(model.log_stds, loaded.log_stds):
            assert_bit_equal(a, b)
        for a, b in zip(model.stds, loaded.stds):
            assert_bit_equal(a, b)

    def test_joint(self, tmp_path):
        rng = np.random.default_rng(2)
        jm = random_joint_model(rng, [2, 2], [2, 3])
        path = tmp_path / "m.json"
        save_model(jm, path)
        loaded = load_model(path)
        assert isinstance(loaded, trip.JointModel)
        np.testing.assert_array_equal(jm.permutation, loaded.permutation)
        assert jm.attribute_names == loaded.attribute_names
        for a, b in zip(jm.attribute_cores, loaded.attribute_cores):
            assert_bit_equal(a, b)
        for a, b in zip(jm.trip.cores.cores, loaded.trip.cores.cores):
            assert_bit_equal(a, b)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        model = random_trip_model(rng, [3, 2])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        values = np.array(
            [[[np.pi]], [[np.nextafter(1.0, 2.0)]], [[5e-324]], [[1e300]]]
        )
        cs = trip.CoreSet([values])
        path = tmp_path / "m.json"
        save_model(cs, path)
        assert_bit_equal(load_model(path).cores[0], values)


class TestValidation:
    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "trip-v2", "kind": "discrete"}))
        with pytest.raises(trip.ModelFormatError):
            load_model(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "trip-v1", "kind": "magic"}))
        with pytest.raises(trip.ModelFormatError):
            load_model(path)

    def test_corrupted_payload_length(self, tmp_path):
        rng = np.random.default_rng(4)
        cs = random_core_set(rng, [2, 2])
        path = tmp_path / "m.json"
        save_model(cs, path)
        doc = json.loads(path.read_text())
        doc["cores"][0]["values"] = doc["cores"][0]["values"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(trip.ModelFormatError):
            load_model(path)

    def test_inconsistent_shape_fields(self, tmp_path):
        rng = np.random.default_rng(5)
        model = random_trip_model(rng, [2, 2])
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["means"][0]["shape"] = [3]
        path.write_text(json.dumps(doc))
        with pytest.raises(trip.ModelFormatError):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json at all{")
        with pytest.raises(trip.ModelFormatError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(trip.ModelFormatError):
            load_model(tmp_path / "absent.json")

    def test_joint_cardinality_mismatch(self, tmp_path):
        rng = np.random.default_rng(6)
        jm = random_joint_model(rng, [2], [2])
        path = tmp_path / "m.json"
        save_model(jm, path)
        doc = json.loads(path.read_text())
        doc["attributes"][0]["cardinality"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(trip.ModelFormatError):
            load_model(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "m.json"
        doc = {
            "format": "trip-v1",
            "kind": "discrete",
            "cores": [{"shape": [1, 1, 1], "values": [1e999]}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(trip.ModelFormatError):
            load_model(path)


def test_failed_save_keeps_old_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    path = tmp_path / "model.json"
    save_model(random_trip_model(rng, [2, 2]), path)
    before = path.read_bytes()

    def broken_dump(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(RuntimeError):
        save_model(random_trip_model(rng, [2, 2]), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
