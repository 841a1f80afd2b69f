"""Round-trip tests for dataset/instance persistence."""

import json

import numpy as np
import pytest

from repro.datasets.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_meetup_dataset,
    save_instance,
    save_meetup_dataset,
)
from repro.datasets.meetup import generate_meetup_dataset
from repro.utils.errors import InvalidInstanceError

from tests.conftest import make_dense_instance


class TestInstanceRoundTrip:
    def test_dict_round_trip(self):
        instance = make_dense_instance(12, 3, seed=1)
        restored = instance_from_dict(instance_to_dict(instance))
        assert restored.workers == instance.workers
        assert restored.tasks == instance.tasks
        assert restored.quality == instance.quality
        assert restored.min_group_size == instance.min_group_size
        assert restored.now == instance.now

    def test_file_round_trip(self, tmp_path):
        instance = make_dense_instance(8, 2, seed=2)
        path = tmp_path / "batch.json"
        save_instance(instance, path)
        restored = load_instance(path)
        assert restored.quality == instance.quality
        assert restored.workers == instance.workers

    def test_unknown_version_rejected(self):
        instance = make_dense_instance(5, 2, min_group_size=2, capacity=2, seed=0)
        payload = instance_to_dict(instance)
        payload["format_version"] = 999
        with pytest.raises(ValueError):
            instance_from_dict(payload)

    @pytest.mark.parametrize(
        "side, field, literal",
        [
            ("workers", "radius", "NaN"),
            ("workers", "speed", "Infinity"),
            ("workers", "x", "NaN"),
            ("tasks", "y", "-Infinity"),
            ("tasks", "deadline", "NaN"),
        ],
    )
    def test_non_finite_json_rejected(self, tmp_path, side, field, literal):
        instance = make_dense_instance(5, 2, min_group_size=2, capacity=2, seed=0)
        payload = instance_to_dict(instance)
        payload[side][0][field] = float(literal.replace("Infinity", "inf"))
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(payload))
        assert literal in path.read_text()
        with pytest.raises(InvalidInstanceError):
            load_instance(path)

    def test_solvers_agree_after_round_trip(self, tmp_path):
        from repro.core.tpg import solve_tpg

        instance = make_dense_instance(20, 4, seed=3)
        path = tmp_path / "batch.json"
        save_instance(instance, path)
        restored = load_instance(path)
        assert solve_tpg(restored).total_score() == pytest.approx(
            solve_tpg(instance).total_score()
        )


class TestMeetupRoundTrip:
    def test_npz_round_trip(self, tmp_path):
        dataset = generate_meetup_dataset(
            user_count=60, event_count=25, group_count=12, seed=4
        )
        path = tmp_path / "city.npz"
        save_meetup_dataset(dataset, path)
        restored = load_meetup_dataset(path)
        np.testing.assert_array_equal(
            restored.user_locations, dataset.user_locations
        )
        np.testing.assert_array_equal(
            restored.event_locations, dataset.event_locations
        )
        assert restored.memberships == dataset.memberships
        assert restored.quality == dataset.quality

    def test_empty_memberships_survive(self, tmp_path):
        dataset = generate_meetup_dataset(
            user_count=30, event_count=10, group_count=3, seed=5
        )
        path = tmp_path / "city.npz"
        save_meetup_dataset(dataset, path)
        restored = load_meetup_dataset(path)
        assert len(restored.memberships) == 30
