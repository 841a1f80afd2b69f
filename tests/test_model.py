"""Tests for the problem model (Definitions 1-4 validation)."""

import numpy as np
import pytest

from repro.core.model import Instance, Task, Worker
from repro.core.quality import CooperationMatrix
from repro.spatial.geometry import Point
from repro.utils.errors import InvalidInstanceError


def simple_instance(**overrides):
    defaults = dict(
        workers=[
            Worker(worker_id=0, location=Point(0.1, 0.1), speed=0.5, radius=0.5),
            Worker(worker_id=1, location=Point(0.2, 0.2), speed=0.5, radius=0.5),
            Worker(worker_id=2, location=Point(0.3, 0.3), speed=0.5, radius=0.5),
        ],
        tasks=[Task(task_id=0, location=Point(0.2, 0.2), capacity=3, deadline=2.0)],
        quality=CooperationMatrix.random_uniform(3, seed=0),
        min_group_size=2,
        now=0.0,
    )
    defaults.update(overrides)
    return Instance(**defaults)


class TestWorker:
    def test_negative_speed_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Worker(worker_id=0, location=Point(0, 0), speed=-1.0, radius=0.5)

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Worker(worker_id=0, location=Point(0, 0), speed=1.0, radius=-0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("speed", float("nan")),
            ("speed", float("inf")),
            ("radius", float("nan")),
            ("radius", float("inf")),
            ("location", Point(float("nan"), 0.5)),
            ("location", Point(0.5, float("-inf"))),
        ],
        ids=["speed-nan", "speed-inf", "radius-nan", "radius-inf", "x-nan", "y-inf"],
    )
    def test_non_finite_fields_rejected(self, field, value):
        fields = dict(worker_id=0, location=Point(0, 0), speed=1.0, radius=0.5)
        fields[field] = value
        with pytest.raises(InvalidInstanceError):
            Worker(**fields)

    def test_moved_to(self):
        worker = Worker(worker_id=3, location=Point(0, 0), speed=1.0, radius=0.5)
        moved = worker.moved_to(Point(1, 1))
        assert moved.location == Point(1, 1)
        assert moved.worker_id == 3
        assert worker.location == Point(0, 0)  # original untouched


class TestTask:
    def test_capacity_validation(self):
        with pytest.raises(InvalidInstanceError):
            Task(task_id=0, location=Point(0, 0), capacity=0, deadline=1.0)

    def test_deadline_before_creation_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Task(
                task_id=0,
                location=Point(0, 0),
                capacity=3,
                deadline=1.0,
                created_time=2.0,
            )

    @pytest.mark.parametrize(
        "location",
        [Point(float("nan"), 0.0), Point(0.0, float("inf"))],
        ids=["x-nan", "y-inf"],
    )
    def test_non_finite_location_rejected(self, location):
        with pytest.raises(InvalidInstanceError):
            Task(task_id=0, location=location, capacity=3, deadline=1.0)

    def test_nan_deadline_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Task(task_id=0, location=Point(0, 0), capacity=3, deadline=float("nan"))

    def test_infinite_deadline_allowed(self):
        task = Task(task_id=0, location=Point(0, 0), capacity=3, deadline=float("inf"))
        assert task.remaining_time(1e9) == float("inf")

    def test_remaining_time(self):
        task = Task(task_id=0, location=Point(0, 0), capacity=3, deadline=5.0)
        assert task.remaining_time(2.0) == 3.0
        assert task.remaining_time(6.0) == -1.0


class TestInstance:
    def test_valid_construction(self):
        instance = simple_instance()
        assert instance.worker_count == 3
        assert instance.task_count == 1

    def test_min_group_size_validation(self):
        with pytest.raises(InvalidInstanceError):
            simple_instance(min_group_size=1)

    def test_matrix_shape_validation(self):
        with pytest.raises(InvalidInstanceError):
            simple_instance(quality=CooperationMatrix.random_uniform(5, seed=0))

    def test_capacity_below_b_rejected(self):
        with pytest.raises(InvalidInstanceError):
            simple_instance(
                tasks=[
                    Task(task_id=0, location=Point(0, 0), capacity=2, deadline=2.0)
                ],
                min_group_size=3,
                quality=CooperationMatrix.random_uniform(3, seed=0),
            )

    def test_location_arrays(self):
        instance = simple_instance()
        np.testing.assert_allclose(
            instance.worker_locations(),
            [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]],
        )
        np.testing.assert_allclose(instance.task_locations(), [[0.2, 0.2]])
        assert instance.capacities().tolist() == [3]

    def test_is_pair_valid(self):
        instance = simple_instance()
        assert instance.is_pair_valid(0, 0)

    def test_pair_invalid_outside_radius(self):
        instance = simple_instance(
            workers=[
                Worker(worker_id=0, location=Point(0.9, 0.9), speed=5.0, radius=0.05),
                Worker(worker_id=1, location=Point(0.2, 0.2), speed=0.5, radius=0.5),
                Worker(worker_id=2, location=Point(0.3, 0.3), speed=0.5, radius=0.5),
            ]
        )
        assert not instance.is_pair_valid(0, 0)

    def test_pair_invalid_too_slow(self):
        instance = simple_instance(
            workers=[
                Worker(worker_id=0, location=Point(0.9, 0.9), speed=0.01, radius=2.0),
                Worker(worker_id=1, location=Point(0.2, 0.2), speed=0.5, radius=0.5),
                Worker(worker_id=2, location=Point(0.3, 0.3), speed=0.5, radius=0.5),
            ]
        )
        assert not instance.is_pair_valid(0, 0)

    def test_pair_invalid_past_deadline(self):
        instance = simple_instance(now=3.0)
        assert not instance.is_pair_valid(0, 0)

    def test_zero_speed_worker_at_task_location(self):
        instance = simple_instance(
            workers=[
                Worker(worker_id=0, location=Point(0.2, 0.2), speed=0.0, radius=0.5),
                Worker(worker_id=1, location=Point(0.2, 0.2), speed=0.5, radius=0.5),
                Worker(worker_id=2, location=Point(0.3, 0.3), speed=0.5, radius=0.5),
            ]
        )
        assert instance.is_pair_valid(0, 0)

    def test_workers_tuple_immutable(self):
        instance = simple_instance()
        with pytest.raises((TypeError, AttributeError)):
            instance.workers[0] = None
