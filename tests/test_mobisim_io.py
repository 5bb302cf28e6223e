"""Unit tests for trajectory dataset serialization and summaries."""

from __future__ import annotations

import pytest

from repro.core.model import TrajectoryDataset
from repro.errors import TrajectoryError
from repro.mobisim.dataset import dataset_summary, format_table2
from repro.mobisim.io import (
    dataset_from_dict,
    dataset_to_dict,
    load_dataset,
    save_dataset,
)

from conftest import trajectory_through


@pytest.fixture
def dataset(line3):
    trs = tuple(trajectory_through(line3, i, [0, 1, 2]) for i in range(3))
    return TrajectoryDataset(
        "T3", trs, network_name="line", metadata={"seed": 5}
    )


class TestRoundTrip:
    def test_dict_roundtrip(self, dataset):
        restored = dataset_from_dict(dataset_to_dict(dataset))
        assert restored.name == dataset.name
        assert restored.network_name == dataset.network_name
        assert restored.metadata == dataset.metadata
        assert restored.total_points == dataset.total_points
        for a, b in zip(restored, dataset):
            assert a == b

    def test_file_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "traces.json"
        save_dataset(dataset, path)
        restored = load_dataset(path)
        assert restored.total_points == dataset.total_points

    def test_junction_marks_survive(self, line3, tmp_path):
        from repro.core.model import Trajectory
        from reference_phase1 import insert_junction_points

        tr = trajectory_through(line3, 0, [0, 1])
        augmented = Trajectory(0, tuple(insert_junction_points(line3, tr)))
        dataset = TrajectoryDataset("j", (augmented,))
        restored = dataset_from_dict(dataset_to_dict(dataset))
        marks = [l.node_id for l in restored.trajectories[0].locations]
        assert marks == [l.node_id for l in augmented.locations]


class TestValidation:
    def test_rejects_wrong_format(self):
        with pytest.raises(TrajectoryError):
            dataset_from_dict({"format": "nope", "version": 1})

    def test_rejects_wrong_version(self, dataset):
        data = dataset_to_dict(dataset)
        data["version"] = 42
        with pytest.raises(TrajectoryError):
            dataset_from_dict(data)


class TestSummaries:
    def test_dataset_summary(self, dataset):
        summary = dataset_summary(dataset)
        assert summary["name"] == "T3"
        assert summary["trajectories"] == 3
        assert summary["total_points"] == dataset.total_points
        assert summary["min_points"] <= summary["avg_points"] <= summary["max_points"]

    def test_format_table2(self, dataset):
        text = format_table2({"ATL": [dataset], "SJ": [dataset]})
        assert "Datasets" in text
        assert "ATL" in text and "SJ" in text
        assert str(dataset.total_points) in text

    def test_format_table2_empty(self):
        assert format_table2({}) == "(no datasets)"
