"""Tests for the auto-tuning harness (``repro.tune``).

Covers the four pillars the tuning CI job stands on: deterministic
dataset passports, deterministic grid expansion and loading (including
the stdlib YAML-subset fallback), objective scoring with guardrails and
earliest-index tie-breaking, and the best_config round-trip — a winning
configuration must rebuild through :class:`NEATConfig` and replay its
clusters byte-identically.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.core.config import NEATConfig
from repro.errors import ConfigError
from repro.experiments.workloads import WorkloadSpec
from repro.tune.grid import (
    REGION_BASE_EPS,
    _parse_minimal_yaml,
    expand_grid,
    load_grid,
    overlay_config,
    pick_best,
    score_rows,
    validate_grid,
)
from repro.tune.passport import (
    SUMMARY_COLUMNS,
    build_passport,
    distribution,
    passports_artifact,
    summary_csv,
    write_passport,
)
from repro.tune.profiles import PROFILES, add_profile_argument, resolve_profile
from repro.tune.sweep import (
    BEST_CONFIG_SCHEMA,
    best_config_to_neat,
    reproduce_best_config,
    sweep_workload,
)

REPO = Path(__file__).resolve().parent.parent

#: One tiny fixture workload shared by the passport and sweep tests —
#: small enough that a full grid sweep over it stays in the millisecond
#: range, rich enough to produce flows and clusters.
FIXTURE_SPEC = WorkloadSpec("ATL", 10, network_scale=0.05)

TINY_GRID = {
    "base": {"min_card": 0, "min_pts": 1},
    "grid": {
        "eps_scale": [0.5, 1.0],
        "use_elb": [False, True],
    },
    "objective": {
        "minimize": "total_s",
        "guardrails": {"min_clusters": 1, "min_flows": 1},
    },
}


class TestProfiles:
    def test_ladder_names(self):
        assert sorted(PROFILES) == ["medium", "small", "stress"]
        for name, profile in PROFILES.items():
            assert profile.name == name
            assert profile.specs

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown profile"):
            resolve_profile("gigantic")

    def test_smoke_resolution(self):
        stress = resolve_profile("stress")
        assert stress.resolved_specs(smoke=False) == stress.specs
        assert stress.resolved_specs(smoke=True) == stress.smoke_specs
        assert stress.bench_spec(smoke=True).object_count == 150
        # Profiles without smoke stand-ins are their own smoke rung.
        small = resolve_profile("small")
        assert small.resolved_specs(smoke=True) == small.specs

    def test_shared_flag(self):
        import argparse

        parser = argparse.ArgumentParser()
        add_profile_argument(parser, default="small")
        assert parser.parse_args([]).profile == "small"
        assert parser.parse_args(["--profile", "stress"]).profile == "stress"
        with pytest.raises(SystemExit):
            parser.parse_args(["--profile", "gigantic"])


class TestStressSmoke:
    def test_counters_within_committed_bounds(self):
        # The stress rung's CI stand-in, at the paper's 6500 m eps scaled
        # with the 0.2 map; its counters are deterministic, so a 10% rise
        # means fragmentation or merging changed.
        from repro.core.pipeline import NEAT
        from repro.experiments.workloads import build_dataset, build_network

        spec = resolve_profile("stress").bench_spec(smoke=True)
        network = build_network(spec.region, spec.network_scale, spec.seed)
        dataset = build_dataset(network, spec)
        result = NEAT(network, NEATConfig(eps=1300.0)).run_opt(dataset)
        t_fragments = sum(len(c.fragments) for c in result.base_clusters)
        assert t_fragments <= 1.10 * 3_906
        assert 0 < len(result.flows) <= 1.10 * 13
        assert len(result.clusters) <= 1.10 * 8


class TestPassport:
    @pytest.fixture(scope="class")
    def passport(self):
        return build_passport(FIXTURE_SPEC, profile="small")

    def test_deterministic(self, passport):
        # Byte-stable: a rebuild of the same spec is the same document.
        again = build_passport(FIXTURE_SPEC, profile="small")
        assert json.dumps(passport, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_internally_consistent(self, passport):
        dataset = passport["dataset"]
        network = passport["network"]
        assert dataset["trajectories"] == FIXTURE_SPEC.object_count
        per_trajectory = dataset["points_per_trajectory"]
        assert per_trajectory["count"] == dataset["trajectories"]
        assert dataset["total_points"] == pytest.approx(
            per_trajectory["mean"] * dataset["trajectories"]
        )
        density = dataset["density"]
        assert 0 < density["visited_segments"] <= network["segments"]
        assert density["segment_coverage"] == round(
            density["visited_segments"] / network["segments"], 6
        )
        sf = dataset["sf_components"]
        # Flow q counts distinct trajectories per segment — bounded by
        # the dataset size; density k counts points per segment.
        assert sf["flow_q"]["max"] <= dataset["trajectories"]
        assert sf["density_k"]["count"] == density["visited_segments"]
        assert sf["speed_v"]["min"] > 0

    def test_distribution_is_nearest_rank(self):
        sample = [5.0, 1.0, 3.0, 2.0, 4.0]
        stats = distribution(sample)
        assert stats == {
            "count": 5, "min": 1.0, "max": 5.0,
            "mean": 3.0, "median": 3.0,
            "p90": 4.0,  # int(0.9 * 4) == 3 -> sorted[3]
        }
        assert distribution([])["count"] == 0

    def test_write_and_summary(self, passport, tmp_path):
        path = write_passport(passport, tmp_path / "p.json")
        assert json.loads(path.read_text()) == passport
        csv_text = summary_csv([passport])
        lines = csv_text.strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 2
        assert lines[1].startswith(f"{passport['dataset']['name']},ATL,")

    def test_artifact_totals(self, passport):
        artifact = passports_artifact([passport, passport], "small")
        assert artifact["datasets_count"] == 2
        assert artifact["total_points"] == 2 * passport["dataset"]["total_points"]
        assert passport["dataset"]["name"] in artifact["datasets"]


class TestGridLoading:
    def test_fallback_parser_matches_pyyaml_on_committed_grid(self):
        yaml = pytest.importorskip("yaml")
        text = (REPO / "tune_grid.yaml").read_text(encoding="utf-8")
        assert _parse_minimal_yaml(text) == yaml.safe_load(text)

    def test_load_committed_grid_validates(self):
        document = validate_grid(load_grid(REPO / "tune_grid.yaml"))
        assert set(document["grid"]) == {"weights", "eps_scale"}
        assert document["objective"]["minimize"] == "total_s"

    def test_minimal_parser_subset(self):
        parsed = _parse_minimal_yaml(
            "base:\n"
            "  min_card: 0\n"
            "  label: 'x'\n"
            "grid:\n"
            "  eps_scale: [0.5, 1.0]   # inline list\n"
            "  flags:\n"
            "    - true\n"
            "    - false\n"
        )
        assert parsed == {
            "base": {"min_card": 0, "label": "x"},
            "grid": {"eps_scale": [0.5, 1.0], "flags": [True, False]},
        }

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            validate_grid(["not", "a", "mapping"])
        with pytest.raises(ConfigError, match="'grid'"):
            validate_grid({"grid": {}})
        with pytest.raises(ConfigError, match="non-empty list"):
            validate_grid({"grid": {"eps_scale": []}})
        with pytest.raises(ConfigError, match="guardrail"):
            validate_grid({
                "grid": {"eps_scale": [1.0]},
                "objective": {"guardrails": {"clusters": 1}},
            })


class TestGridExpansion:
    def test_deterministic_order(self):
        # Axes sorted by name; the last (alphabetically) axis is fastest.
        overlays = expand_grid({"b": [1, 2], "a": [10, 20]})
        assert overlays == [
            {"a": 10, "b": 1},
            {"a": 10, "b": 2},
            {"a": 20, "b": 1},
            {"a": 20, "b": 2},
        ]

    def test_overlay_resolves_conveniences(self):
        config = overlay_config(
            {"min_card": 0},
            {"weights": [0.5, 0.5, 0.0], "eps_scale": 2.0},
            "MIA",
        )
        assert (config.wq, config.wk, config.wv) == (0.5, 0.5, 0.0)
        assert config.eps == 2.0 * REGION_BASE_EPS["MIA"]
        assert config.min_card == 0

    def test_explicit_eps_beats_region_default(self):
        config = overlay_config({"eps": 100.0}, {"eps_scale": 3.0}, "ATL")
        assert config.eps == 300.0

    def test_bad_weights_raise(self):
        with pytest.raises(ConfigError, match="triple"):
            overlay_config({}, {"weights": [0.5, 0.5]}, "ATL")

    def test_unknown_field_raises(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            overlay_config({}, {"epsilon": 800.0}, "ATL")


class TestScoring:
    ROWS = [
        {"total_s": 2.0, "clusters": 5},
        {"total_s": 1.0, "clusters": 0},   # fails min_clusters
        {"total_s": 1.5, "clusters": 3},
        {"total_s": 1.5, "clusters": 4},   # ties with index 2
    ]
    OBJECTIVE = {"minimize": "total_s", "guardrails": {"min_clusters": 1}}

    def test_guardrails_disqualify(self):
        scored = score_rows(self.ROWS, self.OBJECTIVE)
        assert [row["qualified"] for row in scored] == [
            True, False, True, True,
        ]
        assert scored[1]["guardrail_failures"] == ["min_clusters: 0 < 1"]
        # Disqualified rows keep their score for the results doc.
        assert scored[1]["score"] == 1.0

    def test_ties_elect_earliest_index(self):
        scored = score_rows(self.ROWS, self.OBJECTIVE)
        assert pick_best(scored) == 2

    def test_none_when_nothing_qualifies(self):
        scored = score_rows(
            self.ROWS, {"minimize": "total_s",
                        "guardrails": {"min_clusters": 99}},
        )
        assert pick_best(scored) is None

    def test_missing_objective_field_raises(self):
        with pytest.raises(ConfigError, match="objective field"):
            score_rows([{"clusters": 1}], {"minimize": "total_s"})


class TestConfigRoundTrip:
    def test_round_trip_defaults(self):
        config = NEATConfig()
        assert NEATConfig.from_dict(config.to_dict()) == config

    def test_infinity_encodes_as_string(self):
        document = NEATConfig().to_dict()
        assert document["beta"] == "inf"   # JSON-portable
        assert math.isinf(NEATConfig.from_dict(document).beta)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            NEATConfig.from_dict({"nope": 1})


class TestSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return sweep_workload(FIXTURE_SPEC, TINY_GRID, "small")

    def test_report_shape(self, report):
        assert report["grid_configs"] == 4
        assert len(report["rows"]) == 4
        assert report["best_index"] is not None
        # Grid order: eps_scale before use_elb, use_elb fastest.
        assert [row["axis.eps_scale"] for row in report["rows"]] == [
            0.5, 0.5, 1.0, 1.0,
        ]
        assert [row["axis.use_elb"] for row in report["rows"]] == [
            False, True, False, True,
        ]

    def test_elb_never_changes_clusters(self, report):
        # The ELB only prunes pairs it proves farther than eps apart (a
        # metamorphic property of Phase 3): rows that differ only in
        # use_elb must carry identical digests, while the ELB-on rows
        # settle no more searches.
        rows = report["rows"]
        for off, on in ((rows[0], rows[1]), (rows[2], rows[3])):
            assert off["digest"] == on["digest"]
            assert on["sp_computations"] <= off["sp_computations"]

    def test_best_config_reproduces_byte_identically(self, report):
        best = report["best_config"]
        assert best["schema"] == BEST_CONFIG_SCHEMA
        matches, fresh = reproduce_best_config(best)
        assert matches and fresh == best["digest"]

    def test_best_config_round_trips_through_neatconfig(self, report):
        best = report["best_config"]
        config = best_config_to_neat(best)
        assert config == NEATConfig.from_dict(best["config"])
        # A bare config mapping (repro cluster --config) works too.
        assert best_config_to_neat(best["config"]) == config


class TestCommittedArtifacts:
    @pytest.mark.parametrize("region", ["ATL", "SJ", "MIA"])
    def test_committed_best_configs_parse(self, region):
        path = REPO / "benchmarks" / "tuning" / "best_config" / f"{region}.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["schema"] == BEST_CONFIG_SCHEMA
        assert document["region"] == region
        config = best_config_to_neat(document)
        assert isinstance(config, NEATConfig)
        assert len(document["digest"]) == 64

    @pytest.mark.parametrize("region", ["ATL", "SJ", "MIA"])
    def test_committed_best_configs_reproduce(self, region):
        """Each committed winner still clusters to its recorded digest."""
        path = REPO / "benchmarks" / "tuning" / "best_config" / f"{region}.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        matches, fresh = reproduce_best_config(document)
        assert matches, f"{region}: {fresh} != {document['digest']}"

    def test_committed_grid_expands(self):
        document = validate_grid(load_grid(REPO / "tune_grid.yaml"))
        overlays = expand_grid(document["grid"])
        assert len(overlays) == 9  # 3 weights x 3 eps_scale
