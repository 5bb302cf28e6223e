"""Figure 7: effectiveness of the Euclidean-lower-bound optimization.

opt-NEAT with ELB pruning vs opt-NEAT computing every shortest path with
Dijkstra, across dataset sizes on both the ATL and SJ networks.  The
report includes the shortest-path counts the pruning avoids, and shows
Phase 3 cost tracking the number of flows (Table III) rather than the
data size.
"""

from __future__ import annotations

from conftest import NEAT_COUNTS

from repro.core.config import NEATConfig
from repro.core.pipeline import NEAT
from repro.experiments.figures import DEFAULT_EPS, run_fig7
from repro.experiments.harness import result_metrics
from repro.experiments.workloads import build_suite


def bench_fig7_elb_sj(benchmark, emit):
    """Time ELB-enabled opt-NEAT on the largest SJ dataset; report sweep."""
    network, datasets = build_suite("SJ", NEAT_COUNTS)
    neat = NEAT(network, NEATConfig(eps=DEFAULT_EPS["SJ"], use_elb=True))
    result = benchmark.pedantic(
        lambda: neat.run_opt(datasets[-1]), rounds=3, iterations=1
    )
    assert result.clusters is not None

    fig = run_fig7("SJ", object_counts=NEAT_COUNTS)
    emit("fig7_elb_sj", fig.render(), metrics=result_metrics(result))
    _emit_chart(fig, "fig7b_elb_sj.svg")
    for row in fig.rows:
        _name, _points, _flows, _elb_s, _dij_s, sp_elb, sp_dij = row
        assert sp_elb <= sp_dij, "ELB must never add shortest paths"


def _emit_chart(fig, filename: str) -> None:
    """Regenerate a Figure 7 panel as SVG."""
    from conftest import OUTPUT_DIR

    from repro.analysis.charts import LineChart

    chart = LineChart(
        f"Figure 7: opt-NEAT-ELB vs opt-NEAT-Dijkstra ({fig.region})",
        x_label="points in dataset",
        y_label="seconds",
    )
    chart.add_series("opt-NEAT-ELB", [(r[1], r[3]) for r in fig.rows])
    chart.add_series("opt-NEAT-Dijkstra", [(r[1], r[4]) for r in fig.rows])
    chart.save(OUTPUT_DIR / filename)


def bench_fig7_dijkstra_sj(benchmark):
    """The unpruned counterpart (the paper's opt-NEAT-Dijkstra curve)."""
    network, datasets = build_suite("SJ", NEAT_COUNTS)
    neat = NEAT(network, NEATConfig(eps=DEFAULT_EPS["SJ"], use_elb=False))
    result = benchmark.pedantic(
        lambda: neat.run_opt(datasets[-1]), rounds=3, iterations=1
    )
    assert result.clusters is not None


def bench_fig7_elb_atl(benchmark, emit):
    """The ATL panel of Figure 7."""
    network, datasets = build_suite("ATL", NEAT_COUNTS)
    neat = NEAT(network, NEATConfig(eps=DEFAULT_EPS["ATL"], use_elb=True))
    result = benchmark.pedantic(
        lambda: neat.run_opt(datasets[-1]), rounds=3, iterations=1
    )
    assert result.clusters is not None

    fig = run_fig7("ATL", object_counts=NEAT_COUNTS)
    emit("fig7_elb_atl", fig.render(), metrics=result_metrics(result))
    _emit_chart(fig, "fig7a_elb_atl.svg")
