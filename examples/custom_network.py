#!/usr/bin/env python3
"""Bring your own map: cluster trajectories on a CSV road network.

Real deployments rarely start from a generator — they have a node table
and an edge table exported from a GIS.  This example writes a small
hand-made downtown (two parallel avenues, cross streets, one bridge
whose network distance wildly exceeds its Euclidean distance), loads it
back through the CSV importer, and shows why NEAT's *network* proximity
matters: the two bridgeheads are 80 m apart in Euclidean space but far
apart on the road network, so flows on opposite banks only merge when the
refinement threshold accounts for the true travel distance.

Run:  python examples/custom_network.py
"""

from pathlib import Path

from repro.core import NEAT, NEATConfig, Location, Trajectory
from repro.roadnet import load_network_csv
from repro.roadnet.shortest_path import ShortestPathEngine

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# --- 1. Author the map as CSV (a GIS export would produce the same). ---
# Two banks of a river (y=0 and y=80), one bridge at the far east end.
nodes_csv = OUT / "downtown_nodes.csv"
edges_csv = OUT / "downtown_edges.csv"
nodes = ["node_id,x,y"]
for i in range(6):  # south bank: nodes 0..5 along y=0
    nodes.append(f"{i},{i * 200},0")
for i in range(6):  # north bank: nodes 6..11 along y=80
    nodes.append(f"{6 + i},{i * 200},80")
nodes_csv.write_text("\n".join(nodes) + "\n")

edges = ["sid,node_u,node_v,speed_limit,road_class"]
sid = 0
for i in range(5):  # south avenue
    edges.append(f"{sid},{i},{i + 1},13.9,local"); sid += 1
for i in range(5):  # north avenue
    edges.append(f"{sid},{6 + i},{7 + i},13.9,local"); sid += 1
edges.append(f"{sid},5,11,8.3,bridge")  # the only river crossing
bridge_sid = sid
edges_csv.write_text("\n".join(edges) + "\n")

network = load_network_csv(nodes_csv, edges_csv, name="downtown")
print(f"Loaded {network}")

# The Euclidean vs network gap at the west bridgeheads (nodes 0 and 6):
euclid = network.node_point(0).distance_to(network.node_point(6))
net = ShortestPathEngine(network).distance(0, 6)
print(
    f"West bridgeheads: Euclidean {euclid:.0f} m, network {net:.0f} m "
    f"({net / euclid:.0f}x further by road)"
)

# --- 2. Hand-authored trajectories: one commuter stream per bank. ---
def stream(trid0, sids, count):
    trips = []
    for k in range(count):
        locations = []
        t = 10.0 * k
        for s in sids:
            seg = network.segment(s)
            a = network.point_on_segment(s, seg.length / 3)
            b = network.point_on_segment(s, 2 * seg.length / 3)
            locations += [
                Location(s, a.x, a.y, t), Location(s, b.x, b.y, t + 5.0)
            ]
            t += 10.0
        trips.append(Trajectory(trid0 + k, tuple(locations)))
    return trips

south = stream(0, [0, 1, 2, 3, 4], 6)
north = stream(100, [5, 6, 7, 8, 9], 6)

# --- 3. Cluster at two refinement radii. ---
for eps in (100.0, 1500.0):
    result = NEAT(network, NEATConfig(eps=eps, min_card=0)).run_opt(south + north)
    print(
        f"eps={eps:>6.0f} m -> {result.flow_count} flows, "
        f"{result.cluster_count} final clusters"
    )

print(
    "\nAt eps=100 m the banks stay separate even though they are 80 m "
    "apart in Euclidean space: NEAT measures the route over the bridge. "
    "A Euclidean method would have merged them immediately — the paper's "
    "'trajectories on and under a bridge' argument (Section I)."
)
