"""Tests for GeoJSON export."""

from __future__ import annotations

import json

import pytest

from repro import solve
from repro.core.instance import MCFSInstance
from repro.errors import GraphError
from repro.io.geojson import (
    export_scenario,
    instance_to_geojson,
    network_to_geojson,
    solution_to_geojson,
)
from repro.network.graph import Network
from tests.conftest import build_grid_network


def grid_instance() -> MCFSInstance:
    return MCFSInstance(
        network=build_grid_network(4, 4),
        customers=(0, 3, 3, 12),
        facility_nodes=(5, 10),
        capacities=(3, 3),
        k=2,
    )


class TestGeojson:
    def test_network_features(self):
        g = build_grid_network(3, 3)
        fc = network_to_geojson(g)
        assert fc["type"] == "FeatureCollection"
        assert len(fc["features"]) == g.n_edges
        feature = fc["features"][0]
        assert feature["geometry"]["type"] == "LineString"
        assert feature["properties"]["kind"] == "edge"

    def test_requires_coords(self):
        g = Network(2, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            network_to_geojson(g)

    def test_instance_merges_colocated_customers(self):
        fc = instance_to_geojson(grid_instance())
        customers = [
            f for f in fc["features"] if f["properties"]["kind"] == "customer"
        ]
        by_node = {f["properties"]["node"]: f["properties"]["count"] for f in customers}
        assert by_node[3] == 2
        assert by_node[0] == 1
        candidates = [
            f for f in fc["features"] if f["properties"]["kind"] == "candidate"
        ]
        assert len(candidates) == 2
        assert candidates[0]["properties"]["capacity"] == 3

    def test_solution_layers(self):
        inst = grid_instance()
        sol = solve(inst, method="wma")
        fc = solution_to_geojson(inst, sol)
        kinds = [f["properties"]["kind"] for f in fc["features"]]
        assert kinds.count("facility") == len(sol.selected)
        assert kinds.count("assignment") == inst.m
        loads = {
            f["properties"]["facility_index"]: f["properties"]["load"]
            for f in fc["features"]
            if f["properties"]["kind"] == "facility"
        }
        assert sum(loads.values()) == inst.m

    def test_solution_without_lines(self):
        inst = grid_instance()
        sol = solve(inst, method="wma")
        fc = solution_to_geojson(inst, sol, include_assignment_lines=False)
        kinds = {f["properties"]["kind"] for f in fc["features"]}
        assert "assignment" not in kinds

    def test_export_scenario_round_trip(self, tmp_path):
        inst = grid_instance()
        sol = solve(inst, method="wma")
        path = tmp_path / "scenario.json"
        export_scenario(inst, sol, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"network", "instance", "solution"}

    def test_export_without_solution(self, tmp_path):
        path = tmp_path / "scenario.json"
        export_scenario(grid_instance(), None, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"network", "instance"}
