"""Unit tests for the six GAPBS kernels: correctness of the algorithms
plus the page-touch emission contract."""

import networkx as nx
import numpy as np
import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import PAGE_SIZE, SimulationConfig
from repro.sim.rng import make_rng
from repro.workloads.gapbs import KERNELS, Graph
from repro.workloads.gapbs import tc as tc_module
from repro.workloads.gapbs.base import (
    NEIGHBORS,
    NEIGHBORS_BASE,
    OFFSETS_BASE,
    PROP_BASE,
)
from repro.workloads.gapbs.cc import ConnectedComponentsWorkload
from repro.workloads.gapbs.pagerank import DAMPING, PageRankWorkload
from repro.workloads.gapbs.tc import TriangleCountWorkload, count_triangles

CONFIG = SimulationConfig(dram_pages=(256,), pm_pages=(2048,))


@pytest.fixture(scope="module")
def small_graph():
    return Graph.uniform(200, 600, seed=3)


def drive(workload):
    machine = Machine(CONFIG, "static")
    return run_workload(workload, CONFIG, machine=machine)


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for u in range(graph.n):
        for v in graph.neigh(u).tolist():
            g.add_edge(u, v)
    return g


def test_all_six_kernels_registered():
    assert set(KERNELS) == {"bfs", "sssp", "pr", "cc", "bc", "tc"}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_runs_and_touches_pages(small_graph, name):
    workload = KERNELS[name](small_graph, trials=1, seed=1)
    result = drive(workload)
    assert result.accesses > 0
    assert result.operations == 1  # one trial = one operation


def test_trials_count_as_operations(small_graph):
    workload = KERNELS["bfs"](small_graph, trials=3, seed=1)
    result = drive(workload)
    assert result.operations == 3


def test_cc_matches_networkx(small_graph):
    workload = ConnectedComponentsWorkload(small_graph, max_rounds=50)
    drive(workload)
    assert workload.final_components is not None
    expected = list(nx.connected_components(to_networkx(small_graph)))
    # Same partition: pages in one component share a label.
    labels = workload.final_components
    for component in expected:
        component_labels = {labels[v] for v in component}
        assert len(component_labels) == 1


def test_triangle_count_matches_networkx():
    # A uniform graph, and an R-MAT one whose skewed degrees exercise the
    # degree ordering and the hubs' many wedges.
    for graph in (Graph.uniform(60, 200, seed=8), Graph.rmat(scale=8, seed=4)):
        workload = TriangleCountWorkload(graph)
        drive(workload)
        expected = sum(nx.triangles(to_networkx(graph)).values()) // 3
        assert expected > 0
        assert workload.triangles == expected


def test_triangle_count_is_chunk_size_independent(monkeypatch):
    graph = Graph.rmat(scale=8, seed=4)
    whole = count_triangles(graph)
    monkeypatch.setattr(tc_module, "_WEDGE_CHUNK", 5)
    assert count_triangles(graph) == whole


def test_pagerank_matches_scalar_push_loop():
    graph = Graph.rmat(scale=8, seed=4)
    workload = PageRankWorkload(graph, iterations=4)
    drive(workload)
    # The push loop the kernel vectorizes, one edge at a time.
    n = graph.n
    rank = [1.0 / n] * n
    for __ in range(4):
        next_rank = [(1.0 - DAMPING) / n] * n
        for u in range(n):
            if graph.degree(u):
                share = DAMPING * rank[u] / graph.degree(u)
                for v in graph.neigh(u).tolist():
                    next_rank[v] += share
        rank = next_rank
    assert workload.final_ranks == pytest.approx(rank, rel=1e-12, abs=0)


def test_bc_centrality_matches_networkx(small_graph):
    workload = KERNELS["bc"](small_graph, trials=1, seed=2, n_sources=3)
    drive(workload)
    sources = make_rng(2, "bc-src-0").integers(0, small_graph.n, size=3).tolist()
    g = to_networkx(small_graph)
    expected = np.zeros(small_graph.n)
    for source in sources:
        # networkx halves undirected subset betweenness; Brandes'
        # dependencies from one source count each pair once per end.
        partial = nx.betweenness_centrality_subset(
            g, sources=[source], targets=list(g), normalized=False
        )
        for v, value in partial.items():
            expected[v] += 2 * value
    assert workload.centrality == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_pagerank_sums_to_one(small_graph):
    workload = PageRankWorkload(small_graph, iterations=5)
    drive(workload)
    assert workload.final_ranks is not None
    total = sum(workload.final_ranks)
    # Dangling mass leaks in push PR; the total stays near 1.
    assert 0.5 < total <= 1.001


def test_touch_regions_are_disjoint(small_graph):
    workload = KERNELS["pr"](small_graph, trials=1, seed=1)
    machine = Machine(CONFIG, "static")
    workload.setup(machine)
    seen_regions = set()
    for access in workload.accesses():
        if access.vpage < NEIGHBORS_BASE:
            seen_regions.add("offsets")
        elif access.vpage < PROP_BASE:
            seen_regions.add("edges-or-weights")
        else:
            seen_regions.add("props")
        machine.touch(access.process, access.vpage, is_write=access.is_write)
    assert seen_regions == {"offsets", "edges-or-weights", "props"}


def test_neighbor_touch_lines_reflect_range(small_graph):
    workload = KERNELS["bfs"](small_graph, trials=1, seed=1)
    machine = Machine(CONFIG, "static")
    workload.setup(machine)
    hub = max(range(small_graph.n), key=small_graph.degree)
    vpages, __, lines, __, __ = workload.touch_rows([NEIGHBORS], [hub])
    touches = list(zip(vpages.tolist(), lines.tolist()))
    total_lines = sum(width for __, width in touches)
    byte_span = small_graph.degree(hub) * 4
    assert total_lines >= byte_span // 64
    assert all(width <= PAGE_SIZE // 64 for __, width in touches)
    # The derived stream carries exactly these rows, in a row.
    stream = [(a.vpage, a.lines) for a in workload.accesses()]
    assert any(
        stream[i : i + len(touches)] == touches for i in range(len(stream))
    )


def test_load_workload_separates_load_from_trials(small_graph):
    kernel = KERNELS["bfs"](small_graph, trials=1, seed=1)
    machine = Machine(CONFIG, "static")
    load_result = run_workload(kernel.load_workload(), CONFIG, machine=machine)
    trial_result = run_workload(kernel, CONFIG, machine=machine)
    assert kernel.loaded
    assert load_result.accesses > 0
    # The trial run must not repeat the sequential load pass.
    assert trial_result.accesses < 2 * load_result.accesses + trial_result.operations * small_graph.m_directed * 4


def test_footprint_counts_all_regions(small_graph):
    bfs = KERNELS["bfs"](small_graph)
    sssp = KERNELS["sssp"](small_graph)
    bc = KERNELS["bc"](small_graph)
    assert sssp.footprint_pages() > bfs.footprint_pages()  # weights array
    assert bc.footprint_pages() > bfs.footprint_pages()  # four property arrays


def test_sssp_distances_match_networkx():
    graph = Graph.uniform(80, 240, seed=6)
    workload = KERNELS["sssp"](graph, trials=1, seed=1)
    machine = Machine(CONFIG, "static")
    workload.setup(machine)
    # Re-run the kernel logic capturing distances via a fresh Dijkstra.
    import heapq

    from repro.sim.rng import make_rng

    rng = make_rng(1, "sssp-src-0")
    source = int(rng.integers(0, graph.n))
    dist = {source: 0}
    heap = [(0, source)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        lo = int(graph.offsets[u])
        for k, v in enumerate(graph.neigh(u).tolist()):
            nd = d + int(workload.weights[lo + k])
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for u in range(graph.n):
        lo = int(graph.offsets[u])
        for k, v in enumerate(graph.neigh(u).tolist()):
            w = int(workload.weights[lo + k])
            if g.has_edge(u, v):
                w = min(w, g[u][v]["weight"])
            g.add_edge(u, v, weight=w)
    expected = nx.single_source_dijkstra_path_length(g, source, weight="weight")
    # networkx uses the min weight of the two directions per undirected
    # edge, so its distances lower-bound ours; reachability must agree.
    assert set(expected) == set(dist)
    for v, d in expected.items():
        assert dist[v] >= d
