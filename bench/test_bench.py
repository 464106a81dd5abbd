"""Smoke test and independent oracles for the benchmark.

    python -m pytest bench

The oracles never call scalecover: homology comes from sympy's Smith form of
boundary matrices built here, components and covers from networkx, groups
from sympy's permutation groups, and towers by brute force.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import networkx as nx
import pytest
import sympy
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.matrices.normalforms import smith_normal_form

import answers
import gen
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


def smallest_jobs(workload, seed=7):
    return workloads.build_pass(workload, random.Random(seed), smallest=True)


# -- reading the generated inputs, without scalecover ------------------------

def scale_graphs(job):
    """One networkx graph per scale of the job's (source) space."""
    if job.ext == ".csv":
        matrix = [[int(c) for c in line.split(",")] for line in job.text.splitlines()]
        radii = [int(r) for r in job.flags[job.flags.index("--radii") + 1].split(",")]
        return _threshold(list(range(len(matrix))), matrix, radii)
    spec = json.loads(job.text)
    spec = spec.get("space", spec.get("source", spec))
    if "matrix" in spec:
        return _threshold(spec["names"], spec["matrix"], spec["radii"])
    graphs = []
    for pairs in spec["scales"]:
        g = nx.Graph()
        g.add_nodes_from(spec["points"])
        g.add_edges_from((a, b) for a, b in pairs if a != b)
        graphs.append(g)
    return graphs


def _threshold(points, matrix, radii):
    graphs = []
    for r in radii:
        g = nx.Graph()
        g.add_nodes_from(points)
        g.add_edges_from((points[i], points[j]) for i, j in
                         itertools.combinations(range(len(points)), 2) if matrix[i][j] <= r)
        graphs.append(g)
    return graphs


def h1_oracle(g):
    """(components, rank, torsion) of H1 of the clique 2-complex of g."""
    order = {v: i for i, v in enumerate(g.nodes)}
    edges = sorted(tuple(sorted(e, key=order.get)) for e in g.edges)
    eindex = {e: i for i, e in enumerate(edges)}
    triangles = [t for t in itertools.combinations(sorted(g.nodes, key=order.get), 3)
                 if g.has_edge(t[0], t[1]) and g.has_edge(t[1], t[2]) and g.has_edge(t[0], t[2])]
    d1 = sympy.zeros(len(order), len(edges))
    for j, (a, b) in enumerate(edges):
        d1[order[a], j], d1[order[b], j] = -1, 1
    d2 = sympy.zeros(len(edges), max(len(triangles), 1))
    for j, (a, b, c) in enumerate(triangles):
        d2[eindex[(a, b)], j] += 1
        d2[eindex[(b, c)], j] += 1
        d2[eindex[(a, c)], j] -= 1
    snf = smith_normal_form(d2, domain=sympy.ZZ)
    diag = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
    rank = len(edges) - d1.rank() - len(diag)
    return nx.number_connected_components(g), rank, [d for d in diag if d > 1]


# -- homology -----------------------------------------------------------------

@pytest.mark.parametrize("job", smallest_jobs("homology"), ids=lambda j: j.family)
def test_homology_smallest_rung_matches_oracle(job):
    per_scale = [h1_oracle(g) for g in scale_graphs(job)]
    assert [list(p) for p in per_scale] == job.expect["per_scale"]
    for k in range(1, len(per_scale)):
        if per_scale[k - 1][1:] != per_scale[k][1:]:
            assert [k, k + 1] in job.expect["critical_scales"]


# -- covers -------------------------------------------------------------------

def ball_size(steps, radius, dim):
    """Vertices within `radius` moves of 0 in Z^dim, one move being any
    nonzero vector with entries in [-steps, steps] (the universal cover)."""
    span = steps * radius
    g = nx.Graph()
    moves = [m for m in itertools.product(range(-steps, steps + 1), repeat=dim) if any(m)]
    for p in itertools.product(range(-span, span + 1), repeat=dim):
        for m in moves:
            q = tuple(a + b for a, b in zip(p, m))
            if all(abs(c) <= span for c in q):
                g.add_edge(p, q)
    return len(nx.ego_graph(g, (0,) * dim, radius=radius))


@pytest.mark.parametrize("job", smallest_jobs("covers"), ids=lambda j: j.family)
def test_covers_smallest_rung_matches_oracle(job):
    graphs = scale_graphs(job)
    scale = int(job.flags[job.flags.index("--scale") + 1])
    radius = int(job.flags[job.flags.index("--radius") + 1])
    g = graphs[scale - 1]
    _, rank, torsion = h1_oracle(g)
    expected = job.expect["num_vertices"]
    if job.family == "king_torus":
        assert (rank, torsion) == (2, [])
        assert ball_size(1, radius, 2) == expected
    elif job.family == "cycle":
        step = max(len(list(g.neighbors(v))) for v in g.nodes) // 2
        assert (rank, torsion) == (1, [])
        assert ball_size(step, radius, 1) == expected
    else:  # rp2 and thickened cycles: finite fundamental groups, abelian here
        order = sympy.prod(torsion)
        assert rank == 0
        assert order * g.number_of_nodes() == expected


# -- maps and actions --------------------------------------------------------

def test_rotation_action_smallest_rung_matches_oracle():
    job = next(j for j in smallest_jobs("maps_actions") if j.family == "rotation_action")
    spec = json.loads(job.text)
    points = spec["space"]["names"]
    perm = [points.index(p) for p in spec["generators"][0]]
    group = PermutationGroup([Permutation(perm)])
    assert group.order() == job.expect["group_order"]
    assert group.is_abelian == job.expect["normal"]
    matrix, radii = spec["space"]["matrix"], spec["space"]["radii"]
    elements = [list(g.array_form) for g in group.elements if not g.is_Identity]
    qualifying = [k for k, r in enumerate(radii, start=1)
                  if all(matrix[i][g[i]] > r for g in elements for i in range(len(perm)))]
    assert max(qualifying) == job.expect["upd_scale"]


def test_wrap_map_smallest_rung_is_a_covering_at_every_scale():
    job = next(j for j in smallest_jobs("maps_actions") if j.family == "wrap_map")
    spec = json.loads(job.text)
    f = dict(zip(spec["source"]["names"], spec["assignment"]))
    for src, tgt in zip(scale_graphs(job), _threshold(spec["target"]["names"],
                                                      spec["target"]["matrix"],
                                                      spec["target"]["radii"])):
        for x in src.nodes:
            upstairs = [f[y] for y in src.neighbors(x)]
            assert sorted(upstairs) == sorted(tgt.neighbors(f[x]))  # a local bijection
    assert job.expect == {"gucm_passed": True}


def test_discrete_tower_smallest_rung_matches_brute_force():
    job = next(j for j in smallest_jobs("maps_actions") if j.family == "discrete_tower")
    spec = json.loads(job.text)
    bottom, top = (s["points"] for s in spec["spaces"])
    bond = dict(zip(top, spec["bondings"][0]))
    threads = [(x1, x2) for x1, x2 in itertools.product(bottom, top) if bond[x2] == x1]
    pairs = list(itertools.combinations(threads, 2))
    # limit scales: pairs agreeing in X_1, then pairs agreeing in X_1 and X_2
    same_x1 = {p for p in pairs if p[0][0] == p[1][0]}
    relations = [same_x1, {p for p in same_x1 if p[0][1] == p[1][1]}]
    depth = 1 + sum(a != b for a, b in zip(relations, relations[1:]))
    assert job.expect == {"threads": len(threads), "limit_depth": depth,
                          "limit_hausdorff": not relations[-1],
                          "strong_ml": set(bond.values()) == set(bottom)}


# -- the benchmark itself -----------------------------------------------------

def test_same_seed_gives_byte_identical_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.build_pass(workload, random.Random("x/1/0"))
        b = workloads.build_pass(workload, random.Random("x/1/0"))
        c = workloads.build_pass(workload, random.Random("x/2/0"))
        assert [j.text for j in a] == [j.text for j in b]
        assert all(x.text != y.text for x, y in zip(a, c))


@pytest.fixture
def in_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.chdir(run.ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_smallest_rungs_pass_their_known_answers(workload, in_checkout):
    result = run.run_pass(*run.write_inputs(workload, 1, 0, smallest=True), 0, traced=True)
    assert [j["error"] for j in result["jobs"]] == [None] * len(result["jobs"])
    assert all(j["ok"] for j in result["jobs"]), result["jobs"]
    for job in result["jobs"]:
        assert sum(job["self_s"].values()) == pytest.approx(job["traced_s"], rel=1e-9)
    counts = result["tracer"].counts
    busy = {"homology": "rips.triangles", "covers": "covers.slots",
            "maps_actions": "towers.thread_pairs"}[workload]
    assert counts[busy] > 0
    assert set(counts) <= set(spans.COUNTERS)


def test_second_subdivision_of_rp2_has_its_known_answer(in_checkout):
    """181 points, about 10 s on a 2-core machine: too slow for a timed pass."""
    labels = gen.Labels(random.Random(3))
    spec = gen.rp2_spec(labels.block(gen.rp2_points(2)), 2)
    job = workloads.Job("rp2", "sd=2", "analyze", gen.dump(spec), ".json", (),
                        *answers.analyze_rp2(2))
    path = run.WORK / "rp2_sd2.json"
    path.write_text(job.text)
    assert run.run_job(run.import_fresh(), job, str(path))["ok"]
