import itertools

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from scalecover.spaces import from_metric, validate_space
from scalecover.quotients import FilteredMap


def identity_map(space):
    return FilteredMap(space, space, tuple(space.points))


def telescoping_backward_group(psis, gs, identities, mul) -> list:
    """Set-level backward solve of g_i = psi(h_{i+1})^{-1} h_i in any groups.

    ``psis[i]`` maps stage i+2 to stage i+1 (0-based), ``identities`` holds one
    identity element per stage and ``mul(stage, a, b)`` multiplies at a stage.
    Always succeeds on a truncation.
    """
    n = len(gs) + 1
    h = [None] * n
    h[n - 1] = identities[n - 1]
    for i in range(n - 2, -1, -1):
        h[i] = mul(i, psis[i](h[i + 1]), gs[i])
    return h


def rp2_subdivision_space():
    """Barycentric subdivision of the 6-vertex projective plane, as a graph.

    The subdivision of a simplicial complex is a flag complex, so its Rips
    2-skeleton at the adjacency scale is the subdivision itself; H1 = Z/2 and
    the loop classes at any basepoint form a group of order 2.
    """
    faces = [
        (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
        (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
    ]
    edges = sorted({e for f in faces for e in itertools.combinations(f, 2)})
    points = [("v", i) for i in range(1, 7)]
    points += [("e",) + e for e in edges]
    points += [("f",) + f for f in faces]
    rel = set()
    for e in edges:
        for v in e:
            rel.add((("v", v), ("e",) + e))
    for f in faces:
        for v in f:
            rel.add((("v", v), ("f",) + f))
        for e in itertools.combinations(f, 2):
            rel.add((("e",) + e, ("f",) + f))
    pairs = [(a, b) for a, b in rel] + [(b, a) for a, b in rel]
    pairs += [(p, p) for p in points]
    return validate_space(points, [pairs])


def oracle_h1(edges, triangles, nv):
    """Brute-force H1 from explicitly listed boundary matrices via sympy."""
    d1 = sympy.zeros(nv, len(edges))
    for e, (a, b) in enumerate(edges):
        d1[a, e] = -1
        d1[b, e] = 1
    d2 = sympy.zeros(len(edges), max(len(triangles), 1))
    eindex = {e: i for i, e in enumerate(edges)}
    for t, (a, b, c) in enumerate(triangles):
        d2[eindex[(a, b)], t] += 1
        d2[eindex[(b, c)], t] += 1
        d2[eindex[(a, c)], t] -= 1
    rank1 = d1.rank()
    rank2 = d2.rank() if triangles else 0
    rank = len(edges) - rank1 - rank2
    torsion = []
    if triangles:
        s = sympy_snf(d2, domain=sympy.ZZ)
        for i in range(min(s.shape)):
            v = abs(s[i, i])
            if v > 1:
                torsion.append(int(v))
    return rank, tuple(sorted(torsion))


@pytest.fixture(scope="session")
def rp2_space():
    return rp2_subdivision_space()


def c6_matrix():
    return [[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)]


def c3_matrix():
    return [[min(abs(i - j), 3 - abs(i - j)) for j in range(3)] for i in range(3)]


@pytest.fixture(scope="session")
def fix_c6():
    """Six-point cycle with radii (2, 1)."""
    return from_metric(c6_matrix(), (2, 1))


@pytest.fixture(scope="session")
def fix_l4():
    """Four points on a line with radii (1, 0.5); hausdorff."""
    d = [[abs(i - j) for j in range(4)] for i in range(4)]
    return from_metric(d, (1, 0.5))


@pytest.fixture(scope="session")
def fix_map():
    """The mod-3 projection of the hexagon onto a triangle, both at radii (1)."""
    source = from_metric(c6_matrix(), (1,))
    target = from_metric(c3_matrix(), (1,))
    return FilteredMap(source, target, tuple(i % 3 for i in range(6)))


@pytest.fixture(scope="session")
def one_point_space():
    return from_metric([[0]], (1,))


@pytest.fixture(scope="session")
def constant_map(fix_c6, one_point_space):
    return FilteredMap(fix_c6, one_point_space, (0,) * 6)
