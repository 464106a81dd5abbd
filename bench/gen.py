"""Seeded input files for the benchmark workloads.

Every generator returns the text of one input file, so scalecover only ever
sees what a user would hand the CLI.  All point labels are integers drawn
from a per-job label block (see ``Labels``): two jobs never share a space,
so no memoized result of an earlier job can be reused, while the relative
point order, and with it the work, stays the same for every seed.  Clouds
are the only family whose geometry depends on the seed; their coordinates
and squared distances are integers, so no float reaches the library.
"""

from __future__ import annotations

import itertools
import json
import math

LABEL_BLOCK = 10_000  # more points than any generated space has


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class Labels:
    """Disjoint integer label blocks of equal digit count, drawn from a rng."""

    def __init__(self, rng):
        self._rng = rng
        self._used = set()

    def block(self, n: int) -> list:
        if n > LABEL_BLOCK:
            raise ValueError(f"{n} points exceed the label block of {LABEL_BLOCK}")
        while True:
            base = self._rng.randrange(100_000, 1_000_000)
            if base not in self._used:
                self._used.add(base)
                return [base * LABEL_BLOCK + i for i in range(n)]


def _space(labels, scales, hausdorff=False) -> dict:
    """Explicit space spec from unordered index pairs, one set per scale."""
    out = []
    for pairs in scales:
        listed = [[p, p] for p in labels]
        for i, j in sorted(pairs):
            listed.append([labels[i], labels[j]])
            listed.append([labels[j], labels[i]])
        out.append(listed)
    return {"kind": "space", "points": list(labels), "scales": out,
            "hausdorff": hausdorff}


def cycle_distance(n: int):
    return [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]


def cycle_spec(labels, radii) -> dict:
    """The n-cycle metric thresholded at the radii (read by from_metric)."""
    return {"kind": "space", "matrix": cycle_distance(len(labels)),
            "radii": list(radii), "names": list(labels)}


def thickened_radii(n: int) -> tuple:
    return (n // 3, 1)


def cloud(n: int, rng):
    """Noisy circle: n integer points on radius 1000 with +-3 jitter.

    Returns the CSV of squared distances and the integer radii
    (16 s^2, 4 s^2), s = 2 pi 1000 / n, i.e. distance radii 4s and 2s.
    """
    pts = []
    for i in range(n):
        theta = 2 * math.pi * i / n
        pts.append((round(1000 * math.cos(theta)) + rng.randint(-3, 3),
                    round(1000 * math.sin(theta)) + rng.randint(-3, 3)))
    rows = []
    for ax, ay in pts:
        rows.append(",".join(str((ax - bx) ** 2 + (ay - by) ** 2) for bx, by in pts))
    s2 = (2 * math.pi * 1000 / n) ** 2
    return "\n".join(rows) + "\n", (math.floor(16 * s2), math.floor(4 * s2))


def king_torus_pairs(k: int) -> set:
    pairs = set()
    for i, j in itertools.product(range(k), repeat=2):
        for di, dj in itertools.product((-1, 0, 1), repeat=2):
            a, b = i * k + j, ((i + di) % k) * k + (j + dj) % k
            if a < b:
                pairs.add((a, b))
    return pairs


def king_torus_spec(labels) -> dict:
    k = math.isqrt(len(labels))
    return _space(labels, [king_torus_pairs(k)])


def _closure(faces):
    simplices = set()
    for f in faces:
        for r in range(1, len(f) + 1):
            simplices.update(frozenset(c) for c in itertools.combinations(sorted(f), r))
    return sorted(simplices, key=lambda s: (len(s), sorted(s)))


def barycentric(faces):
    """Triangles of the barycentric subdivision, vertices renumbered 0..V-1.

    New vertices are the simplices in (dimension, sorted vertices) order; new
    triangles are the full flags vertex < edge < triangle.
    """
    simplices = _closure(faces)
    index = {s: i for i, s in enumerate(simplices)}
    triangles = []
    for f in faces:
        f = frozenset(f)
        for a, b, _ in itertools.permutations(sorted(f)):
            triangles.append((index[frozenset([a])], index[frozenset([a, b])], index[f]))
    return len(simplices), sorted(triangles)


RP2_FACES = [
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]


def rp2_complex(level: int):
    """The 6-vertex RP^2 subdivided ``level`` >= 1 times: (vertices, triangles)."""
    nv, faces = None, RP2_FACES
    for _ in range(level):
        nv, faces = barycentric(faces)
    return nv, faces


def rp2_points(level: int) -> int:
    return rp2_complex(level)[0]


def flag_edges(faces) -> set:
    return {tuple(sorted(e)) for f in faces for e in itertools.combinations(f, 2)}


def rp2_spec(labels, level: int) -> dict:
    """A subdivided RP^2 as its 1-skeleton; it is a flag complex."""
    _, faces = rp2_complex(level)
    return _space(labels, [flag_edges(faces)])


def rotation_action_spec(labels) -> dict:
    """Rotation by 2 on the n-cycle with radii (2, 1, 0)."""
    n = len(labels)
    return {"kind": "action", "space": cycle_spec(labels, (2, 1, 0)),
            "generators": [[labels[(i + 2) % n] for i in range(n)]]}


def wrap_map_spec(src_labels, tgt_labels, radii=(2, 1)) -> dict:
    """The m-fold wrap C_{mn} -> C_n, i -> i mod n, both with the same radii."""
    n = len(tgt_labels)
    return {"kind": "map",
            "source": cycle_spec(src_labels, radii),
            "target": cycle_spec(tgt_labels, radii),
            "assignment": [tgt_labels[i % n] for i in range(len(src_labels))]}


def discrete_tower_spec(top_labels, bottom_labels) -> dict:
    """X_2 (N discrete points) -> X_1 (N/2 discrete points), i -> i // 2."""
    return {"kind": "space_tower",
            "spaces": [_space(bottom_labels, [set()], hausdorff=True),
                       _space(top_labels, [set()], hausdorff=True)],
            "bondings": [[bottom_labels[i // 2] for i in range(len(top_labels))]]}
