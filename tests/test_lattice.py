"""The face lattice behind ``compare``'s strata on a polytope zoo: its
edges against a brute-force ``linprog`` oracle, and the face and edge
samples built on its pulling triangulations."""

import itertools
import math

import numpy as np
import pytest

import _oracles
from dihedral_lab.comparison import _sample
from dihedral_lab.curvature import PolyDomain


def box(dim):
    return [(tuple(s * float(c == d) for d in range(dim)), 0.0 if s > 0 else -1.0)
            for c in range(dim) for s in (1, -1)]


def simplex(dim):
    return [(tuple(float(c == d) for d in range(dim)), 0.0) for c in range(dim)] + [
        ((-1.0,) * dim, -1.0)]


def cut_cube(delta):
    return box(3) + [((-1.0, -1.0, -1.0), -(3.0 - delta))]


def wedge(region):
    # the sector from the x1 axis to the 2 pi / 3 ray, around the origin
    theta = 2.0 * math.pi / 3.0
    return PolyDomain.from_halfspaces(
        [((0.0, 1.0), 0.0), ((math.sin(theta), -math.cos(theta)), 0.0)],
        region=region, window=((-2.0, -2.0), (2.0, 2.0)))


# (half-spaces, number of edges) of each polytope; the wedge's corner is its one edge
ZOO = {
    "simplex": (simplex(3), 6),
    "cube": (box(3), 12),
    "prism": ([((1.0, 0.0, 0.0), 0.0), ((0.0, 1.0, 0.0), 0.0), ((-1.0, -1.0, 0.0), -1.0),
               ((0.0, 0.0, 1.0), 0.0), ((0.0, 0.0, -1.0), -1.0)], 9),
    "square_pyramid": ([((0.0, 0.0, 1.0), 0.0), ((1.0, 0.0, -0.5), 0.0),
                        ((-1.0, 0.0, -0.5), -1.0), ((0.0, 1.0, -0.5), 0.0),
                        ((0.0, -1.0, -0.5), -1.0)], 8),
    "octahedron": ([(tuple(-float(s) for s in signs), -1.0)
                    for signs in itertools.product((1, -1), repeat=3)], 12),
    "cut_cube_1e-2": (cut_cube(1e-2), 15),
    "cut_cube_1e-6": (cut_cube(1e-6), 15),
    "box4": (box(4), 24),
    "simplex4": (simplex(4), 10),
    "wedge": ("intersection", 1),
    "wedge_complement": ("complement", 1),
    # a last half-space whose plane touches the cell in less than a facet:
    # its pairs with the facets through that contact are no edges
    "square_touched_at_vertex": (box(2) + [((1.0, 1.0), 0.0)], 4),
    "cube_touched_along_edge": (box(3) + [((1.0, 1.0, 0.0), 0.0)], 12),
}
# the dimension of each such face's contact with the cell
LOWER_FACES = {"square_touched_at_vertex": {4: 0}, "cube_touched_along_edge": {6: 1}}


def domain(name):
    data = ZOO[name][0]
    return wedge(data) if isinstance(data, str) else PolyDomain.from_halfspaces(data)


def strata(dom):
    return [(i,) for i in range(dom.face_count)] + sorted(dom.edges)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_edges_match_linprog(name):
    dom = domain(name)
    assert dom.edges == _oracles.linprog_edges(dom)
    assert len(dom.edges) == ZOO[name][1]


@pytest.mark.parametrize("name", sorted(ZOO))
def test_samples_lie_on_their_strata(name):
    dom = domain(name)
    for faces in strata(dom):
        for x in _sample(dom, faces, 16, 5):
            assert dom._on_faces_at(faces, x, 1e-9)
            if dom.window is not None:
                assert all(lo <= v <= hi for v, lo, hi in zip(x, *dom.window))


@pytest.mark.parametrize("name", sorted(ZOO))
def test_face_samples_span_the_face(name):
    # compare checks the face correspondence on 8 points per face
    dom = domain(name)
    pts, on = _oracles.lattice_incidence(dom)
    for i in range(dom.face_count):
        want = _oracles.affine_rank(pts[sorted(on[i])])
        assert want == LOWER_FACES.get(name, {}).get(i, dom.dim - 1)
        assert _oracles.affine_rank(np.array(_sample(dom, (i,), 8, 0))) == want


@pytest.mark.parametrize("name", sorted(ZOO))
def test_shorter_run_is_a_prefix(name):
    dom = domain(name)
    for faces in strata(dom):
        for seed in (0, 11):
            full = _sample(dom, faces, 12, seed)
            assert [_sample(dom, faces, count, seed) for count in (1, 4, 7)] == [
                full[:1], full[:4], full[:7]]


def test_only_the_wedges_and_open_cells_are_unbounded():
    # the cube without its face x3 <= 1 recedes along x3; a strip has no vertex
    assert [name for name in sorted(ZOO) if not domain(name)._bounded] == [
        "wedge", "wedge_complement"]
    assert not PolyDomain.from_halfspaces(box(3)[:-1])._bounded
    assert not PolyDomain.from_halfspaces(box(2)[:2])._bounded
