"""Exact polyhedron validation and vertex enumeration against the ``linprog``
reference and the per-subset vertex loop in ``_oracles``."""

import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import linprog_validate, loop_vertices
from dihedral_lab import curvature
from dihedral_lab.curvature import DomainError, PolyDomain

SCENES_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenes"


def verdict(check, domain):
    """``"ok"`` or the ``DomainError`` message of a validation routine."""
    try:
        check(domain)
    except DomainError as exc:
        return str(exc)
    return "ok"


def assert_matches_reference(halfspaces):
    dom = PolyDomain.from_halfspaces(halfspaces, validate=False)
    expected = verdict(linprog_validate, dom)
    assert verdict(PolyDomain._validate, dom) == expected
    return expected


# entries: small integers, one-decimal values and 3-decimal values
_ENTRY = st.one_of(st.integers(-2, 2).map(float),
                   st.integers(-20, 20).map(lambda v: v / 10.0),
                   st.floats(-2.0, 2.0).map(lambda v: round(v, 3)))


@st.composite
def halfspace_sets(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n + 4))
    vector = st.lists(_ENTRY, min_size=n, max_size=n).filter(any)
    normals = [np.array(v) for v in draw(st.lists(vector, min_size=k, max_size=k))]
    if k > 1 and draw(st.booleans()):  # a parallel or duplicate pair
        i, j = draw(st.permutations(range(k)))[:2]
        normals[j] = normals[i] * draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0]))
    if draw(st.booleans()):  # offsets through a point, with rounded gaps
        x0 = np.array(draw(st.lists(_ENTRY, min_size=n, max_size=n)))
        gaps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                             min_size=k, max_size=k))
        offsets = [float(a @ x0) - g for a, g in zip(normals, gaps)]
    else:
        offsets = draw(st.lists(_ENTRY, min_size=k, max_size=k))
    halfspaces = list(zip(normals, offsets))
    if draw(st.booleans()):  # a slab {c <= <v, x> <= c + width |v|}
        v = np.array(draw(vector))
        c = draw(_ENTRY)
        width = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))
        halfspaces += [(v, c), (-v, -c - width * float(np.linalg.norm(v)))]
    return draw(st.permutations(halfspaces))


class TestAgainstLinprog:
    @settings(max_examples=300, deadline=None)
    @given(halfspace_sets())
    def test_random_domains(self, halfspaces):
        assert_matches_reference(halfspaces)

    @pytest.mark.parametrize("halfspaces, expected", [
        # one half-plane: lineality of dimension 1
        ([((1.0, 0.0), 0.0)], "ok"),
        # a 3-D slab: lineality of dimension 2
        ([((1.0, 0.0, 0.0), 0.0), ((-1.0, 0.0, 0.0), -1.0)], "ok"),
        ([((2.0,), 1.0), ((-1.0,), -3.0)], "ok"),
        ([((1.0,), 1.0), ((-1.0,), 0.0)], "domain has empty interior"),
        # slabs of width 0, 1e-12 and 1e-6 in a half-strip
        *[([((1.0, 0.0), 0.0), ((-1.0, 0.0), -w), ((0.0, 1.0), 0.0)],
           "ok" if w > 1e-9 else "domain has empty interior")
          for w in (0.0, 1e-12, 1e-6)],
        # a duplicate face supports; a parallel redundant one does not
        ([((1.0, 0.0), 0.0), ((2.0, 0.0), 0.0), ((-1.0, 0.0), -1.0)], "ok"),
        ([((1.0, 0.0), 0.0), ((1.0, 0.0), -1.0), ((-1.0, 0.0), -1.0)],
         "face 1 does not support the domain"),
        # a redundant face touching the square only at the corner (0, 0)
        ([((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0), ((0.0, 1.0), 0.0),
          ((0.0, -1.0), -1.0), ((1.0, 1.0), 0.0)], "ok"),
        ([((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0), ((0.0, 1.0), 0.0),
          ((0.0, -1.0), -1.0), ((1.0, 1.0), -1e-3)],
         "face 4 does not support the domain"),
        # a wedge (pointed, unbounded) and the same wedge with a reversed face
        ([((0.0, 1.0), 0.0), ((1.0, -1.0), 0.0)], "ok"),
        ([((0.0, 1.0), 0.0), ((0.0, -1.0), 0.0), ((1.0, -1.0), 0.0)],
         "domain has empty interior"),
        # the cube with a face cutting off nothing but the corner (1, 1, 1)
        ([((1.0, 0.0, 0.0), 0.0), ((-1.0, 0.0, 0.0), -1.0), ((0.0, 1.0, 0.0), 0.0),
          ((0.0, -1.0, 0.0), -1.0), ((0.0, 0.0, 1.0), 0.0), ((0.0, 0.0, -1.0), -1.0),
          ((-1.0, -1.0, -1.0), -3.0)], "ok"),
    ])
    def test_degenerate_cases(self, halfspaces, expected):
        assert assert_matches_reference(halfspaces) == expected


def regular_polygon(sides):
    return [((math.cos(2 * math.pi * t / sides), math.sin(2 * math.pi * t / sides)),
             -1.0) for t in range(sides)]


class TestSubsetCap:
    def test_cap_raises_domain_error(self):
        # the lifted 2-D interior LP has C(92, 3) > 1e5 row subsets
        assert math.comb(92, 3) > curvature._SUBSET_CAP
        with pytest.raises(DomainError, match="basic row subsets"):
            PolyDomain.from_halfspaces(regular_polygon(90))

    def test_below_cap_validates(self):
        assert math.comb(82, 3) <= curvature._SUBSET_CAP
        assert len(PolyDomain.from_halfspaces(regular_polygon(80)).vertices()) == 80

    def test_cap_exits_2_through_cli(self, tmp_path):
        from click.testing import CliRunner

        from dihedral_lab.cli import main

        scene = {"dim": 2, "g": {"11": "1", "22": "1"},
                 "halfspaces": [{"a": list(a), "b": b} for a, b in regular_polygon(90)]}
        path = tmp_path / "polygon.json"
        path.write_text(json.dumps(scene))
        result = CliRunner().invoke(main, ["angles", "--scene", str(path),
                                           "--faces", "1,2", "--point", "1,0"])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "input error: domain needs more than 100000 basic row subsets"]


def shipped_domains():
    for path in sorted(SCENES_DIR.glob("*.json")):
        scene = json.loads(path.read_text())
        for part in (scene, scene.get("N"), scene.get("M")):
            if isinstance(part, dict) and "halfspaces" in part:
                yield part


def benchmark_style_domains(seed=0):
    """Convex polygons on an ellipse, affine images of boxes and wedges with
    rounded normals, drawn as the benchmark job generator draws them."""
    rng = random.Random(seed)
    for sides in (3, 4, 5, 6, 9):
        phis = np.cumsum([rng.uniform(1.0, 2.0) for _ in range(sides)])
        phis = 2 * math.pi * phis / phis[-1] + rng.uniform(0.0, 2 * math.pi)
        verts = np.round(np.c_[np.cos(phis), 0.8 * np.sin(phis)] * rng.uniform(0.6, 1.2)
                         + [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)], 9)
        edges = np.roll(verts, -1, axis=0) - verts
        normals = np.c_[-edges[:, 1], edges[:, 0]]
        yield [(a, float(a @ p)) for a, p in zip(normals, verts)]
    for n in (2, 3, 4, 6):
        lo = np.round([rng.uniform(-1.0, 0.0) for _ in range(n)], 9)
        hi = np.round(lo + [rng.uniform(0.5, 1.5) for _ in range(n)], 9)
        mat = np.round(np.eye(n) * 1.2 + [[rng.uniform(-0.3, 0.3) for _ in range(n)]
                                          for _ in range(n)], 9)
        shift = np.round([rng.uniform(-1.0, 1.0) for _ in range(n)], 9)
        inv_t = np.linalg.inv(mat).T
        faces = [(s * e, s * b) for e, lo_i, hi_i in zip(np.eye(n), lo, hi)
                 for s, b in ((1.0, lo_i), (-1.0, hi_i))]
        yield faces
        yield [(inv_t @ a, b + float((inv_t @ a) @ shift)) for a, b in faces]
    for _ in range(4):
        phi, opening = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.3, math.pi - 0.3)
        vertex = np.round([rng.uniform(-2.0, 2.0) for _ in range(2)], 6)
        normals = np.round([[math.cos(phi), math.sin(phi)],
                            [math.cos(phi + math.pi - opening),
                             math.sin(phi + math.pi - opening)]], 9)
        yield [(a, float(a @ vertex)) for a in normals]


class TestVertices:
    def test_shipped_scenes_bit_equal_to_loop(self):
        parts = list(shipped_domains())
        assert len(parts) >= 5
        for part in parts:
            dom = PolyDomain.from_scene(part)
            assert dom.vertices().tobytes() == loop_vertices(dom).tobytes()
            assert dom.vertices().shape == loop_vertices(dom).shape

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_style_bit_equal_to_loop(self, seed):
        for halfspaces in benchmark_style_domains(seed):
            assert assert_matches_reference(halfspaces) == "ok"
            dom = PolyDomain.from_halfspaces(halfspaces)
            expected = loop_vertices(dom)
            assert dom.vertices().shape == expected.shape
            assert dom.vertices().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(40))
    def test_dedupe_with_signed_zero_ties_equals_unique(self, seed, monkeypatch):
        # repeated rows that differ only in signed zeros, as np.round leaves
        # them; np.unique sorts up to 16 rows stably, so it keeps the first
        rng = np.random.default_rng(seed)
        rows = rng.integers(-1, 2, size=(int(rng.integers(1, 17)), 3)) * 0.5
        rows[(rows == 0.0) & (rng.random(rows.shape) < 0.5)] = -0.0
        dom = PolyDomain.from_halfspaces([((1.0, 0.0, 0.0), 0.0)])
        monkeypatch.setattr(curvature, "_basic_solutions", lambda a, b: rows)
        ours = type(dom)._vertex_array.func(dom)  # past the cached value
        expected = np.unique(rows, axis=0)
        assert ours.shape == expected.shape
        assert ours.tobytes() == expected.tobytes()

    def test_unbounded_and_flat_cells_have_no_false_vertices(self):
        strip = PolyDomain.from_halfspaces([((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0)])
        assert strip.vertices().shape == (0, 2)
        assert loop_vertices(strip).shape == (0, 2)


class TestFarCells:
    def test_triangles_far_from_the_origin_validate(self):
        """Triangles of circumradius 1-10 centred 1e7-1e8 from the origin: the
        feasibility tolerance scales with the terms each slack cancels, so
        their vertices and faces are found (an absolute 1e-9 rejected 24 of
        these 40 draws)."""
        for seed in range(40):
            rng = random.Random(seed)
            dist, phi = 10 ** rng.uniform(7, 8), rng.uniform(0, 2 * math.pi)
            radius, start = rng.uniform(1, 10), rng.uniform(0, 2 * math.pi)
            turns = [start + k * 2 * math.pi / 3 + rng.uniform(-0.5, 0.5) for k in range(3)]
            corners = [(dist * math.cos(phi) + radius * math.cos(t),
                        dist * math.sin(phi) + radius * math.sin(t)) for t in turns]
            halfspaces = []
            for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
                a = (y0 - y1, x1 - x0)  # inner normal of a counterclockwise loop
                halfspaces.append((a, a[0] * x0 + a[1] * y0))
            verts = PolyDomain.from_halfspaces(halfspaces).vertices()
            assert len(verts) == 3
            for v in corners:
                assert np.abs(verts - v).max(axis=1).min() <= 1e-13 * dist
