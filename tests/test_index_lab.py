from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from _oracles import DecComplex, _components, dec_complex, harmonic_dims
from dihedral_lab.index_lab import PolygonError, index_experiment

SQUARE = {"type": "square"}
TRIANGLE = {"type": "right_triangle"}


def dense_incidences(c: DecComplex):
    """``(d0, d1)`` as dense matrices, repeated d1 keys added up."""
    d0 = np.zeros((c.edge_count, c.vertex_count))
    np.add.at(d0, (np.arange(c.edge_count), c.edges[:, 0]), -1.0)
    np.add.at(d0, (np.arange(c.edge_count), c.edges[:, 1]), 1.0)
    d1 = np.zeros((c.face_count, c.edge_count))
    np.add.at(d1, (c.d1_face, c.d1_edge), c.d1_sign)
    return d0, d1


def complex_from_dense(d0, d1):
    """Index-array complex of dense incidence matrices; every row of ``d0``
    must be one -1 and one +1."""
    tails, heads = np.argmin(d0, axis=1), np.argmax(d0, axis=1)
    assert np.array_equal(d0[np.arange(len(d0)), tails], -np.ones(len(d0)))
    assert np.array_equal(d0[np.arange(len(d0)), heads], np.ones(len(d0)))
    face, edge = np.nonzero(d1)
    return DecComplex(d0.shape[1], d0.shape[0], d1.shape[0],
                      np.stack([tails, heads], axis=1), face, edge, d1[face, edge])


def brute_force_betti(c: DecComplex):
    """Rank-nullity oracle computed from explicit kernels via SVD bases,
    independent of the library's rank arithmetic."""
    def null_dim(mat):
        if mat.size == 0:
            return mat.shape[1]
        s = np.linalg.svd(mat, compute_uv=False)
        return mat.shape[1] - int(np.sum(s > 1e-10))

    d0, d1 = dense_incidences(c)
    # b0 = dim ker d0, b1 = dim(ker d1 / im d0), b2 = dim coker d1
    b0 = null_dim(d0)
    z1 = null_dim(d1)
    im0 = d0.shape[1] - null_dim(d0)
    b1 = z1 - im0
    im1 = d1.shape[1] - null_dim(d1)
    b2 = d1.shape[0] - im1
    return b0, b1, b2


def complex_from_cells(vertex_count, cells):
    """Complex of 2-cells given as vertex cycles, built densely and apart
    from the library; each edge runs from its smaller vertex."""
    edges = sorted({tuple(sorted(e)) for cell in cells
                    for e in zip(cell, cell[1:] + cell[:1])})
    eid = {e: n for n, e in enumerate(edges)}
    d0 = np.zeros((len(edges), vertex_count))
    for n, (a, b) in enumerate(edges):
        d0[n, a], d0[n, b] = -1.0, 1.0
    d1 = np.zeros((len(cells), len(edges)))
    for f, cell in enumerate(cells):
        for a, b in zip(cell, cell[1:] + cell[:1]):
            d1[f, eid[tuple(sorted((a, b)))]] += 1.0 if a < b else -1.0
    return complex_from_dense(d0, d1)


def torus_cells(n):
    """Quads of an n x n grid whose opposite sides are identified."""
    def vid(i, j):
        return (i % n) * n + j % n

    return [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
            for i in range(n) for j in range(n)]


# closed surfaces and a surface with two boundary circles; cells are
# oriented arbitrarily where that does not change the answer
CLOSED_AND_OPEN = {
    # faces of a tetrahedron, two of them against the outward orientation
    "tetrahedron_boundary": (4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 3, 2)], (1, 0, 1)),
    "annulus": (8, [(i, (i + 1) % 4, 4 + (i + 1) % 4, 4 + i) for i in range(4)],
                (1, 1, 0)),
    "torus": (9, torus_cells(3), (1, 2, 1)),
    # the 6-vertex (hemi-icosahedron) RP^2: closed, not orientable
    "rp2": (6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)], (1, 0, 0)),
}


class TestDecComplex:
    def test_square_8x8_counts(self):
        c = dec_complex(SQUARE, 8)
        assert c.vertex_count == 81
        assert c.edge_count == 2 * 8 * 9
        assert c.face_count == 64
        assert c.composition_residual() == 0.0

    def test_square_2x2_exact_composition(self):
        c = dec_complex(SQUARE, 2)
        assert c.composition_residual() == 0.0

    def test_triangle_composition(self):
        for k in (1, 2, 5):
            c = dec_complex(TRIANGLE, k)
            assert c.composition_residual() == 0.0

    def test_triangle_counts(self):
        c = dec_complex(TRIANGLE, 2)
        assert c.vertex_count == 6
        assert c.face_count == 4  # three lower + one upper triangle

    def test_zero_resolution_rejected(self):
        with pytest.raises(PolygonError):
            dec_complex(SQUARE, 0)

    def test_unknown_polygon(self):
        with pytest.raises(PolygonError):
            dec_complex({"type": "hexagon"}, 4)

    def test_union(self):
        c = dec_complex({"type": "union", "parts": [SQUARE, SQUARE]}, 3)
        single = dec_complex(SQUARE, 3)
        assert c.vertex_count == 2 * single.vertex_count
        assert c.composition_residual() == 0.0

    def test_union_is_block_diagonal(self):
        parts = [SQUARE, TRIANGLE, SQUARE]
        c = dec_complex({"type": "union", "parts": parts}, 2)
        blocks = [dense_incidences(dec_complex(p, 2)) for p in parts]
        d0, d1 = dense_incidences(c)
        assert np.array_equal(d0, block_diag(*(b[0] for b in blocks)))
        assert np.array_equal(d1, block_diag(*(b[1] for b in blocks)))
        assert np.array_equal(dense_incidences(complex_from_dense(d0, d1))[1], d1)


def assert_same_components(n, tails, heads):
    count, labels = _components(n, np.asarray(tails, dtype=int), np.asarray(heads, dtype=int))
    graph = coo_array((np.ones(len(tails)), (tails, heads)), shape=(n, n))
    ref_count, ref_labels = connected_components(graph, directed=False)
    assert count == ref_count
    # same partition: the label pairs are a bijection
    assert len(np.unique(np.stack([labels, ref_labels]), axis=1).T) == ref_count
    assert np.all(labels <= np.arange(n))  # each label is a node of the component


class TestComponents:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=3 * n))))
    def test_matches_scipy(self, graph):
        # self-loops, repeated edges and isolated nodes all occur
        n, edges = graph
        tails, heads = zip(*edges) if edges else ((), ())
        assert_same_components(n, list(tails), list(heads))

    def test_long_path(self):
        n = 10_000
        assert_same_components(n, np.arange(n - 1), np.arange(1, n))
        order = np.random.default_rng(8).permutation(n)
        assert_same_components(n, order[:-1], order[1:])
        assert_same_components(n, order[1:], order[:-1])


class TestHarmonicDims:
    @pytest.mark.parametrize("k", [2, 3, 8, 16, 32])
    def test_square_disk_cohomology(self, k):
        assert harmonic_dims(dec_complex(SQUARE, k)) == (1, 0, 0)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_triangle_disk_cohomology(self, k):
        assert harmonic_dims(dec_complex(TRIANGLE, k)) == (1, 0, 0)

    def test_two_squares_additive(self):
        c = dec_complex({"type": "union", "parts": [SQUARE, SQUARE]}, 4)
        assert harmonic_dims(c) == (2, 0, 0)

    def test_against_brute_force_oracle_small(self):
        for poly, k in ((SQUARE, 2), (SQUARE, 3), (TRIANGLE, 2)):
            c = dec_complex(poly, k)
            assert harmonic_dims(c) == brute_force_betti(c)

    def test_square_k256(self):
        assert harmonic_dims(dec_complex(SQUARE, 256)) == (1, 0, 0)

    @pytest.mark.parametrize("name", sorted(CLOSED_AND_OPEN))
    def test_nontrivial_homology(self, name):
        vertex_count, cells, expected = CLOSED_AND_OPEN[name]
        c = complex_from_cells(vertex_count, cells)
        assert brute_force_betti(c) == expected
        assert harmonic_dims(c) == expected

    def test_two_sphere_components_and_a_disk(self):
        cells = (CLOSED_AND_OPEN["tetrahedron_boundary"][1]
                 + [tuple(v + 4 for v in f) for f in CLOSED_AND_OPEN["tetrahedron_boundary"][1]]
                 + [(8, 9, 10)])
        c = complex_from_cells(11, cells)
        assert harmonic_dims(c) == brute_force_betti(c) == (3, 0, 2)

    def test_edge_on_three_faces_rejected(self):
        c = complex_from_cells(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        with pytest.raises(ValueError, match="two faces"):
            harmonic_dims(c)

    def test_incidence_other_than_unit_rejected(self):
        c = complex_from_cells(4, CLOSED_AND_OPEN["tetrahedron_boundary"][1])
        doubled = replace(c, d1_sign=2.0 * c.d1_sign)
        with pytest.raises(ValueError, match="incidences"):
            harmonic_dims(doubled)

    def test_broken_composition_rejected(self):
        c = dec_complex(SQUARE, 2)
        sign = c.d1_sign.copy()
        sign[(c.d1_face == 0) & (c.d1_edge == 0)] *= -1.0
        broken = replace(c, d1_sign=sign)
        assert broken.composition_residual() == 2.0
        with pytest.raises(ValueError, match="d1 d0"):
            harmonic_dims(broken)

    def test_no_dense_rank(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense decomposition called")

        for name in ("matrix_rank", "svd", "qr"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        assert harmonic_dims(dec_complex(TRIANGLE, 16)) == (1, 0, 0)


def identity_scene():
    return {
        "resolution": 8,
        "M": {"type": "square"},
        "N": [{"polygon": {"type": "square"},
               "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                       "offset": [0.0, 0.0]}}],
    }


class TestIndexExperiment:
    def test_identity_square(self):
        out = index_experiment(identity_scene())
        assert (out["b0"], out["b1"], out["b2"]) == (1, 0, 0)
        assert out["index"] == 1
        assert out["chi"] == 1
        assert out["deg"] == 1
        assert out["match"] is True

    def test_two_component_cover(self):
        scene = {
            "resolution": 6,
            "M": {"type": "square"},
            "N": [
                {"polygon": {"type": "square"},
                 "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                         "offset": [0.0, 0.0]}},
                {"polygon": {"type": "square"},
                 "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                         "offset": [0.0, 0.0]}},
            ],
        }
        out = index_experiment(scene)
        assert out["index"] == 2
        assert out["deg"] == 2
        assert out["match"] is True

    def test_triangle_identity(self):
        scene = {
            "resolution": 5,
            "M": {"type": "right_triangle"},
            "N": [{"polygon": {"type": "right_triangle"},
                   "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                           "offset": [0.0, 0.0]}}],
        }
        out = index_experiment(scene)
        assert out["match"] is True
        assert out["chi"] == 1

    def test_orientation_reversing_reported(self):
        # determinant-sign oracle: the flip map has degree -1; the index
        # model keeps index = +1, so the scene must report a mismatch
        scene = {
            "resolution": 4,
            "M": {"type": "square"},
            "N": [{"polygon": {"type": "square"},
                   "map": {"matrix": [[0.0, 1.0], [1.0, 0.0]],
                           "offset": [0.0, 0.0]}}],
        }
        out = index_experiment(scene)
        assert out["deg"] == -1
        assert out["index"] == 1
        assert out["match"] is False

    def test_shrinking_affine_map(self):
        scene = {
            "resolution": 4,
            "M": {"type": "square"},
            "N": [{"polygon": {"type": "square"},
                   "map": {"matrix": [[0.5, 0.0], [0.0, 0.5]],
                           "offset": [0.25, 0.25]}}],
        }
        out = index_experiment(scene)
        assert out["match"] is True

    def test_map_out_of_target_rejected(self):
        scene = identity_scene()
        scene["N"][0]["map"]["offset"] = [3.0, 0.0]
        with pytest.raises(PolygonError):
            index_experiment(scene)

    def test_degenerate_map_rejected(self):
        scene = identity_scene()
        scene["N"][0]["map"]["matrix"] = [[1.0, 0.0], [2.0, 0.0]]
        with pytest.raises(PolygonError):
            index_experiment(scene)

    def test_empty_scene_rejected(self):
        with pytest.raises(PolygonError):
            index_experiment({"resolution": 2, "M": SQUARE, "N": []})


# source sets of up to three parts; the half-scale map puts a square or a
# triangle inside either target
SOURCE_SETS = [[SQUARE], [TRIANGLE], [SQUARE, TRIANGLE], [TRIANGLE, TRIANGLE],
               [SQUARE, TRIANGLE, SQUARE]]
HALF = {"matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]}


def engine_report(polygon, k):
    """``(b0, b1, b2, b0 - b1 + b2)`` of the polygon's complex at resolution k."""
    b0, b1, b2 = harmonic_dims(dec_complex(polygon, k))
    return b0, b1, b2, b0 - b1 + b2


class TestClosedFormAgainstEngine:
    """The closed form (``index = V - E + F = #parts``) against the Betti
    engine of the test oracles, at every resolution 1..64."""

    @pytest.mark.parametrize("k", range(1, 65))
    def test_report_matches_engine(self, k):
        chis = {t["type"]: engine_report(t, k)[3] for t in (SQUARE, TRIANGLE)}
        for sources in SOURCE_SETS:
            expected = engine_report({"type": "union", "parts": sources}, k)
            for target in (SQUARE, TRIANGLE):
                out = index_experiment({"resolution": k, "M": target,
                                        "N": [{"polygon": p, "map": HALF} for p in sources]})
                assert (out["b0"], out["b1"], out["b2"], out["index"], out["chi"]) == (
                    *expected, chis[target["type"]])
                assert out["match"] is (expected[3] == out["deg"] * out["chi"])

    @pytest.mark.parametrize("polygon", [
        SQUARE,
        TRIANGLE,
        {"type": "union", "parts": [SQUARE]},
        {"type": "union", "parts": [SQUARE, TRIANGLE]},
        {"type": "union", "parts": [TRIANGLE, {"type": "union", "parts": [SQUARE, SQUARE]}]},
    ], ids=["square", "triangle", "union1", "union2", "union3-nested"])
    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_part_count_is_betti_and_euler(self, polygon, k):
        """``index`` of a source that lists the polygon's parts as components
        is b0 and the Euler characteristic of the polygon's complex."""
        def parts(p):
            if p["type"] != "union":
                return [p]
            return [q for part in p["parts"] for q in parts(part)]

        b0, _, _, euler = engine_report(polygon, k)
        out = index_experiment({"resolution": k, "M": SQUARE,
                                "N": [{"polygon": p, "map": HALF} for p in parts(polygon)]})
        assert out["index"] == b0 == euler
