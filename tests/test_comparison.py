import itertools
import math
import pathlib

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (
    bianchi_residual_closure,
    kron_boundary_endomorphism,
    kron_curvature_endomorphism,
    loop_certify,
    loop_curvature_operator,
    pointwise_scene,
    symbolic_curvature,
    wedge_compound_matrix,
)
from dihedral_lab import clifford
from dihedral_lab.clifford import (
    bianchi_residual,
    boundary_certificate,
    clifford_module,
    curvature_certificate,
    random_certificates,
    random_curvature_operator,
    wedge_square_map,
)
from dihedral_lab.comparison import (
    CompareScene,
    SampleSpec,
    SceneError,
    _pointwise_quantities,
    _uniform,
    _sample,
    _singular_values,
    _wedge2,
    check_conclusions,
    check_hypotheses,
)
from dihedral_lab.curvature import DomainError, PolyDomain, conformal_identities
from dihedral_lab.expressions import euclidean_metric, parse_metric


KRON_DIMS = [(2, 2), (4, 4), (6, 6), (8, 8), (4, 2), (2, 6), (8, 4)]


def df_norms(jac):
    """``(|df|, |^2 df|, singular values)`` of the matrix ``jac`` as
    ``compare`` computes them."""
    sv = _singular_values(np.asarray(jac, dtype=float).tolist())
    return sv[0], _wedge2(sv), sv


class TestDfNorms:
    """The singular values behind ``compare``'s ``|df|`` and ``|^2 df|``."""

    def test_homothety(self):
        df, wedge2, sv = df_norms(2.5 * np.eye(3))
        assert df == pytest.approx(2.5, rel=1e-14)
        assert wedge2 == pytest.approx(2.5**2, rel=1e-14)
        assert all(s == pytest.approx(2.5, rel=1e-14) for s in sv)

    def test_diagonal(self):
        df, wedge2, sv = df_norms(np.diag([2.0, 0.5]))
        assert df == pytest.approx(2.0)
        assert wedge2 == pytest.approx(1.0)
        assert sv == pytest.approx((2.0, 0.5))

    def test_rank_one(self):
        _, wedge2, _ = df_norms(np.outer([1.0, 2.0], [3.0, 0.0]))
        assert wedge2 == pytest.approx(0.0, abs=1e-12)

    def test_wedge_norm_vs_minors_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            jac = rng.normal(size=(3, 3))
            oracle = np.linalg.svd(wedge_compound_matrix(jac), compute_uv=False)[0]
            assert df_norms(jac)[1] == pytest.approx(oracle, rel=1e-10)

    def test_wedge_below_df_squared(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            jac = rng.normal(size=rng.integers(1, 5, size=2))
            df, wedge2, _ = df_norms(jac)
            assert wedge2 <= df**2 + 1e-12

    def test_homothety_equality_detection(self):
        # all singular values equal  =>  |^2 df| = |df|^2 exactly
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        df, wedge2, _ = df_norms(1.7 * q)
        assert wedge2 == pytest.approx(df**2, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                    min_size=4, max_size=9))
    def test_wedge_inequality_property(self, entries):
        side = int(math.isqrt(len(entries)))
        jac = np.array(entries[: side * side]).reshape(side, side)
        df, wedge2, sv = df_norms(jac)
        assert wedge2 <= df**2 * (1.0 + 1e-12) + 1e-12
        assert all(a >= b - 1e-12 for a, b in zip(sv, sv[1:]))


class TestCurvatureCertificate:
    def test_zero_operator(self):
        s = clifford_module(2)
        assert curvature_certificate(np.zeros((1, 1)), np.eye(2), s, s) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_identity_2d(self):
        s = clifford_module(2)
        out = curvature_certificate(np.eye(1), np.eye(2), s, s)
        assert out >= -1e-10
        # oracle: the 4x4 endomorphism has eigenvalues {0, 1} here
        assert out == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_randomized_psd_trials(self, n):
        s = clifford_module(n)
        rng = np.random.default_rng(1234 + n)
        for _ in range(300 if n <= 4 else 20):
            rop = random_curvature_operator(n, rng)
            jac = rng.normal(size=(n, n))
            assert curvature_certificate(rop, jac, s, s) >= -1e-9

    @pytest.mark.parametrize("m, n", KRON_DIMS)
    def test_matches_kron_loop_reference(self, m, n):
        src, dst = clifford_module(n), clifford_module(m)
        rng = np.random.default_rng(99 + 10 * m + n)
        for _ in range(3 if m == 8 else 10):
            rop = random_curvature_operator(m, rng)
            jac = rng.normal(size=(m, n))
            mat, scale = kron_curvature_endomorphism(rop, jac, src, dst)
            ref = np.linalg.eigvalsh(mat)[0]
            got = curvature_certificate(rop, jac, src, dst)
            assert abs(got - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_bianchi_matches_closure_reference(self, n):
        rng = np.random.default_rng(31 + n)
        stack = []
        for _ in range(10):
            ell = rng.normal(size=(n * (n - 1) // 2,) * 2)
            rop = ell.T @ ell
            assert bianchi_residual(rop, n) == bianchi_residual_closure(rop, n)
            good = random_curvature_operator(n, rng)
            assert bianchi_residual(good, n) == bianchi_residual_closure(good, n)
            stack += [rop, good]
        assert np.array_equal(bianchi_residual(np.array(stack), n),
                              [bianchi_residual_closure(r, n) for r in stack])

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_random_operator_matches_term_loop(self, n):
        # one (terms, 2, n) draw reproduces the per-term u, v draws bit for bit
        for terms in (None, 0, 1, 5):
            got = random_curvature_operator(n, np.random.default_rng(n), terms)
            ref = loop_curvature_operator(n, np.random.default_rng(n), terms)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 5), (4, 4), (6, 2), (8, 8)])
    def test_wedge_square_map_matches_minors(self, m, n):
        jacs = np.random.default_rng(m + 10 * n).normal(size=(6, m, n))
        ref = np.array([wedge_compound_matrix(j) for j in jacs])
        assert np.array_equal(wedge_square_map(jacs[0]), ref[0])
        assert np.array_equal(wedge_square_map(jacs), ref)

    def test_random_operators_satisfy_bianchi(self):
        rng = np.random.default_rng(77)
        for n in (2, 4):
            for _ in range(20):
                rop = random_curvature_operator(n, rng)
                assert bianchi_residual(rop, n) <= 1e-10 * max(1.0, np.abs(rop).max())
                assert np.linalg.eigvalsh(rop)[0] >= -1e-10

    def test_rejects_bianchi_violation(self):
        # a generic PSD matrix on Lambda^2 R^4 is *not* a curvature operator;
        # the estimate is false for it, so the certificate must refuse it
        s = clifford_module(4)
        rng = np.random.default_rng(5)
        ell = rng.normal(size=(6, 6))
        rop = ell.T @ ell
        assert bianchi_residual(rop, 4) > 1e-3
        with pytest.raises(ValueError):
            curvature_certificate(rop, np.eye(4), s, s)

    def test_rejects_non_psd(self):
        s = clifford_module(2)
        with pytest.raises(ValueError):
            curvature_certificate(-np.eye(1), np.eye(2), s, s)

    def test_rejects_dim_mismatch(self):
        s2, s4 = clifford_module(2), clifford_module(4)
        with pytest.raises(ValueError):
            curvature_certificate(np.eye(1), np.eye(2), s4, s2)


class TestBoundaryCertificate:
    def test_zero_form(self):
        s = clifford_module(2)
        assert boundary_certificate(np.zeros((1, 1)), np.eye(1), s, s) == pytest.approx(
            0.0, abs=1e-14
        )

    @pytest.mark.parametrize("n", [2, 4])
    def test_unit_sphere_case(self, n):
        # A = Id on the face tangent space (unit sphere, H = m - 1), J = Id
        s = clifford_module(n)
        out = boundary_certificate(np.eye(n - 1), np.eye(n - 1), s, s)
        assert out >= -1e-10

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_randomized_psd_trials(self, n):
        s = clifford_module(n)
        rng = np.random.default_rng(4321 + n)
        for _ in range(300 if n <= 4 else 20):
            ell = rng.normal(size=(n - 1, n - 1))
            amat = ell.T @ ell
            jac = rng.normal(size=(n - 1, n - 1))
            assert boundary_certificate(amat, jac, s, s) >= -1e-9

    @pytest.mark.parametrize("m, n", KRON_DIMS)
    def test_matches_kron_loop_reference(self, m, n):
        src, dst = clifford_module(n), clifford_module(m)
        rng = np.random.default_rng(17 + 10 * m + n)
        for _ in range(3 if m == 8 else 10):
            ell = rng.normal(size=(m - 1, m - 1))
            amat = ell.T @ ell
            jac = rng.normal(size=(m - 1, n - 1))
            mat, scale = kron_boundary_endomorphism(amat, jac, src, dst)
            ref = np.linalg.eigvalsh(mat)[0]
            got = boundary_certificate(amat, jac, src, dst)
            assert abs(got - ref) <= 1e-13 * scale

    def test_rejects_non_psd(self):
        s = clifford_module(2)
        with pytest.raises(ValueError):
            boundary_certificate(-np.eye(1), np.eye(1), s, s)


@pytest.mark.parametrize("m, n", [(2, 2), (4, 4), (6, 6), (8, 8), (4, 2), (2, 6)])
def test_endomorphisms_have_no_off_block_entries(m, n):
    # the certificates diagonalize only the 4 blocks S+/- (x) S+/-
    src, dst = clifford_module(n), clifford_module(m)
    key = np.add.outer(2 * np.diagonal(src.grading).real,
                       np.diagonal(dst.grading).real).reshape(-1)
    off = key[:, None] != key[None, :]
    rng = np.random.default_rng(5 + 10 * m + n)
    for _ in range(2):
        curv, _ = kron_curvature_endomorphism(
            random_curvature_operator(m, rng), rng.normal(size=(m, n)), src, dst)
        ell = rng.normal(size=(m - 1, m - 1))
        bdry, _ = kron_boundary_endomorphism(
            ell.T @ ell, rng.normal(size=(m - 1, n - 1)), src, dst)
        assert off.sum() == 3 * len(key) ** 2 // 4
        assert np.all(curv[off] == 0) and np.all(bdry[off] == 0)


class TestRandomCertificates:
    @pytest.mark.parametrize("n, trials", [(2, 150), (4, 70), (6, 70), (8, 5)])
    def test_matches_trial_loop(self, n, trials):
        # stacked draws and blocks reproduce the one-trial path bit for bit
        mod = clifford_module(n)
        got = random_certificates(n, trials, np.random.default_rng(n))
        assert got == loop_certify(n, trials, np.random.default_rng(n), mod, mod)

    def test_stack_checks_every_member(self):
        s = clifford_module(4)
        rng = np.random.default_rng(5)
        good = random_curvature_operator(4, rng)
        ell = rng.normal(size=(6, 6))
        jacs = np.stack([np.eye(4)] * 2)
        for bad, message in ((ell.T @ ell, "Bianchi"), (-good, "semidefinite")):
            with pytest.raises(ValueError, match=message):
                clifford._curvature_min_eigs(np.stack([good, bad]), jacs, s, s)
        with pytest.raises(ValueError, match="semidefinite"):
            clifford._boundary_min_eigs(np.stack([np.eye(3), -np.eye(3)]),
                                        np.stack([np.eye(3)] * 2), s, s)

    def test_consumes_the_generator_like_the_loop(self):
        mod = clifford_module(4)
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        random_certificates(4, 70, rng)
        loop_certify(4, 70, ref, mod, mod)
        assert rng.normal() == ref.normal()


def square_scene_dict(side=1.0, conformal=None, lo=0.0):
    hs = [
        {"a": [1.0, 0.0], "b": lo},
        {"a": [-1.0, 0.0], "b": -(lo + side)},
        {"a": [0.0, 1.0], "b": lo},
        {"a": [0.0, -1.0], "b": -(lo + side)},
    ]
    g = {"11": "1", "22": "1"}
    if conformal:
        g = {"11": conformal, "22": conformal}
    return {"dim": 2, "halfspaces": hs, "g": g}


def identity_scene(conformal_src=None):
    return CompareScene.from_scene({
        "N": square_scene_dict(conformal=conformal_src),
        "M": square_scene_dict(),
        "f": ["x1", "x2"],
        "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
    })


def cube_scene_dict(metric=None):
    hs = []
    for k in range(3):
        a = [0.0] * 3
        a[k] = 1.0
        hs.append({"a": list(a), "b": 0.0})
        a = [0.0] * 3
        a[k] = -1.0
        hs.append({"a": list(a), "b": -1.0})
    return {"dim": 3, "halfspaces": hs, "g": metric or {"11": "1", "22": "1", "33": "1"}}


def cube_scene(metric_src=None, metric_dst=None):
    return CompareScene.from_scene({
        "N": cube_scene_dict(metric_src),
        "M": cube_scene_dict(metric_dst),
        "f": ["x1", "x2", "x3"],
        "faces": {str(i): str(i) for i in range(1, 7)},
    })


def scaled_scene():
    # f = a id from the unit square onto the side-a square, flat metrics
    return CompareScene.from_scene({
        "N": square_scene_dict(),
        "M": square_scene_dict(side=0.5),
        "f": ["0.5*x1", "0.5*x2"],
        "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
    })


def perturbed_scene():
    return CompareScene.from_scene({
        "N": square_scene_dict(side=4.0, lo=-2.0, conformal="1 + 0.2*sin(x1)"),
        "M": square_scene_dict(side=4.0, lo=-2.0),
        "f": ["x1", "x2"],
        "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
    })


def wedge_violation_scene(theta_n):
    wedge_n = {
        "dim": 2,
        "halfspaces": [
            {"a": [0.0, 1.0], "b": 0.0},
            {"a": [math.sin(theta_n), -math.cos(theta_n)], "b": 0.0},
        ],
        "g": {"11": "1", "22": "1"},
        "window": [[-2.0, -2.0], [2.0, 2.0]],
    }
    wedge_m = {
        "dim": 2,
        "halfspaces": [
            {"a": [0.0, 1.0], "b": 0.0},
            {"a": [1.0, 0.0], "b": 0.0},
        ],
        "g": {"11": "1", "22": "1"},
        "window": [[-2.0, -2.0], [2.0, 2.0]],
    }
    # linear map: x-axis ray -> x-axis ray, theta_n-ray -> y-axis ray:
    # (cos t, sin t) must land on (0, 1)
    a = -1.0 / math.tan(theta_n)
    b = 1.0 / math.sin(theta_n)
    return CompareScene.from_scene({
        "N": wedge_n,
        "M": wedge_m,
        "f": [f"x1 + ({a})*x2", f"({b})*x2"],
        "faces": {"1": "1", "2": "2"},
    })


class TestScenes:
    def test_identity_square_hypotheses_hold(self):
        report = check_hypotheses(identity_scene(), SampleSpec(seed=5))
        assert report.holds
        for rec in report.margins.values():
            if rec.stratum.startswith("edge") and "cap" in rec.stratum:
                continue
            assert rec.value >= -1e-9
        assert report.margins["scalar"].value == pytest.approx(0.0, abs=1e-7)
        assert report.margins["mean_curvature"].value == pytest.approx(0.0, abs=1e-9)
        assert report.margins["angle"].value == pytest.approx(0.0, abs=1e-9)
        assert report.margins["angle_cap"].value == pytest.approx(math.pi / 2, abs=1e-9)

    def test_identity_square_conclusions_hold(self):
        report = check_conclusions(identity_scene(), SampleSpec(seed=5))
        assert report.holds

    def test_witnesses_lie_in_their_strata(self):
        scene = identity_scene()
        report = check_hypotheses(scene, SampleSpec(seed=5))
        for rec in report.margins.values():
            assert all(math.isfinite(v) for v in rec.witness)
            if rec.stratum == "interior":
                assert _oracles.contains(scene.domain_src, rec.witness)
            elif rec.stratum.startswith("face:"):
                i = int(rec.stratum.split(":")[1]) - 1
                assert scene.domain_src.on_face(i, rec.witness)
            else:
                i, j = (int(v) - 1 for v in rec.stratum.split(":")[1].split(","))
                assert scene.domain_src.on_edge(i, j, rec.witness)

    def test_identity_cube_3d(self):
        scene = cube_scene()
        spec = SampleSpec(interior=4, per_face=2, per_edge=1, seed=1)
        report = check_hypotheses(scene, spec)
        assert report.holds
        assert report.margins["angle"].value == pytest.approx(0.0, abs=1e-9)
        assert report.margins["angle_cap"].value == pytest.approx(
            math.pi / 2, abs=1e-9)
        assert check_conclusions(scene, spec).holds

    def test_scaled_map_between_matching_squares(self):
        scene = scaled_scene()
        rep = check_conclusions(scene, SampleSpec(seed=2))
        assert rep.holds
        rep_h = check_hypotheses(scene, SampleSpec(seed=2))
        assert rep_h.holds

    def test_perturbed_source_metric_fails(self):
        # Sc of (1 + 0.2 sin x1) delta changes sign over [-2, 2]^2, so the
        # scalar margin must go negative somewhere (the target is flat)
        scene = perturbed_scene()
        report = check_hypotheses(scene, SampleSpec(interior=64, seed=9))
        assert report.margins["scalar"].value < 0.0
        assert not report.holds
        concl = check_conclusions(scene, SampleSpec(interior=64, seed=9))
        assert not concl.holds

    def test_wedge_pair_angle_violation(self):
        theta_n = 2.0 * math.pi / 3.0
        scene = wedge_violation_scene(theta_n)
        report = check_hypotheses(scene, SampleSpec(interior=4, per_face=4,
                                                    per_edge=1, seed=1))
        # target angle pi/2 < source angle 2 pi / 3
        assert report.margins["angle"].value == pytest.approx(
            math.pi / 2 - theta_n, abs=1e-9)
        assert not report.holds

    def test_face_map_violation_detected(self):
        with pytest.raises(SceneError):
            scene = CompareScene.from_scene({
                "N": square_scene_dict(),
                "M": square_scene_dict(),
                "f": ["x1", "x2"],
                "faces": {"1": "3", "2": "2", "3": "1", "4": "4"},
            })
            scene.validate()

    def test_face_image_off_target_face_rejected(self):
        # the 1e-8 stretch moves the images of face 4 (x2 = 1) 1e-8 off target
        # face 4, past its membership tolerance of 2e-9; validate() and the
        # margins run the one check, on the same 8 samples
        scene = CompareScene.from_scene({
            "N": square_scene_dict(),
            "M": square_scene_dict(),
            "f": ["x1", "x2*(1 + 1e-8)"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        })
        message = r"face 4 sample \[[^]]*, 1\.0\] maps to \[[^]]*\], not on target face 4$"
        with pytest.raises(SceneError, match=message) as validated:
            scene.validate()
        with pytest.raises(SceneError) as checked:
            check_hypotheses(scene, SampleSpec(per_face=2))
        assert str(checked.value) == str(validated.value)

    def test_collapsing_map_rejected(self):
        scene = CompareScene.from_scene({
            "N": square_scene_dict(),
            "M": square_scene_dict(),
            "f": ["x1", "0*x2"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        })
        with pytest.raises(SceneError):
            scene.validate()


SCENES_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenes"


def shipped_scene(name):
    import json

    with open(SCENES_DIR / f"{name}.json") as fh:
        return CompareScene.from_scene(json.load(fh))


BATCH_SCENES = {
    "identity_square": identity_scene,
    "cube": cube_scene,
    "scaled_square": scaled_scene,
    "perturbed_square": perturbed_scene,
    "wedge_violation": lambda: wedge_violation_scene(2.0 * math.pi / 3.0),
    # curved metrics on both sides and a nonlinear face-preserving map
    "curved_squares": lambda: CompareScene.from_scene({
        "N": square_scene_dict(conformal="exp(2*(-0.3)*x1)"),
        "M": square_scene_dict(conformal="1 + 0.1*x2^2"),
        "f": ["x1", "x2 + 0.1*x1*x2*(1 - x2)"],
        "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
    }),
    "curved_cube": lambda: cube_scene(
        {"11": "1 + 0.1*x2^2", "22": "1", "33": "exp(0.2*x1)", "12": "0.1*x3"},
        {"11": "1", "22": "1 + 0.2*sin(x3)", "33": "1", "13": "0.2*x2"}),
    "cube_id.json": lambda: shipped_scene("cube_id"),
    "square_id.json": lambda: shipped_scene("square_id"),
}
BATCH_SPECS = [SampleSpec(), SampleSpec(interior=4, per_face=2, per_edge=1, seed=1),
               SampleSpec(interior=9, per_face=5, per_edge=6, seed=7)]


class TestBatchedRows:
    """The batched compare path against the per-point reference."""

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["default", "small", "odd"])
    @pytest.mark.parametrize("name", sorted(BATCH_SCENES))
    def test_rows_match_per_point_reference(self, name, spec):
        scene = BATCH_SCENES[name]()
        rows = _pointwise_quantities(scene, spec)
        ref = list(_oracles._pointwise_quantities(pointwise_scene(scene), spec))
        assert [row[:2] for row in rows] == [row[:2] for row in ref]
        for row, want in zip(rows, ref):
            assert np.array_equal(row[2], want[2])
            for got, value in zip(row[3:], want[3:]):
                assert abs(got - value) <= 1e-12 * max(1.0, abs(value))

    @pytest.mark.parametrize("name", ["cube_id", "square_id", "octahedron_id", "cut_cube_id"])
    def test_sampler_matches_scalar_reference(self, name):
        dom = shipped_scene(name).domain_src
        pts, on = _oracles.lattice_incidence(dom)
        strata = [()] + [(i,) for i in range(dom.face_count)] + [
            (i, j) for i, j in itertools.combinations(range(dom.face_count), 2)
            if _oracles.affine_rank(pts[sorted(on[i] & on[j])]) == dom.dim - 2]
        for stratum in strata:
            for seed in range(20):
                got = _sample(dom, stratum, 8, seed)
                want = _oracles.sample_stratum(dom, stratum, 8, seed)
                assert all(type(x) is tuple and len(x) == dom.dim for x in got)
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_compare_cube_id_batches_once(self, monkeypatch, tmp_path):
        import dihedral_lab.comparison as comparison
        import dihedral_lab.curvature as curvature
        from click.testing import CliRunner

        from dihedral_lab.cli import main

        batches, evaluated, enumerated, sampled, jetted = [], [], [], [], []
        kernel, first_order = comparison._kernel, comparison._first_order
        monkeypatch.setattr(comparison, "_kernel", lambda g, pts, value: (
            batches.append(len(pts)) or kernel(g, pts, value)))
        monkeypatch.setattr(comparison, "_first_order", lambda g, x: (
            evaluated.append(x) or first_order(g, x)))
        sample, jet = comparison._sample, comparison.CornerMap.jet
        monkeypatch.setattr(comparison, "_sample", lambda dom, stratum, *args, **kw: (
            sampled.append(stratum) or sample(dom, stratum, *args, **kw)))
        monkeypatch.setattr(comparison.CornerMap, "jet", lambda cmap, pts: (
            jetted.append(len(pts)) or jet(cmap, pts)))
        prop = curvature.PolyDomain.__dict__["_vertices"]
        enumerate_vertices = prop.func
        monkeypatch.setattr(
            prop, "func", lambda dom: enumerated.append(dom) or enumerate_vertices(dom))
        result = CliRunner().invoke(main, [
            "compare", "--scene", str(SCENES_DIR / "cube_id.json"),
            "--csv", str(tmp_path / "rows.csv")])
        assert result.exit_code == 0
        # two interior batches (source, target) and one per face and metric,
        # each of a constant metric evaluated at one point
        assert batches == [16, 16] + [8] * 12
        assert len(evaluated) == len(batches)
        # each stratum is sampled and jetted once: interior, 6 faces, the 12
        # face pairs that meet (the 3 parallel pairs are skipped)
        assert sorted(sampled) == sorted(set(sampled)) and len(sampled) == 19
        assert len(jetted) == 19 and sorted(jetted) == [4] * 12 + [8] * 6 + [16]
        # the source's vertices bound its interior sampling box; no target
        # vertex is needed
        assert len(enumerated) == 1
        # fewer reported samples: the correspondence is still checked on 8 / 4
        # points per face / edge, the curvature runs on the reported ones only
        del batches[:], evaluated[:], jetted[:]
        result = CliRunner().invoke(main, [
            "compare", "--scene", str(SCENES_DIR / "cube_id.json"),
            "--interior", "3", "--per-face", "2", "--per-edge", "1"])
        assert result.exit_code == 0
        assert batches == [3, 3] + [2] * 12
        assert len(evaluated) == len(batches)
        assert sorted(jetted) == [3] + [4] * 12 + [8] * 6


class TestGaussBonnetIdentity:
    """The theorem as an oracle in 2-D: for f = id from (P, g) onto the flat
    unit square, Gauss-Bonnet for g and for the flat metric give

        integral_P 1/2 m_Sc dA_g + integral_bd m_H ds_g + sum_v m_angle(v) = 0

    for ``compare``'s own margins m_Sc = Sc_g, m_H = H_g and m_angle = pi/2 -
    theta_g.  Tensor Gauss-Legendre nodes replace the samples, so a wrong
    sign or weight in any one margin breaks the sum."""

    METRICS = [
        {"11": "exp(2*0.1*sin(x1)*sin(x2))", "22": "exp(2*0.1*sin(x1)*sin(x2))"},
        {"11": "1 + 0.3*x2^2", "12": "0.2*x1*x2", "22": "1 + 0.1*x1"},
        {"11": "2 + sin(x1*x2)", "12": "0.3*cos(x1)", "22": "1.5 + 0.4*x1*x2^2"},
    ]
    NODES = 16

    @pytest.mark.parametrize("metric", METRICS, ids=["conformal", "polynomial", "trigonometric"])
    def test_margins_integrate_to_zero(self, monkeypatch, metric):
        from dihedral_lab import comparison

        scene = CompareScene.from_scene({
            "N": {**square_scene_dict(), "g": metric}, "M": square_scene_dict(),
            "f": ["x1", "x2"], "faces": {"1": "1", "2": "2", "3": "3", "4": "4"}})
        g = scene.metric_src
        nodes, weights = np.polynomial.legendre.leggauss(self.NODES)
        rule = list(zip((0.5 * (nodes + 1.0)).tolist(), (0.5 * weights).tolist()))
        weight = {}  # sample point -> its weight in the identity
        strata = {(): []}
        for (s, u), (t, v) in itertools.product(rule, rule):
            gm = g.matrix_at((s, t))
            weight[s, t] = 0.5 * u * v * math.sqrt(gm[0][0] * gm[1][1] - gm[0][1] ** 2)
            strata[()].append((s, t))
        dom = scene.domain_src
        for face, (a, b) in enumerate(zip(dom.a, dom.b)):
            axis = 1 if a[0] else 0  # the coordinate that runs along the face
            strata[(face,)] = []
            for t, w in rule:
                x = [b * a[0], b * a[1]]
                x[axis] = t
                weight[tuple(x)] = w * math.sqrt(g.matrix_at(x)[axis][axis])  # |e|_g
                strata[(face,)].append(tuple(x))
        sample = comparison._sample
        monkeypatch.setattr(comparison, "_sample", lambda domain, stratum, *args, **kw: (
            strata[stratum] if domain is dom and stratum in strata
            else sample(domain, stratum, *args, **kw)))
        spec = SampleSpec(interior=self.NODES**2, per_face=self.NODES, per_edge=1)
        terms = {"scalar": [], "mean_curvature": [], "angle": []}
        for name, _, x, margin, _ in comparison._pointwise_quantities(scene, spec):
            if name in terms:
                terms[name].append(margin * weight.get(tuple(x), 1.0))
        assert [len(v) for v in terms.values()] == [self.NODES**2, 4 * self.NODES, 4]
        sums = [math.fsum(v) for v in terms.values()]
        assert max(map(abs, sums)) > 1e-2  # each metric puts weight in the identity
        assert abs(math.fsum(sums)) <= 1e-12 * sum(map(abs, sums))


class TestFirstOrderIdentity:
    """The theorem to first order in 3-D: for g = delta + eps h on a polytope
    and f = id onto the flat copy, ``compare``'s margins m_Sc = Sc_g, m_H =
    H_g and m_angle = theta_flat - theta_g satisfy

        L = integral_P m_Sc dV + 2 integral_bd m_H dA + 2 sum_edges integral m_angle dL
          = O(eps^2)

    with Euclidean measures: the first variation of the Einstein-Hilbert
    action with its face term (Gibbons-Hawking) and corner term (Hayward) at
    a flat metric with flat faces.  Each term is O(eps), so a wrong sign or
    weight in one margin leaves L of order eps.  Gauss-Legendre nodes (8 per
    direction, the collapsed square on triangles) replace the samples."""

    NODES = 8
    # h of the rigidity notes: every term of L is of order eps
    H = {"11": "x2*x3 + sin(x1)", "12": "x1*x2*(1 + x3)", "13": "x1*x3*cos(x2)",
         "22": "x1*x3^2 + x2", "23": "exp(x1)*x2*x3", "33": "x1*x2 + x2*x3^2"}
    # the unit square and the right triangle, extruded along 0 <= x3 <= 1
    BASES = {
        "cube": [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0), ([0, -1], -1)],
        "prism": [([1, 0], 0), ([0, 1], 0), ([-1, -1], -1)],
    }

    @classmethod
    def patch(cls, side, nodes):
        """Triangles as collapsed squares ``(s, t) -> p + s (q - p) + s t (r - q)``
        of Jacobian ``s |(q - p) x (r - p)|``, parallelograms as ``p + s (q - p)
        + t (r - p)`` with q, r the corners next to p: ``(point, weight)``."""
        p, q, r = (np.array(v) for v in nodes[:3])
        if len(nodes) == 4:  # the two corners nearest p are its neighbours
            q, r = sorted((np.array(v) for v in nodes[1:]),
                          key=lambda v: float(np.linalg.norm(v - p)))[:2]
        area = float(np.linalg.norm(np.cross(q - p, r - p)))
        out = []
        for (s, u), (t, v) in itertools.product(side, side):
            if len(nodes) == 3:
                out.append((tuple((p + s * (q - p) + s * t * (r - q)).tolist()), u * v * s * area))
            else:
                out.append((tuple((p + s * (q - p) + t * (r - p)).tolist()), u * v * area))
        return out

    def identity_terms(self, monkeypatch, base, eps):
        from dihedral_lab import comparison

        halfspaces = [{"a": [*a, 0], "b": b} for a, b in self.BASES[base]]
        halfspaces += [{"a": [0, 0, 1], "b": 0}, {"a": [0, 0, -1], "b": -1}]
        flat = {"dim": 3, "halfspaces": halfspaces, "g": {"11": "1", "22": "1", "33": "1"}}
        metric = {k: ("1 + " if k[0] == k[1] else "") + f"{eps!r}*({v})"
                  for k, v in self.H.items()}
        count = len(halfspaces)
        scene = CompareScene.from_scene({
            "N": {**flat, "g": metric}, "M": flat, "f": ["x1", "x2", "x3"],
            "faces": {str(i): str(i) for i in range(1, count + 1)}})
        dom = scene.domain_src
        verts = dom.vertices()
        nodes, weights = np.polynomial.legendre.leggauss(self.NODES)
        side = list(zip((0.5 * (nodes + 1.0)).tolist(), (0.5 * weights).tolist()))
        strata, weight = {}, {}  # stratum -> points; (reported stratum, point) -> weight

        def add(stratum, label, rule):
            strata[stratum] = [x for x, _ in rule]
            weight.update(((label, x), w) for x, w in rule)

        # interior: the base rule times the x3 rule
        base_rule = self.patch(side, [v[:2] + (0.0,) for v in verts if v[2] == 0.0])
        add((), "interior", [((x[0], x[1], z), w * wz)
                                     for (x, w), (z, wz) in itertools.product(base_rule, side)])
        for i in range(count):
            add((i,), f"face:{i + 1}",
                [(x, 2.0 * w) for x, w in self.patch(side, [v for v in verts
                                                         if dom.on_face(i, v)])])
        for i, j in itertools.combinations(range(count), 2):
            ends = [np.array(v) for v in verts if dom.on_edge(i, j, v)]
            if len(ends) == 2:
                length = float(np.linalg.norm(ends[1] - ends[0]))
                add((i, j), f"edge:{i + 1},{j + 1}",
                    [(tuple((ends[0] + t * (ends[1] - ends[0])).tolist()), 2.0 * w * length)
                     for t, w in side])
        sample = comparison._sample
        monkeypatch.setattr(comparison, "_sample", lambda domain, stratum, *args, **kw: (
            strata[stratum] if domain is dom and stratum in strata
            else sample(domain, stratum, *args, **kw)))
        spec = SampleSpec(interior=self.NODES**3, per_face=self.NODES**2, per_edge=self.NODES)
        terms = {"scalar": [], "mean_curvature": [], "angle": []}
        for name, stratum, x, margin, _ in comparison._pointwise_quantities(scene, spec):
            if name in terms:
                terms[name].append(margin * weight[stratum, tuple(x)])
        edges = {"cube": 12, "prism": 9}[base]
        assert [len(v) for v in terms.values()] == [
            self.NODES**3, count * self.NODES**2, edges * self.NODES]
        return [math.fsum(v) for v in terms.values()]

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    @pytest.mark.parametrize("base", ["cube", "prism"])
    def test_margins_integrate_to_second_order(self, monkeypatch, base, eps):
        terms = self.identity_terms(monkeypatch, base, eps)
        assert min(map(abs, terms)) > eps  # every margin enters at first order
        assert abs(math.fsum(terms)) <= 0.2 * eps * max(map(abs, terms))


class TestWitnessTies:
    """The witness of a margin is the first sample within a few ulps of its
    extreme, so margins that tie up to rounding do not move it."""

    @staticmethod
    def reports(monkeypatch, scene, rows):
        from dihedral_lab import comparison

        monkeypatch.setattr(comparison, "_pointwise_quantities", lambda sc, sp: rows)
        return [comparison._run_report(scene, SampleSpec(), mode, 1e-6)
                for mode in ("hypotheses", "conclusions")]

    @staticmethod
    def witnesses(reports):
        return [(report.holds, {name: (rec.witness, rec.stratum)
                                for name, rec in report.margins.items()})
                for report in reports]

    @pytest.mark.parametrize("name", ["cube_id", "square_id"])
    def test_one_ulp_perturbation_keeps_the_witness(self, monkeypatch, name):
        scene = shipped_scene(name)
        rows = _pointwise_quantities(scene, SampleSpec())
        angles = [k for k, row in enumerate(rows) if row[0] == "angle"]
        assert max(abs(rows[k][3]) for k in angles) <= 1e-15  # isometric: ties
        want = self.witnesses(self.reports(monkeypatch, scene, rows))
        for k in angles:
            for step in (-math.inf, math.inf):
                moved = list(rows)
                name_, stratum, x, gap, resid = rows[k]
                moved[k] = (name_, stratum, x, math.nextafter(gap, step),
                            math.nextafter(resid, -step))
                assert self.witnesses(self.reports(monkeypatch, scene, moved)) == want

    def test_separated_margins_keep_the_strict_extreme(self, monkeypatch):
        scene = shipped_scene("square_id")
        rows = [("angle", "edge:1,3", (float(k), 0.0), gap, abs(gap))
                for k, gap in enumerate([0.0, -1e-3, math.nextafter(-1e-3, 0.0), 2e-3])]
        hyp, concl = self.reports(monkeypatch, scene, rows)
        assert (hyp.margins["angle"].value, hyp.margins["angle"].witness) == (-1e-3, (1.0, 0.0))
        assert (concl.margins["angle"].value, concl.margins["angle"].witness) == (2e-3, (3.0, 0.0))


class TestSampling:
    def test_deterministic(self):
        dom = PolyDomain.from_scene(square_scene_dict())
        a = _sample(dom, (), 10, 42)
        b = _sample(dom, (), 10, 42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = _sample(dom, (), 10, 43)
        assert not all(np.allclose(x, y) for x, y in zip(a, c))

    def test_strata_membership(self):
        dom = PolyDomain.from_scene(square_scene_dict())
        for x in _sample(dom, (0,), 8, 0):
            assert dom.on_face(0, x)
        for x in _sample(dom, (0, 2), 1, 0):
            assert dom.on_edge(0, 2, x)
        for x in _sample(dom, (), 8, 0):
            assert _oracles.contains(dom, x)

    @settings(max_examples=80, deadline=None)
    @given(stratum=st.sampled_from(
               [("cube_id", ()), ("cube_id", (3,)), ("cube_id", (0, 2)),
                ("cube_id", (0, 1)), ("square_id", ()),
                ("square_id", (1,)), ("square_id", (0, 2))]),
           seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12),
           more=st.integers(0, 40))
    def test_shorter_run_is_a_prefix(self, stratum, seed, count, more):
        # compare validates on max(per_face, 8) / max(per_edge, 4) points and
        # reports on the first per_face / per_edge of them
        name, stratum = stratum
        dom = shipped_scene(name).domain_src
        try:
            short = _sample(dom, stratum, count, seed)
        except DomainError:  # only the parallel pair (0, 1) has no edge
            assert stratum == (0, 1)
            return
        full = _sample(dom, stratum, count + more, seed)
        assert len(short) == min(count, len(full))
        assert short == full[:len(short)]

    def test_negative_seed_rejected_like_numpy(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            np.random.default_rng(-1)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            _uniform(-1, 2)

    def test_unknown_stratum(self):
        dom = PolyDomain.from_scene(square_scene_dict())
        with pytest.raises(ValueError):
            _sample(dom, "volume", 1, 0)


class TestConformalIdentities:
    def test_constant_factor_flat(self):
        g = euclidean_metric(3)
        out = conformal_identities(g, "2.0", (0.2, 0.1, -0.3))
        assert abs(out["scalar"]) <= 1e-13

    def test_constant_factor_flat_boundary(self):
        g = euclidean_metric(2)
        dom = PolyDomain.from_scene(square_scene_dict())
        out = conformal_identities(g, "1.5", (0.0, 0.5), domain=dom, face=0)
        assert abs(out["scalar"]) <= 1e-13
        assert abs(out["mean_curvature"]) <= 1e-13

    def test_constant_factor_sphere_scaling(self):
        expr = "4/(1+x1^2+x2^2)^2"
        g = parse_metric({"11": expr, "22": expr}, 2)
        out = conformal_identities(g, "3.0", (0.3, -0.1))
        assert abs(out["scalar"]) <= 1e-13

    def test_nonconstant_factor_flat_3d(self):
        g = euclidean_metric(3)
        out = conformal_identities(g, "1 + 0.1*sin(x1)", (0.4, 0.2, -0.5))
        assert abs(out["scalar"]) <= 1e-13

    def test_identity_against_symbolic_oracle(self):
        # independent symbolic check that Sc(h^2 delta) equals the stated
        # right-hand side with the div grad Laplacian, n = 3
        xs = sp.symbols("x1 x2 x3", real=True)
        h = 1 + sp.Rational(1, 10) * sp.sin(xs[0])
        gs = sp.eye(3) * h**2
        point = (0.4, 0.2, -0.5)
        *_, sc = symbolic_curvature(gs, list(xs), point)
        lap = float(sum(sp.diff(h, v, 2) for v in xs).subs(dict(zip(xs, point))))
        grad_sq = float(sum(sp.diff(h, v) ** 2 for v in xs).subs(dict(zip(xs, point))))
        hval = float(h.subs(dict(zip(xs, point))))
        nn = 3
        rhs = -2 * (nn - 1) / hval**3 * lap - (nn - 1) * (nn - 4) / hval**4 * grad_sq
        assert sc == pytest.approx(rhs, abs=1e-10)

    def test_boundary_variant_nonconstant(self):
        g = euclidean_metric(2)
        dom = PolyDomain.from_scene(square_scene_dict())
        out = conformal_identities(g, "1 + 0.3*x1 + 0.2*x2", (0.0, 0.5),
                                   domain=dom, face=0)
        assert abs(out["mean_curvature"]) <= 1e-13

    @pytest.mark.parametrize("face, x", [(0, (0.0, 0.5)), (2, (0.6, 0.0))])
    def test_boundary_variant_curved_gbar(self, face, x):
        # a gbar with nonzero Christoffel symbols on the face, so H(gbar)
        # depends on lowering them correctly
        g = parse_metric({"11": "1 + 0.2*x2^2", "12": "0.1*x1", "22": "exp(0.3*x1)"}, 2)
        dom = PolyDomain.from_scene(square_scene_dict())
        out = conformal_identities(g, "1 + 0.3*x1 + 0.2*x2^2", x, domain=dom, face=face)
        assert abs(out["mean_curvature"]) <= 1e-13

    def test_boundary_check_computes_gbar_quantities_once(self, monkeypatch):
        import dihedral_lab.curvature as curvature

        calls = []

        def counting(g, pts):
            calls.append(g)
            return first_order(g, pts)

        first_order = curvature._first_order
        monkeypatch.setattr(curvature, "_first_order", counting)
        gbar = euclidean_metric(3)
        cube = PolyDomain.from_halfspaces(
            [(row, 0.0) for row in np.eye(3)] + [(-row, -1.0) for row in np.eye(3)])
        out = conformal_identities(gbar, "1 + 0.3*x1 + 0.1*x2^2", (0.0, 0.5, 0.4),
                                   domain=cube, face=0)
        # each metric once: its curvature pack feeds the face too
        assert len(calls) == 2
        assert sum(g is gbar for g in calls) == 1
        assert abs(out["mean_curvature"]) <= 1e-12

    def test_nonpositive_factor_rejected(self):
        g = euclidean_metric(2)
        with pytest.raises(ValueError):
            conformal_identities(g, "-1", (0.0, 0.0))
