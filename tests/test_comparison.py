import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    bianchi_residual_closure,
    kron_boundary_endomorphism,
    kron_curvature_endomorphism,
    symbolic_curvature,
    wedge_compound_matrix,
)
from dihedral_lab.clifford import clifford_module
from dihedral_lab.comparison import (
    CompareScene,
    SampleSpec,
    SceneError,
    bianchi_residual,
    boundary_certificate,
    check_conclusions,
    check_hypotheses,
    conformal_identities,
    curvature_certificate,
    df_norms,
    random_curvature_operator,
    sample_stratum,
)
from dihedral_lab.curvature import PolyDomain
from dihedral_lab.expressions import euclidean_metric, parse_metric


class TestDfNorms:
    def test_homothety(self):
        out = df_norms(2.5 * np.eye(3))
        assert out.df_norm == pytest.approx(2.5, rel=1e-14)
        assert out.wedge2_norm == pytest.approx(2.5**2, rel=1e-14)
        assert all(s == pytest.approx(2.5, rel=1e-14) for s in out.singular_values)

    def test_diagonal(self):
        out = df_norms(np.diag([2.0, 0.5]))
        assert out.df_norm == pytest.approx(2.0)
        assert out.wedge2_norm == pytest.approx(1.0)
        assert out.singular_values == pytest.approx((2.0, 0.5))

    def test_rank_one(self):
        out = df_norms(np.outer([1.0, 2.0], [3.0, 0.0]))
        assert out.wedge2_norm == pytest.approx(0.0, abs=1e-12)

    def test_wedge_norm_vs_minors_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            jac = rng.normal(size=(3, 3))
            oracle = np.linalg.svd(wedge_compound_matrix(jac), compute_uv=False)[0]
            assert df_norms(jac).wedge2_norm == pytest.approx(oracle, rel=1e-10)

    def test_wedge_below_df_squared(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            jac = rng.normal(size=rng.integers(1, 5, size=2))
            out = df_norms(jac)
            assert out.wedge2_norm <= out.df_norm**2 + 1e-12

    def test_homothety_equality_detection(self):
        # all singular values equal  =>  |^2 df| = |df|^2 exactly
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        out = df_norms(1.7 * q)
        assert out.wedge2_norm == pytest.approx(out.df_norm**2, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                    min_size=4, max_size=9))
    def test_wedge_inequality_property(self, entries):
        side = int(math.isqrt(len(entries)))
        jac = np.array(entries[: side * side]).reshape(side, side)
        out = df_norms(jac)
        assert out.wedge2_norm <= out.df_norm**2 * (1.0 + 1e-12) + 1e-12
        assert all(a >= b - 1e-12 for a, b in
                   zip(out.singular_values, out.singular_values[1:]))


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

    @pytest.mark.parametrize("m, n", [(2, 2), (4, 4), (6, 6), (4, 2), (2, 6)])
    def test_matches_kron_loop_reference(self, m, n):
        src, dst = clifford_module(n), clifford_module(m)
        rng = np.random.default_rng(99 + 10 * m + n)
        for _ in range(10):
            rop = random_curvature_operator(m, rng)
            jac = rng.normal(size=(m, n))
            mat, scale = kron_curvature_endomorphism(rop, jac, src, dst)
            ref = np.linalg.eigvalsh(mat)[0]
            got = curvature_certificate(rop, jac, src, dst)
            assert abs(got - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_bianchi_matches_closure_reference(self, n):
        rng = np.random.default_rng(31 + n)
        for _ in range(10):
            ell = rng.normal(size=(n * (n - 1) // 2,) * 2)
            rop = ell.T @ ell
            assert bianchi_residual(rop, n) == bianchi_residual_closure(rop, n)
            good = random_curvature_operator(n, rng)
            assert bianchi_residual(good, n) == bianchi_residual_closure(good, n)

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

    @pytest.mark.parametrize("m, n", [(2, 2), (4, 4), (6, 6), (4, 2), (2, 6)])
    def test_matches_kron_loop_reference(self, m, n):
        src, dst = clifford_module(n), clifford_module(m)
        rng = np.random.default_rng(17 + 10 * m + n)
        for _ in range(10):
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
                assert scene.domain_src.contains(rec.witness)
            elif rec.stratum.startswith("face:"):
                i = int(rec.stratum.split(":")[1]) - 1
                assert scene.domain_src.on_face(i, rec.witness, tol=1e-8)
            else:
                i, j = (int(v) - 1 for v in rec.stratum.split(":")[1].split(","))
                assert scene.domain_src.on_edge(i, j, rec.witness, tol=1e-8)

    def test_identity_cube_3d(self):
        def cube(dim=3):
            hs = []
            for k in range(dim):
                a = [0.0] * dim
                a[k] = 1.0
                hs.append({"a": list(a), "b": 0.0})
                a = [0.0] * dim
                a[k] = -1.0
                hs.append({"a": list(a), "b": -1.0})
            g = {f"{i}{i}": "1" for i in range(1, dim + 1)}
            return {"dim": dim, "halfspaces": hs, "g": g}

        scene = CompareScene.from_scene({
            "N": cube(),
            "M": cube(),
            "f": ["x1", "x2", "x3"],
            "faces": {str(i): str(i) for i in range(1, 7)},
        })
        spec = SampleSpec(interior=4, per_face=2, per_edge=1, seed=1)
        report = check_hypotheses(scene, spec)
        assert report.holds
        assert report.margins["angle"].value == pytest.approx(0.0, abs=1e-9)
        assert report.margins["angle_cap"].value == pytest.approx(
            math.pi / 2, abs=1e-9)
        assert check_conclusions(scene, spec).holds

    def test_scaled_map_between_matching_squares(self):
        # f = a id from the unit square onto the side-a square, flat metrics
        scene = CompareScene.from_scene({
            "N": square_scene_dict(),
            "M": square_scene_dict(side=0.5),
            "f": ["0.5*x1", "0.5*x2"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        })
        rep = check_conclusions(scene, SampleSpec(seed=2))
        assert rep.holds
        rep_h = check_hypotheses(scene, SampleSpec(seed=2))
        assert rep_h.holds

    def test_perturbed_source_metric_fails(self):
        # Sc of (1 + 0.2 sin x1) delta changes sign over [-2, 2]^2, so the
        # scalar margin must go negative somewhere (the target is flat)
        scene = CompareScene.from_scene({
            "N": square_scene_dict(side=4.0, lo=-2.0,
                                   conformal="1 + 0.2*sin(x1)"),
            "M": square_scene_dict(side=4.0, lo=-2.0),
            "f": ["x1", "x2"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        })
        report = check_hypotheses(scene, SampleSpec(interior=64, seed=9))
        assert report.margins["scalar"].value < 0.0
        assert not report.holds
        concl = check_conclusions(scene, SampleSpec(interior=64, seed=9))
        assert not concl.holds

    def test_wedge_pair_angle_violation(self):
        theta_n = 2.0 * math.pi / 3.0
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
        scene = CompareScene.from_scene({
            "N": wedge_n,
            "M": wedge_m,
            "f": [f"x1 + ({a})*x2", f"({b})*x2"],
            "faces": {"1": "1", "2": "2"},
        })
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

    def test_collapsing_map_rejected(self):
        scene = CompareScene.from_scene({
            "N": square_scene_dict(),
            "M": square_scene_dict(),
            "f": ["x1", "0*x2"],
            "faces": {"1": "1", "2": "2", "3": "3", "4": "4"},
        })
        with pytest.raises(SceneError):
            scene.validate()


class TestSampling:
    def test_sample_grid_json_form(self):
        from dihedral_lab.comparison import sample_grid

        dom = PolyDomain.from_scene(square_scene_dict())
        pts = sample_grid(dom, {"stratum": "face:1", "count": 5, "seed": 3})
        assert len(pts) == 5
        for x in pts:
            assert dom.on_face(0, x, tol=1e-9)
        with pytest.raises(SceneError):
            sample_grid(dom, {"stratum": "interior", "count": 2})

    def test_deterministic(self):
        dom = PolyDomain.from_scene(square_scene_dict())
        a = sample_stratum(dom, "interior", 10, 42)
        b = sample_stratum(dom, "interior", 10, 42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = sample_stratum(dom, "interior", 10, 43)
        assert not all(np.allclose(x, y) for x, y in zip(a, c))

    def test_strata_membership(self):
        dom = PolyDomain.from_scene(square_scene_dict())
        for x in sample_stratum(dom, "face:0", 8, 0):
            assert dom.on_face(0, x, tol=1e-9)
        for x in sample_stratum(dom, "edge:0,2", 1, 0):
            assert dom.on_edge(0, 2, x, tol=1e-9)
        for x in sample_stratum(dom, "interior", 8, 0):
            assert dom.contains(x)

    def test_unknown_stratum(self):
        dom = PolyDomain.from_scene(square_scene_dict())
        with pytest.raises(ValueError):
            sample_stratum(dom, "volume", 1, 0)


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

    def test_boundary_check_computes_gbar_quantities_once(self, monkeypatch):
        import dihedral_lab.comparison as comparison
        import dihedral_lab.curvature as curvature

        calls = {"face_geometry": [], "christoffel": []}

        def counting(name, fn):
            def wrapper(g, *args):
                calls[name].append(g)
                return fn(g, *args)
            return wrapper

        for module, name in ((comparison, "face_geometry"), (curvature, "christoffel")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        gbar = euclidean_metric(3)
        cube = PolyDomain.from_halfspaces(
            [(row, 0.0) for row in np.eye(3)] + [(-row, -1.0) for row in np.eye(3)])
        out = conformal_identities(gbar, "1 + 0.3*x1 + 0.1*x2^2", (0.0, 0.5, 0.4),
                                   domain=cube, face=0)
        for name in calls:
            assert len(calls[name]) == 2
            assert sum(g is gbar for g in calls[name]) == 1
        assert abs(out["mean_curvature"]) <= 1e-12

    def test_nonpositive_factor_rejected(self):
        g = euclidean_metric(2)
        with pytest.raises(ValueError):
            conformal_identities(g, "-1", (0.0, 0.0))
