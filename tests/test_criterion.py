import math

import pytest

from graddivbox.criterion import CriterionInput, build_report


def make_input(U=1.0, L=1.0, nu=0.01, kappa=math.sqrt(2), gamma=None, h=None):
    return CriterionInput(U=U, L=L, nu=nu, kappa=kappa, gamma=gamma, h=h)


def report(**kw):
    return build_report(make_input(**kw))


def mesh_independent(r):
    return r.gamma_lo, r.gamma_hi_mesh_independent


def mesh_dependent(r):
    return r.gamma_lo, r.gamma_hi_mesh_dependent


def eta_at(re, L):
    """The report's eta at Reynolds number `re` and length L (U = 1)."""
    return build_report(make_input(L=L, nu=L / re)).eta


class TestGroups:
    def test_identity(self):
        assert report(nu=1.0).Re == 1.0

    def test_r_gamma(self):
        assert report(gamma=0.5).R_gamma == 2.0

    def test_homogeneity(self):
        r1 = report(gamma=0.5)
        r2 = report(U=2.0, L=2.0, gamma=0.5)
        assert r2.Re == pytest.approx(4 * r1.Re)
        assert r2.R_gamma == pytest.approx(4 * r1.R_gamma)

    def test_gamma_zero_is_infinite(self):
        assert math.isinf(report(gamma=0.0).R_gamma)


class TestEpsBound:
    def test_bound_arithmetic(self):
        # Re = 100, kappa^2 = 2, R_gamma = 1, U = L = 1 -> 6 + 0.01 + 0.5
        assert report(nu=0.01, gamma=1.0).eps_bound == pytest.approx(6.51)

    def test_large_gamma_limit(self):
        r = report(nu=0.01, gamma=1e12)
        assert r.eps_bound == pytest.approx(r.eps_bound_viscous, rel=1e-10)

    def test_cubic_homogeneity(self):
        # doubling U at fixed groups: scale L with U and nu, gamma like LU
        a = report(U=1.0, L=1.0, nu=0.01, gamma=1.0)
        b = report(U=2.0, L=1.0, nu=0.02, gamma=2.0)
        assert b.eps_bound == pytest.approx(8 * a.eps_bound)

    def test_gamma_zero_infinite_with_viscous_part(self):
        r = report(gamma=0.0)
        assert math.isinf(r.eps_bound)
        assert math.isfinite(r.eps_bound_viscous)

    def test_monotonicity(self):
        base = report(nu=0.01, gamma=1.0)
        more_r_gamma = report(nu=0.01, gamma=0.5)
        more_kappa = report(nu=0.01, gamma=1.0, kappa=2.0)
        more_re = report(nu=0.005, gamma=1.0)
        assert more_r_gamma.eps_bound > base.eps_bound
        assert more_kappa.eps_bound > base.eps_bound
        assert more_re.eps_bound < base.eps_bound


class TestGammaWindows:
    def test_mesh_independent_arithmetic(self):
        lo, hi = mesh_independent(report(nu=0.01))
        assert lo == pytest.approx(1.0 / 12.0)
        assert hi == pytest.approx(50.0)

    def test_degenerate_window(self):
        lo, hi = mesh_independent(report(kappa=1.0, nu=6.0))
        assert lo == pytest.approx(1.0 / 24.0)
        assert hi == pytest.approx(1.0 / 24.0)

    def test_kappa_doubling_quadruples_endpoints(self):
        lo1, hi1 = mesh_independent(report(kappa=1.1))
        lo2, hi2 = mesh_independent(report(kappa=2.2))
        assert lo2 == pytest.approx(4 * lo1)
        assert hi2 == pytest.approx(4 * hi1)

    def test_mesh_dependent_arithmetic(self):
        lo, hi = mesh_dependent(report(h=1.0 / 16.0))
        assert lo == pytest.approx(1.0 / 12.0)
        assert hi == pytest.approx(0.5 * 16.0 ** (4.0 / 3.0))
        assert hi == pytest.approx(20.158, rel=1e-3)

    def test_h_equals_eta_matches_mesh_independent(self):
        r = report(nu=0.013)
        _, hi_md = mesh_dependent(report(nu=0.013, h=r.eta))
        assert hi_md == pytest.approx(r.gamma_hi_mesh_independent, rel=1e-12)

    def test_unit_mesh_ratio(self):
        lo, hi = mesh_dependent(report(kappa=1.0, h=1.0))
        assert lo == pytest.approx(1.0 / 24.0)
        assert hi == pytest.approx(0.25)

    def test_lower_endpoint_identical_across_regimes(self):
        # one gamma_lo bounds both windows; it is the same with and without h
        assert report(h=0.1).gamma_lo == report().gamma_lo

    def test_mesh_dependent_monotone_in_h(self):
        his = [report(h=h).gamma_hi_mesh_dependent for h in (0.05, 0.1, 0.2)]
        assert his[0] > his[1] > his[2]

    def test_requires_h(self):
        r = report(gamma=1.0)
        assert r.gamma_hi_mesh_dependent is None
        assert r.mesh_dependent_window_empty is None
        assert r.in_window_mesh_dependent is None
        assert r.in_window_mesh_independent is True


class TestKolmogorovEta:
    def test_power_law(self):
        assert eta_at(1e4, 1.0) == pytest.approx(1e-3)

    def test_unit_reynolds(self):
        assert eta_at(1.0, 2.7) == pytest.approx(2.7)

    def test_round_trip(self):
        re = 37.5
        eta = eta_at(re, 1.0)
        assert (eta / 1.0) ** (-4.0 / 3.0) == pytest.approx(re, rel=1e-12)


class TestValidationAndReport:
    def test_rejects_kappa_below_one(self):
        with pytest.raises(ValueError, match="kappa"):
            make_input(kappa=0.5)

    def test_rejects_nonpositive_scales(self):
        for kw in ({"U": 0.0}, {"L": -1.0}, {"nu": 0.0}):
            with pytest.raises(ValueError):
                make_input(**kw)

    def test_dimensional_scaling_invariance(self):
        # (L, U, nu, gamma, h) -> (sL, sU, s^2 nu, s^2 gamma, sh) leaves groups unchanged
        s = 3.7
        a = make_input(U=1.2, L=0.8, nu=0.02, gamma=0.9, h=0.1)
        b = make_input(U=s * 1.2, L=s * 0.8, nu=s * s * 0.02, gamma=s * s * 0.9, h=s * 0.1)
        ra, rb = build_report(a), build_report(b)
        assert rb.Re == pytest.approx(ra.Re, rel=1e-12)
        assert rb.R_gamma == pytest.approx(ra.R_gamma, rel=1e-12)
        assert rb.eps_bound == pytest.approx(s ** 3 / s * ra.eps_bound, rel=1e-12)
        assert rb.gamma_lo == pytest.approx(s * s * ra.gamma_lo, rel=1e-12)

    def test_report_window_membership(self):
        rep = build_report(make_input(nu=0.01, gamma=1.0, h=1.0 / 16.0))
        assert rep.in_window_mesh_independent is True
        assert rep.in_window_mesh_dependent is True
        rep2 = build_report(make_input(nu=0.01, gamma=100.0))
        assert rep2.in_window_mesh_independent is False

    def test_empty_mesh_dependent_window_reported(self):
        rep = build_report(make_input(kappa=1.0, gamma=None, h=30.0, L=1.0))
        # h >> L: the upper endpoint drops below the lower one
        assert rep.mesh_dependent_window_empty is True

    def test_bound_check_against_measurement(self):
        rep = build_report(make_input(nu=0.01, gamma=1.0), measured_eps_avg=1.0)
        assert rep.bound_satisfied is True
        rep2 = build_report(make_input(nu=0.01, gamma=1.0), measured_eps_avg=100.0)
        assert rep2.bound_satisfied is False
