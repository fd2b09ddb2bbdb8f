import math

import pytest

from graddivbox.criterion import (
    CriterionInput,
    build_report,
    eps_bound,
    eps_bound_viscous,
    gamma_range_mesh_dependent,
    gamma_range_mesh_independent,
    kolmogorov_eta,
    nondimensional_groups,
)


def make_input(U=1.0, L=1.0, nu=0.01, kappa=math.sqrt(2), gamma=None, h=None):
    return CriterionInput(U=U, L=L, nu=nu, kappa=kappa, gamma=gamma, h=h)


class TestGroups:
    def test_identity(self):
        re, _ = nondimensional_groups(make_input(nu=1.0))
        assert re == 1.0

    def test_r_gamma(self):
        _, rg = nondimensional_groups(make_input(gamma=0.5))
        assert rg == 2.0

    def test_homogeneity(self):
        re1, rg1 = nondimensional_groups(make_input(gamma=0.5))
        re2, rg2 = nondimensional_groups(make_input(U=2.0, L=2.0, gamma=0.5))
        assert re2 == pytest.approx(4 * re1)
        assert rg2 == pytest.approx(4 * rg1)

    def test_gamma_zero_is_infinite(self):
        _, rg = nondimensional_groups(make_input(gamma=0.0))
        assert math.isinf(rg)


class TestEpsBound:
    def test_bound_arithmetic(self):
        # Re = 100, kappa^2 = 2, R_gamma = 1, U = L = 1 -> 6 + 0.01 + 0.5
        inp = make_input(nu=0.01, gamma=1.0)
        assert eps_bound(inp) == pytest.approx(6.51)

    def test_large_gamma_limit(self):
        inp = make_input(nu=0.01, gamma=1e12)
        assert eps_bound(inp) == pytest.approx(eps_bound_viscous(inp), rel=1e-10)

    def test_cubic_homogeneity(self):
        # doubling U at fixed groups: scale L with U and nu, gamma like LU
        a = make_input(U=1.0, L=1.0, nu=0.01, gamma=1.0)
        b = make_input(U=2.0, L=1.0, nu=0.02, gamma=2.0)
        assert eps_bound(b) == pytest.approx(8 * eps_bound(a))

    def test_gamma_zero_infinite_with_viscous_part(self):
        inp = make_input(gamma=0.0)
        assert math.isinf(eps_bound(inp))
        assert math.isfinite(eps_bound_viscous(inp))

    def test_monotonicity(self):
        base = make_input(nu=0.01, gamma=1.0)
        more_r_gamma = make_input(nu=0.01, gamma=0.5)
        more_kappa = make_input(nu=0.01, gamma=1.0, kappa=2.0)
        more_re = make_input(nu=0.005, gamma=1.0)
        assert eps_bound(more_r_gamma) > eps_bound(base)
        assert eps_bound(more_kappa) > eps_bound(base)
        assert eps_bound(more_re) < eps_bound(base)


class TestGammaWindows:
    def test_mesh_independent_arithmetic(self):
        lo, hi = gamma_range_mesh_independent(make_input(nu=0.01))
        assert lo == pytest.approx(1.0 / 12.0)
        assert hi == pytest.approx(50.0)

    def test_degenerate_window(self):
        lo, hi = gamma_range_mesh_independent(make_input(kappa=1.0, nu=6.0))
        assert lo == pytest.approx(1.0 / 24.0)
        assert hi == pytest.approx(1.0 / 24.0)

    def test_kappa_doubling_quadruples_endpoints(self):
        lo1, hi1 = gamma_range_mesh_independent(make_input(kappa=1.1))
        lo2, hi2 = gamma_range_mesh_independent(make_input(kappa=2.2))
        assert lo2 == pytest.approx(4 * lo1)
        assert hi2 == pytest.approx(4 * hi1)

    def test_mesh_dependent_arithmetic(self):
        lo, hi = gamma_range_mesh_dependent(make_input(h=1.0 / 16.0))
        assert lo == pytest.approx(1.0 / 12.0)
        assert hi == pytest.approx(0.5 * 16.0 ** (4.0 / 3.0))
        assert hi == pytest.approx(20.158, rel=1e-3)

    def test_h_equals_eta_matches_mesh_independent(self):
        inp = make_input(nu=0.013)
        re, _ = nondimensional_groups(inp)
        eta = kolmogorov_eta(re, inp.L)
        _, hi_mi = gamma_range_mesh_independent(inp)
        _, hi_md = gamma_range_mesh_dependent(make_input(nu=0.013, h=eta))
        assert hi_md == pytest.approx(hi_mi, rel=1e-12)

    def test_unit_mesh_ratio(self):
        lo, hi = gamma_range_mesh_dependent(make_input(kappa=1.0, h=1.0))
        assert lo == pytest.approx(1.0 / 24.0)
        assert hi == pytest.approx(0.25)

    def test_lower_endpoint_identical_across_regimes(self):
        inp = make_input(h=0.1)
        lo_mi, _ = gamma_range_mesh_independent(inp)
        lo_md, _ = gamma_range_mesh_dependent(inp)
        assert lo_mi == lo_md

    def test_mesh_dependent_monotone_in_h(self):
        his = [gamma_range_mesh_dependent(make_input(h=h))[1] for h in (0.05, 0.1, 0.2)]
        assert his[0] > his[1] > his[2]

    def test_requires_h(self):
        with pytest.raises(ValueError, match="mesh width"):
            gamma_range_mesh_dependent(make_input())


class TestKolmogorovEta:
    def test_power_law(self):
        assert kolmogorov_eta(1e4, 1.0) == pytest.approx(1e-3)

    def test_unit_reynolds(self):
        assert kolmogorov_eta(1.0, 2.7) == pytest.approx(2.7)

    def test_round_trip(self):
        re = 37.5
        eta = kolmogorov_eta(re, 1.0)
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
