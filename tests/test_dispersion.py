import collections
import math

import numpy as np
import pytest
from scipy import integrate

from nlkpp import (Kernel, ModelParams, MollisonFailure, UnsupportedCriticalCase,
                   char_multiplicity, classify, directional_mean, dispersion_G,
                   front_set, global_mean, minimize_G, reduce_to_direction,
                   speed_to_abscissa, t_xi)
from nlkpp import dispersion


def line(family, **kw):
    return reduce_to_direction(Kernel(family, 1, **kw), [1.0])


class TestTransformAndAbscissa:
    def test_gaussian_closed_form(self, gauss_line):
        assert gauss_line.transform(1.0) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_laplace_values(self):
        lap = line("laplace", mu=1.0)
        assert lap.transform(0.5) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert lap.transform(1.5) == math.inf

    def test_abscissas(self, gauss_line):
        assert gauss_line.lambda0 == math.inf
        kline = line("exppoly", p=1.0, q=3.0, mu=2.0)
        assert kline.lambda0 == 2.0
        assert math.isfinite(kline.transform(2.0))  # q > 1: finite at the edge
        assert line("exppoly", p=1.0, q=0.5, mu=2.0).transform(2.0) == math.inf
        assert line("power_tail", q=4.0).lambda0 == 0.0


class TestDispersionFunction:
    def test_gaussian_value(self, canon, gauss_line):
        assert dispersion_G(canon, gauss_line, 1.0) == pytest.approx(
            2.0 * math.exp(0.5) - 1.0, rel=1e-12)

    def test_laplace_value(self, canon):
        assert dispersion_G(canon, line("laplace", mu=1.0), 0.5) == pytest.approx(
            10.0 / 3.0, rel=1e-12)

    def test_blows_up_at_zero(self, canon, gauss_line):
        assert dispersion_G(canon, gauss_line, 1e-8) > 1e7

    def test_rejects_beyond_abscissa(self, canon):
        with pytest.raises(ValueError):
            dispersion_G(canon, line("laplace", mu=1.0), 1.2)


class TestMinimizeG:
    def test_gaussian_first_order_condition(self, canon, gauss_line):
        rep = minimize_G(canon, gauss_line)
        # stationarity: 2 e^{lam^2/2} (1 - lam^2) = 1
        lam = rep.lambda_star
        assert 2.0 * math.exp(lam**2 / 2) * (1 - lam**2) == pytest.approx(1.0, abs=1e-9)
        assert rep.c_star == pytest.approx((2 * math.exp(lam**2 / 2) - 1) / lam, rel=1e-12)
        assert rep.kernel_class == "V"
        assert rep.c_star > canon.kappa_plus * rep.m_xi

    def test_laplace_analytic_minimizer(self, canon):
        # stationarity gives lambda*^2 = sqrt(5) - 2 in closed form
        rep = minimize_G(canon, line("laplace", mu=1.0))
        assert rep.lambda_star == pytest.approx(math.sqrt(math.sqrt(5.0) - 2.0), rel=1e-10)
        golden = (1 + math.sqrt(5.0)) / 2.0
        assert rep.c_star == pytest.approx(golden / rep.lambda_star, rel=1e-10)

    def test_monotone_on_both_sides(self, canon, gauss_line):
        rep = minimize_G(canon, gauss_line)
        lams = np.linspace(1e-3, rep.lambda_star, 500)
        values = [dispersion_G(canon, gauss_line, la) for la in lams]
        assert np.all(np.diff(values) < 0)
        lams_up = np.linspace(rep.lambda_star, 3.0, 500)
        values_up = [dispersion_G(canon, gauss_line, la) for la in lams_up]
        assert np.all(np.diff(values_up) > 0)

    def test_w_class_minimizer_at_abscissa(self, canon):
        kline = line("exppoly", p=1.0, q=4.0, mu=0.2)
        rep = minimize_G(canon, kline)
        assert rep.kernel_class == "W"
        assert rep.lambda_star == kline.lambda0
        assert rep.t_xi_at_lambda0 >= canon.mortality

    def test_w_class_evaluates_the_abscissa_once(self, canon, monkeypatch):
        kline = line("exppoly", p=1.0, q=4.0, mu=1.0)
        at_lam0 = collections.Counter()
        moment = kline._moment

        def counted(lam, power):
            if lam == kline.lambda0:
                at_lam0[power] += 1
            return moment(lam, power)

        monkeypatch.setattr(kline, "_moment", counted)
        assert minimize_G(canon, kline).kernel_class == "W"
        assert at_lam0 == {0: 1, 1: 1}  # one transform, one first moment

    # the canonical rates in 1-D; lambda_c is the decay rate at 1.3 c*
    @pytest.mark.parametrize("family, kw, c_star, lam_star, lam_c", [
        ("gaussian", dict(sigma=1.0),
         "0x1.18adcbd6f788bp+1", "0x1.98655a9d444b2p-1", "0x1.a74c8f61e1288p-2"),
        ("laplace", dict(mu=1.0),
         "0x1.aa43b0271e79dp+1", "0x1.f18773c56f5ecp-2", "0x1.109e2f7c4b828p-2"),
        ("exppoly", dict(p=1.0, q=4.0, mu=1.0),
         "0x1.6dd3463d3e8bcp+0", "0x1.0000000000000p+0", "0x1.3ca2836ed2fdep-1"),
    ], ids=["gaussian", "laplace", "exppoly-W"])
    def test_roots_keep_their_bits(self, canon, family, kw, c_star, lam_star, lam_c):
        kline = line(family, **kw)
        rep = minimize_G(canon, kline)
        assert (rep.c_star.hex(), rep.lambda_star.hex()) == (c_star, lam_star)
        assert speed_to_abscissa(canon, kline, 1.3 * rep.c_star, report=rep).hex() == lam_c

    def test_mollison_failure(self, canon):
        with pytest.raises(MollisonFailure):
            minimize_G(canon, line("power_tail", q=4.0))

    def test_two_dimensional_exppoly_matches_gaussian(self, canon):
        # exp(-|x|^2) is the gaussian with sigma = 1/sqrt(2)
        exppoly = Kernel("exppoly", 2, p=2.0, q=0.0, mu=1.0)
        gauss = Kernel("gaussian", 2, sigma=1.0 / math.sqrt(2.0))
        rep = minimize_G(canon, reduce_to_direction(exppoly, [1.0, 0.0]))
        oracle = minimize_G(canon, reduce_to_direction(gauss, [1.0, 0.0]))
        assert rep.c_star == pytest.approx(oracle.c_star, abs=1e-9)

    def test_two_dimensional_exppoly_exponential_tail(self, canon):
        kernel = Kernel("exppoly", 2, p=1.0, q=4.0, mu=1.0)
        rep = minimize_G(canon, reduce_to_direction(kernel, [1.0, 0.0]))
        assert math.isfinite(rep.c_star) and rep.c_star > 0

    def test_mean_shift_keeps_strict_bound(self, canon):
        kernel = Kernel("gaussian", 1, sigma=1.0, offset=(0.5,))
        kline = reduce_to_direction(kernel, [1.0])
        rep = minimize_G(canon, kline)
        assert rep.m_xi == pytest.approx(0.5, abs=1e-12)
        assert rep.c_star > canon.kappa_plus * 0.5


class TestTXi:
    def test_limit_at_zero_is_kappa_plus(self, canon, gauss_line):
        assert t_xi(canon, gauss_line, 1e-8) == pytest.approx(canon.kappa_plus, rel=1e-6)

    def test_below_kappa_plus_at_abscissa(self, canon):
        kline = line("exppoly", p=1.0, q=4.0, mu=0.3)
        value = t_xi(canon, kline, kline.lambda0)
        assert value < canon.kappa_plus

    def test_divergent_first_moment_gives_minus_inf(self, canon):
        kline = line("exppoly", p=1.0, q=2.0, mu=1.0)
        assert t_xi(canon, kline, kline.lambda0) == -math.inf

    def test_rejects_beyond_abscissa(self, canon):
        with pytest.raises(ValueError):
            t_xi(canon, line("laplace", mu=1.0), 1.1)


class TestClassification:
    # the example family: exp(-mu |s|^p) / (1 + |s|^q); analytic cases
    CASES = [
        (2.0, 0.0, 1.0, "V"),   # p > 1: infinite abscissa
        (1.5, 2.0, 1.0, "V"),   # p > 1
        (1.0, 0.5, 1.0, "V"),   # q in [0, 1]: transform diverges at the edge
        (1.0, 1.0, 1.0, "V"),
        (1.0, 1.5, 1.0, "V"),   # q in (1, 2]: first moment diverges
        (1.0, 2.0, 1.0, "V"),
    ]

    @pytest.mark.parametrize("p,q,mu,expected", CASES)
    def test_analytic_cases(self, canon, p, q, mu, expected):
        assert classify(canon, line("exppoly", p=p, q=q, mu=mu)) == expected

    @pytest.mark.parametrize("mu", [0.2, 2.0])
    def test_q4_cases_match_oracle(self, canon, mu):
        kline = line("exppoly", p=1.0, q=4.0, mu=mu)
        # independent oracle for t(mu) = kp int (1 - mu s) a(s) e^{mu s} ds
        alpha, _ = integrate.quad(lambda s: math.exp(-mu * abs(s)) / (1 + s**4),
                                  -np.inf, np.inf, limit=400)
        alpha = 1.0 / alpha

        def pos_integrand(s):  # exponentials cancel on the positive side
            return (1 - mu * s) * alpha / (1 + s**4)

        def neg_integrand(s):
            return (1 - mu * s) * alpha * math.exp(2 * mu * s) / (1 + s**4)

        pos, _ = integrate.quad(pos_integrand, 0, np.inf, limit=400)
        neg, _ = integrate.quad(neg_integrand, -np.inf, 0, limit=400)
        t_oracle = canon.kappa_plus * (pos + neg)
        expected = "W" if t_oracle >= canon.mortality else "V"
        assert classify(canon, kline) == expected
        assert t_xi(canon, kline, mu) == pytest.approx(t_oracle, rel=1e-8)


class TestSpeedAbscissaBijection:
    def test_roundtrip_and_monotonicity(self, canon, gauss_line):
        rep = minimize_G(canon, gauss_line)
        speeds = np.linspace(rep.c_star, 3 * rep.c_star, 20)
        lams = [speed_to_abscissa(canon, gauss_line, c, report=rep) for c in speeds]
        assert lams[0] == rep.lambda_star
        assert np.all(np.diff(lams) < 0)
        for c, lam in zip(speeds, lams):
            assert dispersion_G(canon, gauss_line, lam) == pytest.approx(c, rel=1e-8)

    def test_specific_root(self, canon, gauss_line):
        rep = minimize_G(canon, gauss_line)
        lam = speed_to_abscissa(canon, gauss_line, 3.0, report=rep)
        # root of 2 e^{lam^2/2} - 1 - 3 lam = 0 below lambda*
        assert 2 * math.exp(lam**2 / 2) - 1 - 3 * lam == pytest.approx(0.0, abs=1e-10)
        assert lam < rep.lambda_star

    def test_rejects_below_minimal_speed(self, canon, gauss_line):
        rep = minimize_G(canon, gauss_line)
        with pytest.raises(ValueError):
            speed_to_abscissa(canon, gauss_line, 0.9 * rep.c_star, report=rep)


class TestCharacteristicMultiplicity:
    # a drift b against the direction lowers c*, below zero from about b = -1.18
    @pytest.mark.parametrize("offset, c_star", [
        (0.0, 2.19362), (-1.0, 0.197), (-2.0, -0.5605), (-3.0, -1.0080),
    ], ids=["b0", "b-1", "b-2", "b-3"])
    def test_gaussian_cases(self, canon, offset, c_star):
        kline = line("gaussian", sigma=1.0, offset=(offset,))
        rep = minimize_G(canon, kline)
        assert rep.c_star == pytest.approx(c_star, abs=1e-3)
        above = rep.c_star + 0.2 * abs(rep.c_star)
        assert char_multiplicity(canon, kline, above, report=rep) == 1
        assert char_multiplicity(canon, kline, rep.c_star, report=rep) == 2
        # at c* the decay rate is lambda* itself, for either sign of c*
        assert speed_to_abscissa(canon, kline, rep.c_star, report=rep) == rep.lambda_star

    def test_w_class_below_boundary(self, canon):
        kline = line("exppoly", p=1.0, q=4.0, mu=0.2)
        rep = minimize_G(canon, kline)
        assert rep.kernel_class == "W"
        assert rep.t_xi_at_lambda0 > canon.mortality  # m < t(lam0): simple root
        assert char_multiplicity(canon, kline, rep.c_star, report=rep) == 1

    def test_w_class_boundary_with_second_moment(self):
        kline = line("exppoly", p=1.0, q=4.0, mu=0.2)
        params0 = ModelParams(2.0, 1.0, 1.0)
        t0 = t_xi(params0, kline, kline.lambda0)
        params = ModelParams(2.0, 1.0, t0)  # tie m to the boundary exactly
        rep = minimize_G(params, kline)
        assert rep.kernel_class == "W"
        assert char_multiplicity(params, kline, rep.c_star, report=rep) == 2

    def test_unsupported_critical_case(self):
        # q in (2, 3]: boundary reachable but second moment diverges
        kline = line("exppoly", p=1.0, q=2.5, mu=0.1)
        params0 = ModelParams(2.0, 1.0, 1.0)
        t0 = t_xi(params0, kline, kline.lambda0)
        assert 0.0 < t0 < 2.0
        params = ModelParams(2.0, 1.0, t0)
        rep = minimize_G(params, kline)
        with pytest.raises(UnsupportedCriticalCase):
            char_multiplicity(params, kline, rep.c_star, report=rep)

    def test_characteristic_sign_pattern(self, canon, gauss_line):
        rep = minimize_G(canon, gauss_line)
        c = 1.4 * rep.c_star
        lam0 = speed_to_abscissa(canon, gauss_line, c, report=rep)

        def char(lam):
            return lam * (dispersion_G(canon, gauss_line, lam) - c)

        inner = np.linspace(1e-4, lam0 * 0.999, 400)
        assert all(char(la) > 0 for la in inner)
        assert char(lam0) == pytest.approx(0.0, abs=1e-9)
        # simple root: finite-difference derivative is nonzero at lam0
        eps = 1e-6
        slope = (char(lam0 + eps) - char(lam0 - eps)) / (2 * eps)
        assert slope < -1e-3
        # at the minimal speed the derivative vanishes: double root
        lam_star = rep.lambda_star
        slope_min = (dispersion_G(canon, gauss_line, lam_star + eps)
                     - dispersion_G(canon, gauss_line, lam_star - eps)) / (2 * eps)
        assert abs(slope_min) < 1e-5


class TestMoments:
    def test_symmetric_means_vanish(self, gauss1):
        assert directional_mean(gauss1, [1.0]) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(global_mean(gauss1), [0.0], atol=1e-12)

    def test_offset_gaussian_mean(self):
        kernel = Kernel("gaussian", 2, sigma=1.0, offset=(0.3, -0.4))
        np.testing.assert_allclose(global_mean(kernel), [0.3, -0.4], atol=1e-12)

    def test_power_tail_mean(self):
        heavy = Kernel("power_tail", 1, q=4.0)
        assert directional_mean(heavy, [1.0]) == 0.0
        # the absolute first moment is finite: 2 alpha int s/(1+s^4) = alpha pi / 2
        alpha = math.sqrt(2.0) / math.pi
        oracle, _ = integrate.quad(lambda s: 2 * alpha * s / (1 + s**4), 0, np.inf)
        assert oracle == pytest.approx(alpha * math.pi / 2.0, rel=1e-10)
        with pytest.raises(ValueError):
            directional_mean(Kernel("power_tail", 1, q=1.5), [1.0])


class TestFrontSet:
    def test_one_dimensional_interval(self, canon, gauss1):
        fs = front_set(canon, gauss1)
        lo, hi = fs.interval()
        rep = minimize_G(canon, reduce_to_direction(gauss1, [1.0]))
        assert hi == pytest.approx(rep.c_star, rel=1e-10)
        assert lo == pytest.approx(-rep.c_star, rel=1e-10)

    def test_isotropic_disk(self, canon):
        kernel = Kernel("gaussian", 2, sigma=1.0)
        fs = front_set(canon, kernel, n_directions=16)
        assert fs.speeds.max() - fs.speeds.min() <= 1e-8
        assert fs.contains([[0.0, 0.0]])[0]
        outer = fs.outer_vertices()
        assert np.all(np.isfinite(outer))
        inner = fs.inner_vertices()
        assert np.all(np.linalg.norm(inner, axis=1) <= np.linalg.norm(outer, axis=1) + 1e-9)

    @pytest.fixture
    def solves(self, monkeypatch):
        reports = []

        def counted(params, k):
            reports.append(minimize_G(params, k))
            return reports[-1]

        monkeypatch.setattr(dispersion, "minimize_G", counted)
        return reports

    def test_isotropic_kernel_solved_once(self, canon, solves):
        kernel = Kernel("compact_uniform", 2, radius=1.0)
        fs = front_set(canon, kernel, n_directions=16)
        assert len(solves) == 1
        per_direction = [minimize_G(canon, reduce_to_direction(kernel, xi))
                         for xi in fs.directions]
        assert np.array_equal(fs.speeds, [rep.c_star for rep in per_direction])
        assert np.array_equal(fs.lambda_stars, [rep.lambda_star for rep in per_direction])

    def test_offset_kernel_solved_per_direction(self, canon, solves):
        kernel = Kernel("gaussian", 2, sigma=1.0, offset=(0.4, 0.1))
        fs = front_set(canon, kernel, n_directions=16)
        assert len(solves) == 16
        assert len(set(fs.speeds.tolist())) == 16

    def test_asymmetric_speeds_sum_positive(self, canon):
        kernel = Kernel("gaussian", 1, sigma=1.0, offset=(0.4,))
        fs = front_set(canon, kernel)
        lo, hi = fs.interval()
        assert hi + lo > 0  # c*(+1) + c*(-1) > 0 despite the drift
        assert fs.contains([[canon.kappa_plus * 0.4]])[0]

    def test_unbounded_front_signalled(self, canon):
        with pytest.raises(MollisonFailure):
            front_set(canon, Kernel("power_tail", 1, q=4.0))


class TestVClassInvariants:
    @pytest.mark.parametrize("spec_kw", [
        dict(family="gaussian", sigma=1.0),
        dict(family="laplace", mu=1.0),
        dict(family="exppoly", p=1.0, q=3.0, mu=1.0),
    ], ids=lambda kw: kw["family"])
    def test_first_order_condition_and_t_at_minimizer(self, canon, spec_kw):
        kline = reduce_to_direction(Kernel(dimension=1, **spec_kw), [1.0])
        rep = minimize_G(canon, kline)
        assert rep.kernel_class == "V"
        lam = rep.lambda_star
        eps = 1e-6 * lam
        g = lambda la: dispersion_G(canon, kline, la)
        first = (g(lam + eps) - g(lam - eps)) / (2 * eps)
        second = (g(lam + eps) - 2 * g(lam) + g(lam - eps)) / eps**2
        assert abs(first) <= 1e-6 * abs(second) * lam + 1e-9
        assert t_xi(canon, kline, lam) == pytest.approx(canon.mortality, abs=1e-6)
