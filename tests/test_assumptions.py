import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import qmc

from nlkpp import Kernel, check_assumptions, competition_gap
from nlkpp import reduce_to_direction
from nlkpp.assumptions import _halton


@pytest.mark.parametrize("dimension", [1, 2])
def test_halton_matches_scipy_unscrambled(dimension):
    expected = qmc.Halton(d=dimension, scramble=False).random(10000)
    assert np.array_equal(_halton(dimension, 10000), expected)


def test_equal_kernels_satisfy_everything(canon, gauss1):
    report = check_assumptions(canon, gauss1, gauss1, sample_radius=8.0)
    assert report.A1_kappa_gt_m
    assert report.A2_kernel_domination
    assert report.A3_mollison == 1.0  # infinite abscissa: witness defaults to 1
    assert report.A4_gap_positive_near_origin is not None
    rho, delta = report.A4_gap_positive_near_origin
    assert rho > 0 and delta > 0
    assert report.radial_exp_moment is not None


def test_narrow_competition_kernel_breaks_domination(canon, gauss1):
    spike = Kernel("gaussian", 1, sigma=0.2)
    report = check_assumptions(canon, gauss1, spike, sample_radius=8.0)
    assert report.A1_kappa_gt_m
    assert not report.A2_kernel_domination
    # the violation sits near the origin where the spike dominates
    assert abs(report.A2_worst_point[0]) < 0.5
    # direct check at x = 0: (2 pi 0.04)^{-1/2} > (2 pi)^{-1/2}
    assert spike.eval(np.array([[0.0]]))[0] > gauss1.eval(np.array([[0.0]]))[0]


def test_heavy_tail_has_no_mollison_witness(canon, gauss1):
    heavy = Kernel("power_tail", 1, q=4.0)
    report = check_assumptions(canon, heavy, gauss1, sample_radius=8.0)
    assert report.A3_mollison is None
    assert report.radial_exp_moment is None


def test_gap_kernel_equal_kernel_algebra(canon, gauss1):
    theta = canon.theta
    gap = competition_gap(canon, gauss1, gauss1, q=theta)
    x = np.linspace(-5, 5, 101)[:, None]
    # J_theta = (kp - (kp - m)) a = m a for equal kernels
    np.testing.assert_allclose(gap(x), canon.mortality * gauss1.eval(x), rtol=1e-13)
    assert gap(np.array([[0.0]]))[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-10)


def test_gap_kernel_integrates_to_mortality(canon, gauss1):
    gap = competition_gap(canon, gauss1, gauss1, q=canon.theta)
    total, _ = integrate.quad(lambda x: gap(np.array([[x]]))[0], -60, 60, limit=400)
    assert total == pytest.approx(canon.mortality, abs=1e-8)


def test_gap_kernel_small_q_limit(canon, gauss1):
    gap = competition_gap(canon, gauss1, gauss1, q=1e-12)
    x = np.linspace(-3, 3, 31)[:, None]
    np.testing.assert_allclose(gap(x), canon.kappa_plus * gauss1.eval(x), rtol=1e-9)


def test_gap_kernel_rejects_bad_q(canon, gauss1):
    with pytest.raises(ValueError):
        competition_gap(canon, gauss1, gauss1, q=0.0)
    with pytest.raises(ValueError):
        competition_gap(canon, gauss1, gauss1, q=canon.theta * 1.5)


def test_domination_transfers_to_reductions(canon):
    # kp a+ >= (kp - m) a- pointwise carries over to the 1-D marginals
    a_plus = Kernel("gaussian", 2, sigma=1.0)
    a_minus = Kernel("gaussian", 2, sigma=1.0)
    xi = np.array([0.28, 0.96])
    line_p = reduce_to_direction(a_plus, xi)
    line_m = reduce_to_direction(a_minus, xi)
    s = np.linspace(-8, 8, 401)
    gap = canon.kappa_plus * line_p.eval(s) - (
        canon.kappa_plus - canon.mortality
    ) * line_m.eval(s)
    assert gap.min() >= -1e-14


def test_dimension_mismatch_rejected(canon, gauss1):
    two_d = Kernel("gaussian", 2, sigma=1.0)
    with pytest.raises(ValueError):
        check_assumptions(canon, gauss1, two_d, sample_radius=4.0)
