"""scipy as the oracle for the truncated-normal initial IRI in `synth`.

`synth` computes the truncated-normal moments in closed form, solves for
the pre-truncation (loc, scale) by Newton's method and draws through
`statistics.NormalDist`. These tests hold each piece to what
`scipy.stats.truncnorm` and `scipy.optimize.fsolve` give.
"""

import math
import warnings

import numpy as np
import pytest

from floodpave import synth

scipy_stats = pytest.importorskip("scipy.stats")
scipy_optimize = pytest.importorskip("scipy.optimize")
truncnorm = scipy_stats.truncnorm

FLOOR = synth._IRI_FLOOR

# Standardized floors on both sides of loc, through both branches of
# `_truncated_standard` (closed form up to 2, continued fraction above).
FLOORS = [-4.0, -1.5, -0.3, 0.0, 0.4, 1.2, 2.0, 2.5, 3.0]
SCALES = [5.0, 54.17, 120.0]

# (mean, SD) targets: the paper's 2010-2018 panel with drift 0, 2 (the
# default) and 4, and targets whose root lies at a > 0.
TARGETS = [(100.61, 54.17), (92.61, 53.92), (84.61, 53.18), (40.0, 10.0), (35.0, 8.0), (50.0, 20.0)]


def fsolve_params(target_mean, target_std):
    """The solve `synth` used before: scipy's moments under fsolve, from (mean, SD)."""

    def moment_gap(p):
        loc, scale = p[0], abs(p[1])
        a = (FLOOR - loc) / scale
        m, v = truncnorm.stats(a, np.inf, loc=loc, scale=scale, moments="mv")
        return [m - target_mean, math.sqrt(v) - target_std]

    loc, scale = scipy_optimize.fsolve(moment_gap, [target_mean, target_std])
    return float(loc), abs(float(scale))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("a", FLOORS)
def test_moments_match_truncnorm_stats(a, scale):
    loc = FLOOR - a * scale
    excess, sd, _ = synth._truncated_standard(a)
    mean, var = truncnorm.stats(a, np.inf, loc=loc, scale=scale, moments="mv")
    assert loc + scale * (a + excess) == pytest.approx(float(mean), rel=1e-12, abs=0)
    assert scale * sd == pytest.approx(math.sqrt(var), rel=1e-12, abs=0)


@pytest.mark.parametrize("a", FLOORS)
def test_ratio_derivative_matches_a_central_difference(a):
    h = 1e-5
    up, down = synth._truncated_standard(a + h), synth._truncated_standard(a - h)
    numeric = (up[0] / up[1] - down[0] / down[1]) / (2 * h)
    assert synth._truncated_standard(a)[2] == pytest.approx(numeric, rel=1e-7)


@pytest.mark.parametrize("target_mean, target_std", TARGETS)
def test_initial_params_match_fsolve_and_hit_the_target(target_mean, target_std):
    loc, scale = synth._initial_iri_params(target_mean, target_std)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fsolve warns when it stalls
        ref_loc, ref_scale = fsolve_params(target_mean, target_std)
    assert loc == pytest.approx(ref_loc, rel=1e-9, abs=1e-9)
    assert scale == pytest.approx(ref_scale, rel=1e-9)
    a = (FLOOR - loc) / scale
    mean, var = truncnorm.stats(a, np.inf, loc=loc, scale=scale, moments="mv")
    assert float(mean) == pytest.approx(target_mean, rel=1e-12, abs=0)
    assert math.sqrt(var) == pytest.approx(target_std, rel=1e-12, abs=0)


@pytest.mark.parametrize("target_mean, target_std", TARGETS)
def test_draws_and_stream_position_match_truncnorm_rvs(target_mean, target_std):
    loc, scale = synth._initial_iri_params(target_mean, target_std)
    a = (FLOOR - loc) / scale
    ours, theirs = np.random.default_rng(2024), np.random.default_rng(2024)
    got = synth._truncated_normal_draws(ours, loc, scale, 2000)
    ref = truncnorm.rvs(a, np.inf, loc=loc, scale=scale, size=2000, random_state=theirs)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    assert got.min() >= FLOOR
    assert ours.standard_normal() == theirs.standard_normal()
