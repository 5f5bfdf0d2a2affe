import math

import numpy as np
import pytest

from rmlab.estimate import NormEstimate
from rmlab.funcrep import RadialPower, grid_cell_values
from rmlab.quadrature import power_integral_on_box
from rmlab.series import harmonic_number, partial_power_sum, power_series_sum, power_series_tail


def corner_square_polar(t):
    """Integral of |x|**t over (0, 1]^2 in polar form: 2/(t+2) * int_0^{pi/4} cos(phi)**-(t+2)."""
    quad = pytest.importorskip("scipy.integrate").quad
    angular, _ = quad(lambda phi: math.cos(phi) ** -(t + 2.0), 0.0, math.pi / 4.0, epsabs=0.0, epsrel=1e-13)
    return 2.0 / (t + 2.0) * angular


class TestPowerIntegral:
    def test_one_dim_closed_forms(self):
        assert power_integral_on_box(-0.5, (1.0,), 3.0) == pytest.approx(2.0, rel=1e-14)
        assert power_integral_on_box(-1.0, (1.0,), math.e - 1.0) == pytest.approx(1.0, rel=1e-12)
        assert power_integral_on_box(2.0, (0.0,), 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_one_dim_overflow_is_infinite(self):
        # x**-2999 overflows at both ends of [0.7, 0.71]: inf - inf, not nan
        with np.errstate(over="ignore"):
            assert power_integral_on_box(-3000.0, (0.7,), 0.01) == math.inf
            assert power_integral_on_box(3000.0, (1e3,), 1.0) == math.inf

    def test_orthant_clipping(self):
        # box extending into negative coordinates only counts the orthant part
        assert power_integral_on_box(0.0, (-1.0,), 2.0) == pytest.approx(1.0, rel=1e-14)
        assert power_integral_on_box(0.0, (-3.0, -3.0), 2.0) == 0.0

    def test_regular_boxes_against_nested_quadrature(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(71)
        for dim in (2, 3):
            for _ in range(2):
                t = float(rng.uniform(-1.5, 1.0))
                lo = rng.uniform(0.2, 1.0, dim)
                side = float(rng.uniform(0.3, 1.5))

                def integrand(*xs):
                    return sum(x * x for x in xs) ** (0.5 * t)

                ranges = [[float(lo[j]), float(lo[j]) + side] for j in range(dim)]
                ref, _ = scipy_integrate.nquad(integrand, ranges)
                got = power_integral_on_box(t, tuple(lo), side)
                assert got == pytest.approx(ref, rel=1e-7)

    def test_corner_singularity_2d(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")

        def integrand(y, x):
            return (x * x + y * y) ** -0.5

        ref, _ = scipy_integrate.nquad(integrand, [[0, 1], [0, 1]])
        got = power_integral_on_box(-1.0, (0.0, 0.0), 1.0)
        assert got == pytest.approx(ref, rel=1e-7)

    def test_unit_corner_closed_forms(self):
        assert power_integral_on_box(-1.0, (0.0, 0.0), 1.0) == pytest.approx(2.0 * math.asinh(1.0), rel=1e-12)
        for t in (-1.976, -1.8, 0.5):
            assert power_integral_on_box(t, (0.0, 0.0), 1.0) == pytest.approx(corner_square_polar(t), rel=1e-12)

    def test_non_cubic_corner_3d(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        t = -1.5
        widths = (0.5, 1.0, 0.75)
        ref, _ = scipy_integrate.nquad(
            lambda z, y, x: (x * x + y * y + z * z) ** (0.5 * t), [[0.0, w] for w in widths[::-1]]
        )
        assert power_integral_on_box(t, (0.0, 0.0, 0.0), widths) == pytest.approx(ref, rel=1e-10)

    def test_corner_scaling_law(self):
        # M(h * hi) = h**(t+n) * M(hi) for the corner box (0, hi]
        for t, hi in ((-1.9, (1.0, 0.6)), (-0.7, (0.3, 1.0)), (1.5, (1.0, 2.0, 0.5)), (-2.5, (1.0, 0.8, 0.9))):
            n = len(hi)
            base = power_integral_on_box(t, (0.0,) * n, hi)
            for h in (0.5, 0.37, 3.0):
                scaled = power_integral_on_box(t, (0.0,) * n, tuple(h * w for w in hi))
                assert scaled == pytest.approx(h ** (t + n) * base, rel=1e-12)

    def test_off_origin_box_at_any_exponent(self):
        # t + n <= 0 diverges only on the corner: a box away from the origin stays finite
        quad = pytest.importorskip("scipy.integrate").quad
        # t = -2 in 2-D: integral over [1, 2]^2 of 1/(x^2 + y^2) = int_1^2 (atan(2/x) - atan(1/x)) / x dx
        ref, _ = quad(lambda x: (math.atan(2.0 / x) - math.atan(1.0 / x)) / x, 1.0, 2.0, epsabs=0.0, epsrel=1e-13)
        assert power_integral_on_box(-2.0, (1.0, 1.0), 1.0) == pytest.approx(ref, rel=1e-12)
        # (t + n) ln 2 beyond the float range of exp
        t = -1100.0
        ref, _ = quad(lambda x: quad(lambda y: math.hypot(x, y) ** t, 0.7, 0.71, epsabs=0.0, epsrel=1e-12)[0],
                      0.7, 0.71, epsabs=0.0, epsrel=1e-12)
        assert power_integral_on_box(t, (0.7, 0.7), 0.01) == pytest.approx(ref, rel=1e-10)
        # at unit scale this box's nearest point is 1/2, and 2**1100 overflows: the
        # integrand must be taken relative to its peak
        ref, _ = quad(lambda x: quad(lambda y: math.hypot(x, y) ** t, 0.0, 0.01, epsabs=0.0, epsrel=1e-12)[0],
                      1.0, 1.01, epsabs=0.0, epsrel=1e-12)
        assert power_integral_on_box(t, (1.0, 0.0), 0.01) == pytest.approx(ref, rel=1e-10)

    def test_divergent_corner_raises(self):
        with pytest.raises(ValueError):
            power_integral_on_box(-2.0, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            power_integral_on_box(-1.0, (0.0,), 1.0)

    def test_near_origin_boxes(self):
        # references: mpmath quad at 30 digits; scipy dblquad is wrong this close to the corner
        assert power_integral_on_box(-1.5, (0.0, 1e-6), (1.0, 1.0 - 1e-6)) == pytest.approx(
            3.31834274961516565, rel=1e-12)
        assert power_integral_on_box(-1.5, (0.0, 1e-12), (1.0, 1.0 - 1e-12)) == pytest.approx(
            3.32357962061064130, rel=1e-12)
        # a strip of width 1e-200 along the axis holds about 5.244 * 1e-100 of the corner value
        got = power_integral_on_box(-1.5, (1e-200, 0.0), (1.0, 1.0))
        assert got == pytest.approx(corner_square_polar(-1.5), rel=1e-12)

    def test_extreme_inputs_end(self):
        # the midpoint of a subnormal coordinate cannot be resolved: rejected at the entry
        with pytest.raises(ValueError, match="subnormal"):
            power_integral_on_box(-1.5, (5e-324, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            power_integral_on_box(-1.5, (0.5, 0.5), (math.inf, 1.0))
        # kappa meets its floor at |t| = 2048, which grades into a bounded number of
        # boxes; the integrand near (0.3, 0.3) is 0.42**-2048, so the integral overflows
        assert power_integral_on_box(-2048.0, (0.3, 0.3), 0.01) == math.inf

    @pytest.mark.parametrize("t", [-2048.5, 2049.0, -20000.0, -1e9])
    def test_exponent_past_the_kappa_floor_raises(self, t):
        # past |t| = 2048 kappa stays at its floor and the e**2 variation bound
        # fails (30% off at t = -200000); one dimension keeps its closed form
        with pytest.raises(ValueError, match="2048"):
            power_integral_on_box(t, (0.7, 0.7), 0.01)
        assert power_integral_on_box(t, (1.0,), 1e-9) > 0.0


class TestBatchedCells:
    """grid_cell_values integrates all radial cells of a grid in one batch."""

    @pytest.mark.parametrize("origin", [(0.0, 0.0), (-1.0 / 3.0, 0.25), (0.0, 0.0, 0.0), (-0.25, -2.0 / 3.0, 0.5)])
    def test_matches_per_cube(self, origin):
        n = len(origin)
        cells = 4 if n == 2 else 3
        width = 0.25
        for s in (-0.9, 0.4):
            f = RadialPower(s, n)
            got = grid_cell_values(f, np.array([origin]), width, cells, 1.5)[0]
            for idx in np.ndindex(*got.shape):
                lower = tuple(o + width * i for o, i in zip(origin, idx))
                want = power_integral_on_box(1.5 * s, lower, width)
                assert got[idx] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_sup_from_cell_corners(self):
        got = grid_cell_values(RadialPower(-1.0, 2), np.array([(-0.5, 0.0)]), 0.5, 3, math.inf)[0]
        assert got[0, 0] == 0.0  # outside the orthant
        assert got[1, 0] == math.inf  # on the origin corner
        assert got[2, 1] == pytest.approx(1.0 / math.hypot(0.5, 0.5), rel=1e-15)
        got = grid_cell_values(RadialPower(2.0, 2), np.array([(0.0, 0.0)]), 0.5, 2, math.inf)[0]
        assert got[1, 1] == pytest.approx(2.0, rel=1e-15)


class TestSeries:
    def test_against_reference_zeta(self):
        zeta = pytest.importorskip("scipy.special").zeta
        for e in (-4.0 / 3.0, -1.5, -2.0, -3.0):
            assert power_series_sum(e) == pytest.approx(float(zeta(-e)), rel=1e-10)

    def test_tail_consistency(self):
        e = -1.5
        total = power_series_sum(e)
        head = partial_power_sum(e, 500)
        tail = power_series_tail(e, 500, rel_scale=total)
        assert head + tail == pytest.approx(total, rel=1e-10)

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            power_series_sum(-1.0)
        with pytest.raises(ValueError):
            power_series_tail(-0.5, 10)

    def test_harmonic_number(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(1000) == pytest.approx(7.485470860550343, rel=1e-14)


class TestNormEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormEstimate(-1.0, "exact")
        with pytest.raises(ValueError):
            NormEstimate(-math.inf, "exact")
        with pytest.raises(ValueError):
            NormEstimate(math.nan, "exact")
        with pytest.raises(ValueError):
            NormEstimate(1.0, "sideways-bound")
        est = NormEstimate(math.inf, "upper-bound", certificate="divergent-series")
        assert est.is_infinite

    def test_as_dict(self):
        est = NormEstimate(2.0, "lower-bound", certificate=None, trace=((1, 1.0), (2, 2.0)))
        doc = est.as_dict()
        assert doc["value"] == 2.0
        assert doc["trace"] == [[1.0, 1.0], [2.0, 2.0]]
