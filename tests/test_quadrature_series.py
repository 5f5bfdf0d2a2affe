import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rmlab
from rmlab.analysis import sparse_single_overlap_bound
from rmlab.estimate import NormEstimate
from rmlab.funcrep import ParamSpace, RadialPower, grid_cell_values
from rmlab.quadrature import power_integrals
from rmlab.series import _BLOCK, _power_sum, harmonic_number, partial_power_sum, power_series_sum, power_series_tail


def one_box(t, lower, side):
    """power_integrals on the one box at `lower` with side `side`, a scalar or one width per axis."""
    lo = np.array([lower], dtype=float)
    return float(power_integrals(t, lo, lo + np.broadcast_to(np.asarray(side, dtype=float), lo.shape))[0])


def corner_square_polar(t):
    """Integral of |x|**t over (0, 1]^2 in polar form: 2/(t+2) * int_0^{pi/4} cos(phi)**-(t+2)."""
    quad = pytest.importorskip("scipy.integrate").quad
    angular, _ = quad(lambda phi: math.cos(phi) ** -(t + 2.0), 0.0, math.pi / 4.0, epsabs=0.0, epsrel=1e-13)
    return 2.0 / (t + 2.0) * angular


class TestPowerIntegral:
    def test_one_dim_closed_forms(self):
        assert one_box(-0.5, (1.0,), 3.0) == pytest.approx(2.0, rel=1e-14)
        assert one_box(-1.0, (1.0,), math.e - 1.0) == pytest.approx(1.0, rel=1e-12)
        assert one_box(2.0, (0.0,), 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_one_dim_overflow_is_infinite(self):
        # x**-2999 overflows at both ends of [0.7, 0.71]: inf - inf, not nan
        with np.errstate(over="ignore"):
            assert one_box(-3000.0, (0.7,), 0.01) == math.inf
            assert one_box(3000.0, (1e3,), 1.0) == math.inf

    def test_orthant_clipping(self):
        # box extending into negative coordinates only counts the orthant part
        assert one_box(0.0, (-1.0,), 2.0) == pytest.approx(1.0, rel=1e-14)
        assert one_box(0.0, (-3.0, -3.0), 2.0) == 0.0

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
                got = one_box(t, tuple(lo), side)
                assert got == pytest.approx(ref, rel=1e-7)

    def test_corner_singularity_2d(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")

        def integrand(y, x):
            return (x * x + y * y) ** -0.5

        ref, _ = scipy_integrate.nquad(integrand, [[0, 1], [0, 1]])
        got = one_box(-1.0, (0.0, 0.0), 1.0)
        assert got == pytest.approx(ref, rel=1e-7)

    def test_unit_corner_closed_forms(self):
        assert one_box(-1.0, (0.0, 0.0), 1.0) == pytest.approx(2.0 * math.asinh(1.0), rel=1e-12)
        for t in (-1.976, -1.8, 0.5):
            assert one_box(t, (0.0, 0.0), 1.0) == pytest.approx(corner_square_polar(t), rel=1e-12)

    def test_non_cubic_corner_3d(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        t = -1.5
        widths = (0.5, 1.0, 0.75)
        ref, _ = scipy_integrate.nquad(
            lambda z, y, x: (x * x + y * y + z * z) ** (0.5 * t), [[0.0, w] for w in widths[::-1]]
        )
        assert one_box(t, (0.0, 0.0, 0.0), widths) == pytest.approx(ref, rel=1e-10)

    def test_corner_scaling_law(self):
        # M(h * hi) = h**(t+n) * M(hi) for the corner box (0, hi]
        for t, hi in ((-1.9, (1.0, 0.6)), (-0.7, (0.3, 1.0)), (1.5, (1.0, 2.0, 0.5)), (-2.5, (1.0, 0.8, 0.9))):
            n = len(hi)
            base = one_box(t, (0.0,) * n, hi)
            for h in (0.5, 0.37, 3.0):
                scaled = one_box(t, (0.0,) * n, tuple(h * w for w in hi))
                assert scaled == pytest.approx(h ** (t + n) * base, rel=1e-12)

    def test_off_origin_box_at_any_exponent(self):
        # t + n <= 0 diverges only on the corner: a box away from the origin stays finite
        quad = pytest.importorskip("scipy.integrate").quad
        # t = -2 in 2-D: integral over [1, 2]^2 of 1/(x^2 + y^2) = int_1^2 (atan(2/x) - atan(1/x)) / x dx
        ref, _ = quad(lambda x: (math.atan(2.0 / x) - math.atan(1.0 / x)) / x, 1.0, 2.0, epsabs=0.0, epsrel=1e-13)
        assert one_box(-2.0, (1.0, 1.0), 1.0) == pytest.approx(ref, rel=1e-12)
        # (t + n) ln 2 beyond the float range of exp
        t = -1100.0
        ref, _ = quad(lambda x: quad(lambda y: math.hypot(x, y) ** t, 0.7, 0.71, epsabs=0.0, epsrel=1e-12)[0],
                      0.7, 0.71, epsabs=0.0, epsrel=1e-12)
        assert one_box(t, (0.7, 0.7), 0.01) == pytest.approx(ref, rel=1e-10)
        # at unit scale this box's nearest point is 1/2, and 2**1100 overflows: the
        # integrand must be taken relative to its peak
        ref, _ = quad(lambda x: quad(lambda y: math.hypot(x, y) ** t, 0.0, 0.01, epsabs=0.0, epsrel=1e-12)[0],
                      1.0, 1.01, epsabs=0.0, epsrel=1e-12)
        assert one_box(t, (1.0, 0.0), 0.01) == pytest.approx(ref, rel=1e-10)

    def test_divergent_corner_raises(self):
        with pytest.raises(ValueError):
            one_box(-2.0, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            one_box(-1.0, (0.0,), 1.0)

    def test_near_origin_boxes(self):
        # references: mpmath quad at 30 digits; scipy dblquad is wrong this close to the corner
        assert one_box(-1.5, (0.0, 1e-6), (1.0, 1.0 - 1e-6)) == pytest.approx(
            3.31834274961516565, rel=1e-12)
        assert one_box(-1.5, (0.0, 1e-12), (1.0, 1.0 - 1e-12)) == pytest.approx(
            3.32357962061064130, rel=1e-12)
        # a strip of width 1e-200 along the axis holds about 5.244 * 1e-100 of the corner value
        got = one_box(-1.5, (1e-200, 0.0), (1.0, 1.0))
        assert got == pytest.approx(corner_square_polar(-1.5), rel=1e-12)

    def test_extreme_inputs_end(self):
        # the midpoint of a subnormal coordinate cannot be resolved: rejected at the entry
        with pytest.raises(ValueError, match="subnormal"):
            one_box(-1.5, (5e-324, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            one_box(-1.5, (0.5, 0.5), (math.inf, 1.0))
        # kappa meets its floor at |t| = 2048, which grades into a bounded number of
        # boxes; the integrand near (0.3, 0.3) is 0.42**-2048, so the integral overflows
        assert one_box(-2048.0, (0.3, 0.3), 0.01) == math.inf

    @pytest.mark.parametrize("t", [-2048.5, 2049.0, -20000.0, -1e9])
    def test_exponent_past_the_kappa_floor_raises(self, t):
        # past |t| = 2048 kappa stays at its floor and the e**2 variation bound
        # fails (30% off at t = -200000); one dimension keeps its closed form
        with pytest.raises(ValueError, match="2048"):
            one_box(t, (0.7, 0.7), 0.01)
        assert one_box(t, (1.0,), 1e-9) > 0.0


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
                want = one_box(1.5 * s, lower, width)
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


def one_shot(exponent, lo, n):
    """The sum as one np.sum over the whole range, which _power_sum must reproduce bit for bit."""
    return float(np.sum(np.arange(lo, lo + n, dtype=float) ** exponent))


class TestBlockwisePowerSum:
    # n under 8 and up to 128 take numpy's two leaf loops, 129 its first split;
    # around _BLOCK the replayed split takes over from np.sum
    counts = st.one_of(
        st.integers(1, 7),
        st.integers(8, 128),
        st.sampled_from((129, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 8)),
        st.integers(129, 4 * _BLOCK),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        exponent=st.one_of(st.sampled_from((-1.0, -1.5, -2.3, 0.5)), st.floats(-3.0, 1.0)),
        n=counts,
        tail=st.booleans(),
    )
    @example(exponent=-1.5, n=2 * _BLOCK + 8, tail=True)
    @example(exponent=-1.0, n=_BLOCK + 1, tail=False)
    def test_matches_one_np_sum(self, exponent, n, tail):
        # power_series_tail sums j = m+1 .. 2m, so lo = n + 1 is the tail's range
        lo = n + 1 if tail else 1
        assert _power_sum(exponent, lo, n) == one_shot(exponent, lo, n)

    @pytest.mark.parametrize("n", [0, 8, 40_000, 65_536, 100_001, 10 ** 6, 3 * 10 ** 6 + 7])
    def test_matches_one_np_sum_at_large_counts(self, n):
        for exponent in (-1.0, -1.05, -1.2, -1.5, -1.7, -2.3, 0.5):
            for lo in (1, n + 1):
                assert _power_sum(exponent, lo, n) == one_shot(exponent, lo, n)

    def test_public_sums_are_the_one_shot_sums(self):
        assert partial_power_sum(-1.5, 10 ** 6) == one_shot(-1.5, 1, 10 ** 6)
        assert harmonic_number(100_001) == one_shot(-1.0, 1, 100_001)

    def test_memory_does_not_grow_with_the_count(self):
        tracemalloc.start()
        try:
            partial_power_sum(-1.5, 2 * 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one shot: about 32 MB


class TestSeriesInputs:
    def test_non_finite_inputs_are_refused(self):
        # an unchecked NaN or -inf keeps power_series_tail doubling its range until memory
        # runs out, so the calls run in a child whose address space is capped at 1 GB
        code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from rmlab.series import harmonic_number, partial_power_sum, power_series_sum, power_series_tail
nan, inf = float("nan"), float("inf")
calls = [
    lambda: power_series_sum(nan), lambda: power_series_sum(-inf),
    lambda: power_series_tail(nan, 4), lambda: power_series_tail(-inf, 4),
    lambda: power_series_tail(-2.0, 4, rel_scale=nan), lambda: power_series_tail(-2.0, 4, rel_scale=inf),
    lambda: partial_power_sum(nan, 4), lambda: partial_power_sum(-inf, 4), lambda: partial_power_sum(inf, 4),
]
for call in calls:
    try:
        call()
        print("returned")
    except Exception as exc:
        print(type(exc).__name__)
"""
        src = str(Path(rmlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ValueError"] * 9

    @pytest.mark.parametrize("rel_scale", [0.0, -1.0])
    def test_rel_scale_must_be_positive(self, rel_scale):
        with pytest.raises(ValueError, match="rel_scale"):
            power_series_tail(-2.0, 4, rel_scale=rel_scale)

    @pytest.mark.parametrize("start", [0, -3])
    def test_tail_start_below_one_is_refused(self, start):
        # the sum over j > 0 is zeta(2), not the zeta(2) - 1 of a start clamped to 1
        with pytest.raises(ValueError, match="start must be >= 1"):
            power_series_tail(-2.0, start)

    def test_tail_start_must_be_an_integer(self):
        for start in (2.7, 2.0, True, "3"):
            with pytest.raises(ValueError, match="start must be an integer"):
                power_series_tail(-2.0, start)
        assert power_series_tail(-2.0, np.int64(64)) == power_series_tail(-2.0, 64)

    def test_count_must_be_an_integer(self):
        params = ParamSpace(2.0, 1.0, -0.25)
        for count in (2.5, 3.0, True, False, "3"):
            calls = (
                lambda: partial_power_sum(-1.5, count),
                lambda: harmonic_number(count),
                lambda: sparse_single_overlap_bound(count, params),
            )
            for call in calls:
                with pytest.raises(ValueError, match="count must be an integer"):
                    call()
        assert partial_power_sum(-1.5, np.int64(3)) == partial_power_sum(-1.5, 3)


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
        assert math.isinf(est.value)

    def test_as_dict(self):
        est = NormEstimate(2.0, "lower-bound", certificate=None, trace=((1, 1.0), (2, 2.0)))
        doc = est.as_dict()
        assert doc["value"] == 2.0
        assert doc["trace"] == [[1.0, 1.0], [2.0, 2.0]]
