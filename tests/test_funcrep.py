import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmlab.estimate import EXACT
from rmlab.funcrep import (
    ParamSpace,
    RadialPower,
    StepFunction,
    distribution_measure,
    evaluate,
    lebesgue_norm,
    lq_norm_on_cube,
    positive_orthant_sphere_measure,
    shell_integral_radial,
    weak_norm,
)
from rmlab.geometry import Cube, Domain
from rmlab.constructions import sparse_function


def two_step():
    return StepFunction(((Cube((0.0,), 0.5), 2.0), (Cube((0.5,), 0.5), 1.0)))


class TestParamSpace:
    def test_theta_examples(self):
        assert ParamSpace(2.0, 1.0, 0.0).theta == 2.0
        assert ParamSpace(2.0, 1.0, -0.25).theta == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_theta_endpoint_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = float(rng.uniform(1.1, 5.0))
            q = float(rng.uniform(1.0, p))
            split = 1.0 / p - 1.0 / q
            assert ParamSpace(p, q, split).theta == pytest.approx(q, rel=1e-12)

    def test_theta_degenerate(self):
        with pytest.raises(ValueError):
            ParamSpace(2.0, 1.0, 0.5).theta

    def test_theta_between_q_and_p_in_regime(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = float(rng.uniform(1.1, 5.0))
            q = float(1.0 + rng.uniform(0.0, 0.95) * (p - 1.0))
            alpha = (1.0 / p - 1.0 / q) * float(rng.uniform(0.02, 0.98))
            ps = ParamSpace(p, q, alpha)
            assert ps.is_intermediate_regime()
            assert q < ps.theta < p

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            ParamSpace(2.0, 1.0, 0.1).require_intermediate_regime()
        with pytest.raises(ValueError):
            ParamSpace(0.5, 1.0, 0.0)


class TestEvaluate:
    def test_examples(self):
        f = StepFunction(((Cube((0.0,), 1.0), 2.0),))
        assert evaluate(f, (0.5,)) == 2.0
        assert evaluate(f, (1.5,)) == 0.0
        r = RadialPower(-1.0, 1)
        assert evaluate(r, (2.0,)) == 0.5
        assert evaluate(r, (-1.0,)) == 0.0


class TestLqNormOnCube:
    def test_indicator(self):
        f = StepFunction(((Cube((0.0,), 1.0), 1.0),))
        assert lq_norm_on_cube(f, Cube((0.0,), 1.0), 2.0) == 1.0

    def test_two_piece_exact(self):
        val = lq_norm_on_cube(two_step(), Cube((0.0,), 1.0), 2.0)
        assert val == pytest.approx(math.sqrt(2.5), rel=1e-14)

    def test_radial_closed_form(self):
        # integral of x**(-1/2) over [1, 4] equals 2
        r = RadialPower(-0.5, 1)
        assert lq_norm_on_cube(r, Cube((1.0,), 3.0), 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_sup_norm(self):
        assert lq_norm_on_cube(two_step(), Cube((0.0,), 1.0), math.inf) == 2.0
        assert lq_norm_on_cube(two_step(), Cube((0.6,), 0.2), math.inf) == 1.0
        r = RadialPower(-1.0, 2)
        assert lq_norm_on_cube(r, Cube((3.0, 4.0), 1.0), math.inf) == pytest.approx(0.2, rel=1e-12)
        assert lq_norm_on_cube(r, Cube((0.0, 0.0), 1.0), math.inf) == math.inf

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pieces = []
            xs = np.sort(rng.uniform(-2, 2, 5))
            for i in range(4):
                w = xs[i + 1] - xs[i]
                if w > 1e-3:
                    pieces.append((Cube((float(xs[i]),), float(w)), float(rng.uniform(0, 3))))
            if not pieces:
                continue
            f = StepFunction(tuple(pieces))
            q = float(rng.uniform(1.0, 4.0))
            inner = Cube((-1.0,), 1.5)
            outer = Cube((-2.5,), 5.0)
            assert lq_norm_on_cube(f, inner, q) <= lq_norm_on_cube(f, outer, q) + 1e-12

    def test_monte_carlo_sanity(self):
        rng = np.random.default_rng(11)
        f = two_step()
        q = 3.0
        cube = Cube((0.2,), 0.6)
        pts = rng.uniform(0.2, 0.8, 200_000)
        mc = np.mean([evaluate(f, (float(x),)) ** q for x in pts[:20_000]]) * 0.6
        exact = lq_norm_on_cube(f, cube, q) ** q
        assert exact == pytest.approx(mc, rel=2e-2)


class TestLebesgueNorm:
    def test_examples(self):
        f = StepFunction(((Cube((0.0,), 1.0), 1.0),))
        assert lebesgue_norm(f, Domain.whole_space(1), 3.0).value == 1.0
        # truncated sparse construction at L = 2: critical-power mass is 1.5
        sf = sparse_function(2)
        theta = ParamSpace(2.0, 1.0, -0.25).theta
        est = lebesgue_norm(sf, Domain.whole_space(1), theta)
        assert est.kind == EXACT
        assert est.value ** theta == pytest.approx(1.5, rel=1e-12)
        empty = StepFunction(())
        assert lebesgue_norm(empty, Domain.whole_space(1), 2.0).value == 0.0

    def test_sup_norm_and_cube_domain(self):
        f = two_step()
        assert lebesgue_norm(f, Domain.whole_space(1), math.inf).value == 2.0
        dom = Domain.of_cube(Cube((0.5,), 0.5))
        assert lebesgue_norm(f, dom, math.inf).value == 1.0
        assert lebesgue_norm(f, dom, 1.0).value == pytest.approx(0.5, rel=1e-14)


class TestDistributionAndWeakNorm:
    def test_distribution_examples(self):
        f = StepFunction(((Cube((0.0,), 1.0), 1.0),))
        assert distribution_measure(f, 0.5) == 1.0
        assert distribution_measure(f, 1.0) == 0.0
        sf = sparse_function(3)
        assert distribution_measure(sf, 0.5) == pytest.approx(1 + 0.5 + 1 / 3, rel=1e-14)

    def test_distribution_monotone_right_continuous(self):
        rng = np.random.default_rng(13)
        f = StepFunction(
            tuple(
                (Cube((float(3 * i),), 1.0), float(rng.uniform(0, 3)))
                for i in range(6)
            )
        )
        levels = np.linspace(0.0, 3.5, 200)
        vals = [distribution_measure(f, float(t)) for t in levels]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        heights = {h for _, h in f.pieces}
        for t in np.linspace(0.01, 3.4, 57):
            if min(abs(t - h) for h in heights) > 1e-3:
                assert distribution_measure(f, float(t)) == distribution_measure(f, float(t) + 1e-9)

    def test_weak_norm_examples(self):
        f = StepFunction(((Cube((0.0,), 1.0), 1.0),))
        assert weak_norm(f, 2.0, -0.25) == 1.0
        f2 = StepFunction(((Cube((0.0,), 1.0), 2.0),))
        assert weak_norm(f2, 2.0, -0.25) == 2.0

    def test_weak_norm_unbounded_along_truncations(self):
        prev = 0.0
        for L in (10, 100, 1000):
            w = weak_norm(sparse_function(L), 2.0, -0.25)
            H = float(np.sum(1.0 / np.arange(1, L + 1)))
            assert w == pytest.approx(H ** 0.75, rel=1e-12)
            assert w > prev
            prev = w

    @given(st.integers(1, 30), st.integers(0, 10_000))
    @example(count=24, seed=458)  # theta = 538.7: h ** theta overflows a float
    @settings(max_examples=60, deadline=None)
    def test_chebyshev_weak_below_lebesgue(self, count, seed):
        rng = np.random.default_rng(seed)
        pieces = tuple(
            (Cube((float(3 * i),), float(rng.uniform(0.1, 1.0))), float(rng.uniform(0.0, 4.0)))
            for i in range(count)
        )
        f = StepFunction(pieces)
        p = float(rng.uniform(1.1, 4.0))
        # keep theta = p/(1-p*alpha) inside [1, inf): alpha in [1/p - 1, 1/p)
        alpha = float(rng.uniform(1.0 / p - 1.0, 1.0 / p - 1e-3))
        theta = p / (1.0 - p * alpha)
        lhs = weak_norm(f, p, alpha)
        rhs = lebesgue_norm(f, Domain.whole_space(1), theta).value
        assert lhs <= rhs * (1 + 1e-12)

    def test_chebyshev_bulk(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            count = int(rng.integers(1, 12))
            pieces = tuple(
                (Cube((float(3 * i),), float(rng.uniform(0.1, 1.0))), float(rng.uniform(0.0, 4.0)))
                for i in range(count)
            )
            f = StepFunction(pieces)
            p = float(rng.uniform(1.1, 4.0))
            alpha = float(rng.uniform(1.0 / p - 1.0, 1.0 / p - 1e-3))
            theta = p / (1.0 - p * alpha)
            assert weak_norm(f, p, alpha) <= lebesgue_norm(
                f, Domain.whole_space(1), theta
            ).value * (1 + 1e-12)


class TestShellIntegralRadial:
    def test_examples(self):
        assert shell_integral_radial(0.0, 1.0, 2.0, 1) == pytest.approx(1.0, rel=1e-14)
        assert shell_integral_radial(0.0, 1.0, 2.0, 2) == pytest.approx(3 * math.pi / 4, rel=1e-14)

    def test_orthant_sphere_measures(self):
        assert positive_orthant_sphere_measure(1) == pytest.approx(1.0, rel=1e-14)
        assert positive_orthant_sphere_measure(2) == pytest.approx(math.pi / 2, rel=1e-14)
        assert positive_orthant_sphere_measure(3) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_log_form(self):
        val = shell_integral_radial(-2.0, 1.0, math.e, 2)
        assert val == pytest.approx(math.pi / 2, rel=1e-12)

    def test_against_nested_quadrature(self):
        # Cartesian iterated integral over the exact quarter-annulus region,
        # independent of the polar factorization used by the implementation
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(17)
        for _ in range(4):
            s_q = float(rng.uniform(-1.4, 0.5))
            r_in = float(rng.uniform(0.3, 1.0))
            r_out = float(rng.uniform(r_in + 0.3, 3.0))

            def integrand(y, x):
                return (x * x + y * y) ** (0.5 * s_q)

            def y_range(x):
                lo = math.sqrt(max(r_in ** 2 - x * x, 0.0))
                hi = math.sqrt(max(r_out ** 2 - x * x, 0.0))
                return [lo, hi]

            ref, _ = scipy_integrate.nquad(integrand, [y_range, [0.0, r_out]])
            assert shell_integral_radial(s_q, r_in, r_out, 2) == pytest.approx(ref, rel=1e-6)


class TestJsonRoundTrip:
    def test_bit_exact(self):
        awkward = [0.1 + 0.2, 1e-300, 2.0 ** -84, math.pi, 1.0 / 3.0]
        # the second coordinate keeps the pieces' interiors disjoint
        pieces = tuple(
            (Cube((v, 4.0 * i), abs(v) + 0.5), abs(v)) for i, v in enumerate(awkward)
        )
        f = StepFunction(pieces)
        g = StepFunction.from_json(f.to_json())
        for (c1, h1), (c2, h2) in zip(f.pieces, g.pieces):
            assert struct.pack("d", h1) == struct.pack("d", h2)
            assert struct.pack("d", c1.side) == struct.pack("d", c2.side)
            for a, b in zip(c1.lower, c2.lower):
                assert struct.pack("d", a) == struct.pack("d", b)

    def test_overlapping_pieces_rejected(self):
        piece = {"lower": [0.0], "side": 1.0, "height": 1.0}
        with pytest.raises(ValueError, match="overlapping"):
            StepFunction.from_json_dict({"dim": 1, "pieces": [piece, piece]})

    def test_schema(self):
        f = two_step()
        doc = json.loads(f.to_json())
        assert set(doc) == {"dim", "pieces"}
        assert set(doc["pieces"][0]) == {"lower", "side", "height"}
