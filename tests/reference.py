"""Reference helpers that the tests use as oracles and rmlab does not ship.

Box distances check the gap claims of the tree and the sparse family;
the grid-ring tiling and the polar annulus integral check the power
split's ring bounds; pointwise evaluation checks the cube norms by Monte
Carlo.  Each helper is checked on its own in test_geometry or
test_funcrep.
"""

import math
from itertools import product

from rmlab.funcrep import RadialPower, StepFunction, positive_orthant_sphere_measure
from rmlab.geometry import Cube


def center(cube):
    return tuple(c + 0.5 * cube.side for c in cube.lower)


def box_distance(a, b):
    """Euclidean distance between the closed boxes (0 iff closures meet)."""
    acc = 0.0
    for lo_a, lo_b in zip(a.lower, b.lower):
        gap = max(0.0, lo_a - (lo_b + b.side), lo_b - (lo_a + a.side))
        acc += gap * gap
    return math.sqrt(acc)


def ring_subdivision(i, N, n):
    """The N**n - 1 cubes of side N**i that tile (0, N**(i+1)]^n minus (0, N**i]^n:
    the grid cells of the outer block but the one at the origin corner."""
    side = float(N) ** i
    return tuple(Cube(tuple(k * side for k in ks), side) for ks in product(range(N), repeat=n) if any(ks))


def shell_integral_radial(s_q, r_in, r_out, n):
    """Integral of |x|**s_q over the orthant annulus r_in < |x| < r_out, in polar
    form: the orthant sphere measure times the integral of r**(s_q + n - 1)."""
    measure = positive_orthant_sphere_measure(n)
    e = s_q + n
    if e == 0.0:
        return measure * math.log(r_out / r_in)
    return measure * (r_out ** e - r_in ** e) / e


def evaluate(f, x):
    """Pointwise value of a step function or radial power; zero off the support."""
    if isinstance(f, StepFunction):
        return float(sum(h for cube, h in f.pieces if all(lo <= xi <= lo + cube.side for lo, xi in zip(cube.lower, x))))
    assert isinstance(f, RadialPower)
    if any(xi <= 0.0 for xi in x):
        return 0.0
    return float(math.dist(x, (0.0,) * f.dim) ** f.exponent)
