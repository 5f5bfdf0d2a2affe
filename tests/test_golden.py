"""Golden outputs of the dyadic DP, pinned to the last bit.

The other DP tests compare against oracles within a relative tolerance,
so a change that moves a value by a few ulps passes them.  These four
calls pin the exact value and trace reprs and a digest of the
certificate: a change of summation order, cell frame or tie rule fails
here and must move the pins on purpose.
"""

import hashlib
import math

import numpy as np
import pytest

from rmlab.constructions import build_tree, tree_function
from rmlab.funcrep import ParamSpace, RadialPower
from rmlab.geometry import Cube
from rmlab.norms import rm_norm_dyadic
from rmlab.verification import random_intermediate_params, random_step_function


def digest(family):
    """sha256 of the repr of the certificate's (lower, side) pairs, in order."""
    return hashlib.sha256(repr(tuple((c.lower, c.side) for c in family)).encode()).hexdigest()


def tree_line():
    """The 1-D depth-12 tree at DP depth 18 over the 3 default grids: a dense
    top of 2**10 cells per grid and a refined tail below it."""
    tree = build_tree(1, 12, ParamSpace(2.0, 1.0, -0.25))
    return rm_norm_dyadic(tree_function(tree), tree.domain, 18, ParamSpace(2.5, 1.5, -0.1))


def random_plane():
    """A random 2-D step function at depth 4 over the 9 default grids."""
    rng = np.random.default_rng(1)
    f = random_step_function(rng, 2)
    return rm_norm_dyadic(f, Cube((-4.0, -4.0), 8.0), 4, random_intermediate_params(rng))


def radial_plane():
    """A 2-D radial power at depth 3, every level dense."""
    params = ParamSpace(2.0, 1.0, -0.4)
    return rm_norm_dyadic(RadialPower.from_params(params, 2), Cube((0.0, 0.0), 1.0), 3, params)


def sup_line():
    """q = inf on a random 1-D step function; alpha > 0 splits pure cells to the horizon."""
    f = random_step_function(np.random.default_rng(0), 1)
    return rm_norm_dyadic(f, Cube((-4.0,), 8.0), 16, ParamSpace(2.0, math.inf, 0.1))


# call: (value repr, trace values, certificate size, certificate digest)
GOLDEN = {
    tree_line: (
        "163.41940044878112",
        [60.05675183504129, 60.05675183504129, 60.05675183504129, 60.05675183504129, 60.05675183504129,
         63.06611849904741, 67.36898966786536, 72.56488465879764, 74.724462252156, 79.78895282106703,
         88.99227998270761, 97.20909502741638, 101.07111361735019, 106.9722321351488, 118.37079110520683,
         131.1432192756525, 145.27954527618493, 157.94821976687865, 163.41940044878112],
        152,
        "1d065d03bcd4ad81be874f2ce097a9477dc508376c586dc2be84777de38dd4a4",
    ),
    random_plane: (
        "3.3796070177264794",
        [3.3615201129608514, 3.3615201129608514, 3.372362697710901, 3.3796069866504532, 3.3796070177264794],
        5,
        "033a4b22ae87fd53b2826ca41bf83aab2134f64402d3d3ee04de72b511a3033c",
    ),
    radial_plane: (
        "8.123452182259253",
        [8.03038479571095, 8.061526639783636, 8.092548644320708, 8.123452182259253],
        10,
        "fa7f20903eed43b95b26c4d98d6cdb75c264dd842e1561c410dbaa4da3b0284a",
    ),
    sup_line: (
        "10.960688699054487",
        [8.18672021114162, 8.774309467511108, 9.024512291108847, 9.024512291108847, 9.115294068313043,
         9.150856322588222, 9.171219129732965, 9.194554199011392, 9.221286280065199, 9.251898057622897,
         9.329006939967321, 9.423584377859688, 9.582672582018278, 9.869697678564814, 10.192976847201548,
         10.555551723810131, 10.960688699054487],
        12748,
        "eb49c479abbf4a581700e16cd6c3e4ec0311cca81184a38e9bb6b9036c2c3608",
    ),
}


@pytest.mark.parametrize("call", list(GOLDEN), ids=lambda call: call.__name__)
def test_dp_output_is_pinned(call):
    value, trace, size, cert = GOLDEN[call]
    est = call()
    assert repr(est.value) == value
    assert repr(est.trace) == repr(tuple((float(d), v) for d, v in enumerate(trace)))
    assert len(est.certificate) == size
    assert digest(est.certificate) == cert
