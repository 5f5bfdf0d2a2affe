"""The four workloads: their operation lists and the checks on their outputs.

`ops(rm, rng)` builds a workload's inputs with the program's public API
and returns its operation list: the same count, make-up and order for a
given seed.  Each operation looks its function up on the `rm` package at
call time, so the traced run sees the wrapped version.  An operation's
function argument is copied anew before every call, outside the timed
region, so data the program caches on a function object is rebuilt in
every round rather than paid for once.  `check` gets the operations and
the output of each from the first round, and returns a list of problems;
it runs after the timed region.  `expected_failures` maps the label of an
operation that must fail in every round to the name of its exception.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    label: str
    run: Callable[..., object]          # the timed call
    inputs: dict = field(default_factory=dict)
    fresh: Callable[[], tuple] = tuple  # run's arguments, built before each call outside the timed region


def intermediate_params(rm, rng):
    """Seeded (p, q, alpha) with p in (1, inf), q in [1, p), alpha in (1/p - 1/q, 0)."""
    p = float(rng.uniform(1.5, 3.5))
    q = float(1.0 + rng.uniform(0.0, 0.9) * (p - 1.0))
    alpha = float((1.0 / p - 1.0 / q) * rng.uniform(0.1, 0.9))
    return rm.ParamSpace(p, q, alpha)


def estimate_fingerprint(est) -> tuple:
    cert = tuple((c.lower, c.side) for c in est.certificate)
    return est.value, est.trace, cert


# ---------------------------------------------------------------------------
# dyadic DP on step functions (dp-line, dp-plane)
# ---------------------------------------------------------------------------

def _dp_op(rm, label, f, root, depth, params, offsets=None) -> Op:
    return Op(
        label,
        lambda g: rm.rm_norm_dyadic(g, root, depth, params, offsets=offsets),
        {"f": f, "root": root, "depth": depth, "params": params, "offsets": offsets},
        # a new function object carries none of the arrays cached on `f`
        lambda: (dataclasses.replace(f),),
    )


def check_step_dp(rm, ops, outputs) -> list[str]:
    """Certificate geometry, re-score, trace, embedding and the reference DP."""
    problems = []
    for op, est in zip(ops, outputs):
        x = op.inputs
        f, root, depth, prm = x["f"], x["root"], x["depth"], x["params"]
        p, q, alpha = prm.p, prm.q, prm.alpha
        offsets = x["offsets"] if x["offsets"] is not None else rm.norms.DEFAULT_OFFSETS
        where = f"{op.label}:"
        traced = [v for _, v in est.trace]
        if len(traced) != depth + 1 or any(b < a for a, b in zip(traced, traced[1:])):
            problems.append(f"{where} trace is not nondecreasing over depths 0..{depth}")
        if traced and traced[-1] != est.value:
            problems.append(f"{where} value {est.value!r} differs from the last trace entry {traced[-1]!r}")
        lows, sides = checks.family_arrays(est.certificate)
        pair = checks.first_overlap(lows, sides)
        if pair is not None:
            problems.append(f"{where} certificate cubes {pair} overlap")
        if not checks.inside_some_grid(lows, sides, root, offsets):
            problems.append(f"{where} certificate leaves every shifted root")
        rescored = checks.rescore_step(f, est.certificate, p, q, alpha)
        if checks.relative_gap(est.value ** p, rescored) > checks.RESCORE_RTOL:
            problems.append(f"{where} value^p {est.value ** p!r} but certificate re-scores to {rescored!r}")
        bound = checks.lebesgue_step(f, prm.theta)
        if est.value > bound * (1.0 + 1e-12):
            problems.append(f"{where} value {est.value!r} exceeds the L^theta norm {bound!r}")
        ref = checks.reference_dp(f, root, depth, p, q, alpha, offsets)
        running = np.maximum.accumulate(ref).tolist()
        for d, (got, want) in enumerate(zip(traced, running)):
            if checks.relative_gap(got ** p, want) > checks.REFERENCE_RTOL:
                problems.append(f"{where} depth {d}: score {got ** p!r}, reference DP {want!r}")
                break
    return problems


class DpLine:
    """rm_norm_dyadic on 1-D step functions at depth 18 over the 3 default grids."""

    name = "dp-line"
    modules = ("rmlab",)
    expected_failures: dict[str, str] = {}
    depth = 18
    tree_depths = (10, 11, 12)
    sparse_roots = tuple(range(5, 12))       # root side 2**m
    random_pieces = (8, 16, 32, 64, 128, 256, 512, 1024)

    def ops(self, rm, rng) -> list[Op]:
        out = []
        for d in self.tree_depths:
            tree = rm.build_tree(1, d, intermediate_params(rm, rng))
            out.append(_dp_op(rm, f"tree-{d}", rm.tree_function(tree), tree.domain, self.depth, tree.params))
        sparse = rm.sparse_function(1000)
        for m in self.sparse_roots:
            root = rm.Cube((0.0,), float(2 ** m))
            out.append(_dp_op(rm, f"sparse-2^{m}", sparse, root, self.depth, intermediate_params(rm, rng)))
        unit = rm.Cube((0.0,), 1.0)
        for k in self.random_pieces:
            out.append(_dp_op(rm, f"random-{k}", random_step_1d(rm, rng, k), unit, self.depth,
                              intermediate_params(rm, rng)))
        return [out[i] for i in rng.permutation(len(out))]

    fingerprint = staticmethod(estimate_fingerprint)
    check = staticmethod(check_step_dp)


def random_step_1d(rm, rng, pieces: int):
    """`pieces` disjoint intervals in [0, 1]: consecutive pairs of sorted uniform points."""
    x = np.sort(rng.uniform(0.0, 1.0, 2 * pieces))
    heights = rng.uniform(0.05, 4.0, pieces)
    return rm.StepFunction(tuple(
        (rm.Cube((float(x[2 * i]),), float(x[2 * i + 1] - x[2 * i])), float(heights[i]))
        for i in range(pieces) if x[2 * i + 1] > x[2 * i]
    ))


class DpPlane:
    """rm_norm_dyadic on random 2-D step functions at depth 4 over the 9 default grids."""

    name = "dp-plane"
    modules = ("rmlab",)
    expected_failures: dict[str, str] = {}
    depth = 4
    piece_counts = (16, 32, 48, 64, 96, 128, 160, 200)
    span = 8.0
    slots = 16      # per axis; one piece per slot, so pieces never overlap

    def ops(self, rm, rng) -> list[Op]:
        root = rm.Cube((-0.5 * self.span,) * 2, self.span)
        out = []
        for k in self.piece_counts:
            f = self.random_step_2d(rm, rng, k)
            out.append(_dp_op(rm, f"random-{k}", f, root, self.depth, intermediate_params(rm, rng)))
        return [out[i] for i in rng.permutation(len(out))]

    def random_step_2d(self, rm, rng, pieces: int):
        w = self.span / self.slots
        chosen = rng.choice(self.slots ** 2, size=pieces, replace=False)
        out = []
        for c in chosen:
            ix, iy = divmod(int(c), self.slots)
            side = w * float(rng.uniform(0.2, 0.95))
            lo = tuple(-0.5 * self.span + i * w + float(rng.uniform(0.0, w - side)) for i in (ix, iy))
            out.append((rm.Cube(lo, side), float(rng.uniform(0.05, 4.0))))
        return rm.StepFunction(tuple(out))

    fingerprint = staticmethod(estimate_fingerprint)
    check = staticmethod(check_step_dp)


# ---------------------------------------------------------------------------
# dyadic DP on radial powers (dp-radial)
# ---------------------------------------------------------------------------

class DpRadial:
    """rm_norm_dyadic on 2-D RadialPower.from_params at depths 2 and 3.

    Of the 9 default grids, the one at offset 0 puts a cell on the origin
    corner, which goes through corner peeling; the shifted grids' cells do
    not.  The cases are fixed and the seed sets only their order: the cost
    of a shifted grid grows steeply as its cells near the origin, and that
    of corner peeling as s_q + n falls, so all three triples share
    s_q + n = 0.2 and the depth-2 calls, which hold the median, cost about
    the same.  The near-critical triple (2, 1.9, -0.02), with s_q + n =
    0.024, fails with QuadratureBudgetError at this commit; it is kept, on
    fixed inputs, and counted as failed.
    """

    name = "dp-radial"
    modules = ("rmlab",)
    cases = (((2.0, 1.5, -0.1), 2), ((4.0, 2.0, -0.2), 2), ((2.0, 1.0, -0.4), 2), ((2.0, 1.0, -0.4), 3))
    near_critical = (2.0, 1.9, -0.02)
    expected_failures = {f"radial-{near_critical}-d2": "QuadratureBudgetError"}

    def ops(self, rm, rng) -> list[Op]:
        root = rm.Cube((0.0, 0.0), 1.0)
        out = []
        for trip, depth in self.cases:
            prm = rm.ParamSpace(*trip)
            out.append(_dp_op(rm, f"radial-{trip}-d{depth}", rm.RadialPower.from_params(prm, 2), root, depth, prm))
        prm = rm.ParamSpace(*self.near_critical)
        out.append(_dp_op(rm, f"radial-{self.near_critical}-d2", rm.RadialPower.from_params(prm, 2), root, 2, prm,
                          (0.0,)))
        return [out[i] for i in rng.permutation(len(out))]

    fingerprint = staticmethod(estimate_fingerprint)

    @staticmethod
    def check(rm, ops, outputs) -> list[str]:
        problems = []
        for op, est in zip(ops, outputs):
            x = op.inputs
            f, root, depth, prm = x["f"], x["root"], x["depth"], x["params"]
            p, q, alpha = prm.p, prm.q, prm.alpha
            t = q * f.exponent
            where = f"{op.label}:"
            traced = [v for _, v in est.trace]
            if len(traced) != depth + 1 or any(b < a for a, b in zip(traced, traced[1:])):
                problems.append(f"{where} trace is not nondecreasing over depths 0..{depth}")
            lows, sides = checks.family_arrays(est.certificate)
            pair = checks.first_overlap(lows, sides)
            if pair is not None:
                problems.append(f"{where} certificate cubes {pair} overlap")
            offsets = x["offsets"] if x["offsets"] is not None else rm.norms.DEFAULT_OFFSETS
            if not checks.inside_some_grid(lows, sides, root, offsets):
                problems.append(f"{where} certificate leaves every shifted root")
            masses = [checks.box_mass(t, c.lower, c.side) for c in est.certificate]
            rescored = checks.score_from_masses(np.array(masses), sides, 2, p, q, alpha) if masses else 0.0
            if checks.relative_gap(est.value ** p, rescored) > checks.QUADRATURE_RTOL:
                problems.append(f"{where} value^p {est.value ** p!r} but certificate re-scores to {rescored!r}")
            # the program's own cell masses: certificate cells against scipy,
            # corner squares against the polar form and the law h**(t+n)
            for c, want in zip(est.certificate, masses):
                got = rm.lq_norm_on_cube(f, c, q) ** q
                if checks.relative_gap(got, want) > checks.QUADRATURE_RTOL:
                    problems.append(f"{where} mass of {c} is {got!r}, quadrature gives {want!r}")
            unit = rm.lq_norm_on_cube(f, rm.Cube((0.0, 0.0), 1.0), q) ** q
            if checks.relative_gap(unit, checks.corner_square_mass(t, 1.0)) > checks.QUADRATURE_RTOL:
                problems.append(f"{where} unit corner mass {unit!r} differs from the polar form")
            for d in range(1, depth + 1):
                h = 0.5 ** d
                got = rm.lq_norm_on_cube(f, rm.Cube((0.0, 0.0), h), q) ** q
                if checks.relative_gap(got, unit * h ** (t + 2.0)) > checks.QUADRATURE_RTOL:
                    problems.append(f"{where} corner mass at h={h} breaks the scaling law h^(t+n)")
        return problems


# ---------------------------------------------------------------------------
# rmlab verify (verify-all)
# ---------------------------------------------------------------------------

class VerifyAll:
    """`rmlab verify -o DIR` in process: all nine probes, every pass into the same DIR."""

    name = "verify-all"
    modules = ("rmlab", "rmlab.cli")
    expected_failures: dict[str, str] = {}

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.outdir: Path | None = None

    def ops(self, rm, rng) -> list[Op]:
        if self.outdir is None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.outdir = Path(tempfile.mkdtemp(prefix="verify-", dir=self.workdir))
        argv = ["verify", "-o", str(self.outdir)]
        return [Op("verify", lambda: rm.cli.main(argv))]

    def fingerprint(self, rc) -> tuple:
        """Exit code and the bytes of every file the pass left in DIR."""
        files = sorted(p for p in self.outdir.iterdir() if p.is_file())
        return rc, tuple((p.name, p.read_bytes()) for p in files)

    def check(self, rm, ops, outputs) -> list[str]:
        problems = []
        if outputs[0] != 0:
            problems.append(f"verify exited with {outputs[0]}")
        summary = json.loads((self.outdir / "summary.json").read_text())
        if summary.get("all_pass") is not True:
            problems.append("summary.json: all_pass is not true")
        prop_rn = json.loads((self.outdir / "prop-rn.json").read_text())
        h1000 = prop_rn["details"]["harmonic_1000"]
        exact = math.fsum(1.0 / k for k in range(1, 1001))
        if checks.relative_gap(h1000, exact) > 1e-14:
            problems.append(f"prop-rn harmonic_1000 {h1000!r} != fsum {exact!r}")
        prop_q = json.loads((self.outdir / "prop-q.json").read_text())
        if prop_q["details"].get("cubes") != 8191:
            problems.append(f"prop-q counted {prop_q['details'].get('cubes')} cubes, not 8191")
        return problems

    def close(self) -> None:
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)
