"""Which rmlab functions the traced run wraps, and the per-layer metrics read from the spans.

Every wrapped function is public.  Span names are `<module>.<what>`;
metrics ending in `_s` are self times (span minus child spans), except
`verification.probe_s.*` and `verification.probe_cpu_s.*`, which are a
probe's inclusive wall and thread CPU time, and `norms.dp_cells_per_s`,
which divides cells by the DP's inclusive wall time.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

from tracer import Tracer

PROBE_NAMES = (
    "classify-sweep", "embedding", "inequalities", "lem1e", "oracle-equivalence",
    "prop-q", "prop-rn", "q23-identity", "riesz-identity",
)


def _dp_cells(func):
    sig = inspect.signature(func)

    def counter(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        root, depth = bound.arguments["root"], bound.arguments["depth"]
        offsets = bound.arguments.get("offsets")
        if offsets is None:
            offsets = sys.modules["rmlab.norms"].DEFAULT_OFFSETS
        n = root.dim
        grids = len(tuple(offsets)) ** n
        return {"norms.dp_cells": grids * sum(1 << (n * d) for d in range(depth + 1))}

    return counter


def _disjoint_pairs(args, kwargs):
    m = len(args[0] if args else kwargs["cubes"])
    return {"geometry.disjoint_pairs": m * (m - 1) // 2}


def _quadrature_kind(t, lower, *args, **kwargs) -> str:
    # the program's corner-peeling path: a box of dimension >= 2 whose lower
    # corner, clipped to the orthant, is the origin
    if len(lower) > 1 and all(c <= 0.0 for c in lower):
        return "quadrature.corner"
    return "quadrature.box"


def _files_written(args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    for flag in ("-o", "--output"):
        if flag in argv[:-1]:
            out = Path(argv[argv.index(flag) + 1])
            if out.is_dir():
                files = [p for p in out.iterdir() if p.is_file()]
                return {"cli.files_written": len(files), "cli.bytes_written": sum(p.stat().st_size for p in files)}
    return {}


# (module, function, span name or naming function, counter factory or None)
TARGETS = (
    ("rmlab.norms", "rm_norm_dyadic", "norms.dp", _dp_cells),
    ("rmlab.norms", "rm_score", "norms.score", None),
    ("rmlab.norms", "rm_norm_bruteforce_1d", "norms.oracle", None),
    ("rmlab.funcrep", "lq_norm_on_cube", "funcrep.cell_mass", None),
    ("rmlab.funcrep", "lebesgue_norm", "funcrep.lebesgue", None),
    ("rmlab.geometry", "dyadic_children", "geometry.children", None),
    ("rmlab.geometry", "interiors_pairwise_disjoint", "geometry.disjoint", lambda f: _disjoint_pairs),
    ("rmlab.quadrature", "power_integral_on_box", _quadrature_kind, None),
    ("rmlab.series", "power_series_tail", "series.tail", None),
    ("rmlab.series", "power_series_sum", "series.sum", None),
    ("rmlab.series", "partial_power_sum", "series.sum", None),
    ("rmlab.series", "harmonic_number", "series.sum", None),
    ("rmlab.constructions", "build_tree", "constructions.build_tree", None),
    ("rmlab.constructions", "sparse_function", "constructions.sparse_function", None),
    ("rmlab.constructions", "shell_thresholds", "constructions.shell_thresholds", None),
    ("rmlab.analysis", "sparse_single_overlap_bound", "analysis.bound", None),
    ("rmlab.analysis", "sparse_multi_overlap_bound", "analysis.bound", None),
    ("rmlab.analysis", "tree_single_overlap_bound", "analysis.bound", None),
    ("rmlab.analysis", "tree_multi_overlap_bound", "analysis.bound", None),
    ("rmlab.analysis", "growth_probe", "analysis.growth", None),
    ("rmlab.analysis", "shell_divergence_probe", "analysis.growth", None),
    ("rmlab.analysis", "check_power_sum_inequalities", "analysis.power_sum", None),
    ("rmlab.analysis", "classify", "analysis.classify", None),
    ("rmlab.cli", "main", "cli.main", lambda f: _files_written),
)


def install(tracer: Tracer) -> None:
    """Wrap every target in each loaded rmlab module that binds it, and the probe registry."""
    registries = ()
    verification = sys.modules.get("rmlab.verification")
    if verification is not None:
        registries = (verification.PROBES,)
        for name, probe in list(verification.PROBES.items()):
            tracer.patch("rmlab", probe, tracer.wrap(probe, f"verification.probe.{name}"), registries)
    for module, attr, name, counter in TARGETS:
        func = getattr(sys.modules.get(module), attr, None)
        if func is None:  # not loaded by this workload, or gone from the program
            continue
        wrapper = tracer.wrap(func, name, counter(func) if counter else None)
        tracer.patch("rmlab", func, wrapper, registries)


class Totals:
    """Per-layer figures for one input generation plus one round of operations."""

    def __init__(self, tracer: Tracer, rounds: int):
        self._t = tracer
        self._rounds = rounds

    def _row(self, name: str, col: int) -> float:
        setup = self._t.totals.get("setup", {}).get(name)
        rounds = self._t.totals.get("rounds", {}).get(name)
        return (setup[col] if setup else 0.0) + (rounds[col] / self._rounds if rounds else 0.0)

    def calls(self, name):
        return self._row(name, 0)

    def self_s(self, name):
        return self._row(name, 1)

    def wall_s(self, name):
        return self._row(name, 2)

    def cpu_s(self, name):
        return self._row(name, 3)

    def count(self, name):
        setup = self._t.counts.get("setup", {}).get(name, 0)
        rounds = self._t.counts.get("rounds", {}).get(name, 0)
        return setup + rounds / self._rounds


def _rate(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


# (metric, unit, better, value from Totals)
PER_LAYER = [
    ("norms.dp_calls", "count", "lower", lambda t: t.calls("norms.dp")),
    ("norms.dp_s", "s", "lower", lambda t: t.self_s("norms.dp")),
    ("norms.dp_cells", "count", "lower", lambda t: t.count("norms.dp_cells")),
    ("norms.dp_cells_per_s", "1/s", "higher", lambda t: _rate(t.count("norms.dp_cells"), t.wall_s("norms.dp"))),
    ("norms.score_calls", "count", "lower", lambda t: t.calls("norms.score")),
    ("norms.score_s", "s", "lower", lambda t: t.self_s("norms.score")),
    ("norms.oracle_calls", "count", "lower", lambda t: t.calls("norms.oracle")),
    ("norms.oracle_s", "s", "lower", lambda t: t.self_s("norms.oracle")),
    ("funcrep.cell_mass_calls", "count", "lower", lambda t: t.calls("funcrep.cell_mass")),
    ("funcrep.cell_mass_s", "s", "lower", lambda t: t.self_s("funcrep.cell_mass")),
    ("funcrep.lebesgue_calls", "count", "lower", lambda t: t.calls("funcrep.lebesgue")),
    ("funcrep.lebesgue_s", "s", "lower", lambda t: t.self_s("funcrep.lebesgue")),
    ("geometry.children_calls", "count", "lower", lambda t: t.calls("geometry.children")),
    ("geometry.children_s", "s", "lower", lambda t: t.self_s("geometry.children")),
    ("geometry.disjoint_calls", "count", "lower", lambda t: t.calls("geometry.disjoint")),
    ("geometry.disjoint_pairs", "count", "lower", lambda t: t.count("geometry.disjoint_pairs")),
    ("geometry.disjoint_s", "s", "lower", lambda t: t.self_s("geometry.disjoint")),
    ("quadrature.box_calls", "count", "lower", lambda t: t.calls("quadrature.box")),
    ("quadrature.corner_calls", "count", "lower", lambda t: t.calls("quadrature.corner")),
    ("quadrature.box_s", "s", "lower", lambda t: t.self_s("quadrature.box")),
    ("quadrature.corner_s", "s", "lower", lambda t: t.self_s("quadrature.corner")),
    ("quadrature.budget_errors", "count", "lower",
     lambda t: t.count("quadrature.box.raised.QuadratureBudgetError")
     + t.count("quadrature.corner.raised.QuadratureBudgetError")),
    ("series.tail_calls", "count", "lower", lambda t: t.calls("series.tail")),
    ("series.tail_s", "s", "lower", lambda t: t.self_s("series.tail")),
    ("series.sum_s", "s", "lower", lambda t: t.self_s("series.sum")),
    ("constructions.build_tree_s", "s", "lower", lambda t: t.self_s("constructions.build_tree")),
    ("constructions.sparse_function_s", "s", "lower", lambda t: t.self_s("constructions.sparse_function")),
    ("constructions.shell_thresholds_s", "s", "lower", lambda t: t.self_s("constructions.shell_thresholds")),
    ("analysis.bound_s", "s", "lower", lambda t: t.self_s("analysis.bound")),
    ("analysis.growth_s", "s", "lower", lambda t: t.self_s("analysis.growth")),
    ("analysis.power_sum_calls", "count", "lower", lambda t: t.calls("analysis.power_sum")),
    ("analysis.power_sum_s", "s", "lower", lambda t: t.self_s("analysis.power_sum")),
    ("analysis.classify_calls", "count", "lower", lambda t: t.calls("analysis.classify")),
]
for _probe in PROBE_NAMES:
    PER_LAYER.append((f"verification.probe_s.{_probe}", "s", "lower",
                      lambda t, p=_probe: t.wall_s(f"verification.probe.{p}")))
for _probe in PROBE_NAMES:
    PER_LAYER.append((f"verification.probe_cpu_s.{_probe}", "s", "lower",
                      lambda t, p=_probe: t.cpu_s(f"verification.probe.{p}")))
PER_LAYER += [
    ("cli.io_s", "s", "lower", lambda t: t.self_s("cli.main")),
    ("cli.files_written", "count", "lower", lambda t: t.count("cli.files_written")),
    ("cli.bytes_written", "B", "lower", lambda t: t.count("cli.bytes_written")),
]


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, dict]:
    totals = Totals(tracer, rounds)
    return {name: {"value": float(value(totals)), "unit": unit} for name, unit, _, value in PER_LAYER}

# Figures of the traced run as a whole, reported next to the layers: the
# traced throughput (set against the untraced ops_per_s, it gives the
# tracing overhead) and the share of operation wall time that falls inside
# some wrapped layer.
RUN_METRICS = [
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.accounted_share", "ratio", "higher"),
]
