"""Every parameter with a default value in rmlab is pinned here.

A default is a setting: a caller may change it, and a run records it only
if someone remembers to.  Each one below is set by the program or by a
test; a constant of the code takes no parameter.  A new default fails
this test until it is added here on purpose.
"""

import importlib
import inspect
from pathlib import Path

import rmlab

MODULES = ("analysis", "cli", "constructions", "estimate", "funcrep", "geometry", "norms", "quadrature",
           "series", "verification")

DEFAULTED = {
    "analysis.Classification": ("theta", "tag"),
    "analysis.check_power_sum_inequalities": ("head_count", "rel_tol"),
    "cli.main": ("argv",),
    "constructions.sparse_family": ("dim",),
    "constructions.sparse_function": ("dim",),
    "estimate.NormEstimate": ("certificate", "trace"),
    "geometry.Domain": ("cube",),
    "norms.morrey_norm_estimate": ("dyadic_depth", "root"),
    "norms.rm_norm_dyadic": ("offsets",),
    "norms.rm_norm_estimate": ("offsets", "domain"),
    "norms.rm_score": ("domain", "check"),
    "series.power_series_tail": ("rel_scale",),
    "verification.ProbeResult": ("trace_rows",),
    "verification.random_dyadic_partition": ("max_depth",),
    "verification.verify_embedding": ("seed",),
    "verification.verify_oracle_equivalence": ("seed",),
    "verification.verify_power_sums": ("seed",),
    "verification.verify_riesz_identity": ("seed",),
    "verification.verify_shell_divergence": ("K",),
    "verification.verify_singleton_regime": ("seed", "grid"),
    "verification.verify_tree_function": ("depth",),
}


def _callables():
    """(dotted name, callable) for each function, class and method defined in an rmlab module."""
    for module_name in MODULES:
        module = importlib.import_module(f"rmlab.{module_name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module_name}.{name}", obj
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                yield f"{module_name}.{name}", obj
                for attr_name, attr in vars(obj).items():
                    func = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
                    if inspect.isfunction(func) and attr_name != "__init__":
                        yield f"{module_name}.{name}.{attr_name}", func


def test_every_defaulted_parameter_is_pinned():
    found = {}
    for name, obj in _callables():
        params = inspect.signature(obj).parameters.values()
        defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaulted:
            found[name] = defaulted
    assert found == DEFAULTED


def test_every_module_is_scanned():
    on_disk = {path.stem for path in Path(rmlab.__file__).parent.glob("*.py")}
    assert on_disk - {"__init__"} == set(MODULES)
