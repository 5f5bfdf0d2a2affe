"""Command-line front end: construct, norm, verify, classify, sweep.

Output is machine-first: JSON verdicts (floats in shortest round-trip
form, the non-finite ones as the strings "inf", "-inf" and "nan", keys
sorted, so identical config and seed give byte-identical bytes) and
RFC-4180 CSV traces.  Exit status: 0 on success, 1 on probe failure,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import classify
from .constructions import build_tree, power_split, shell_thresholds, sparse_function, tree_function
from .funcrep import FunctionLike, ParamSpace, RadialPower, StepFunction, json_dim
from .geometry import Cube, Domain
from .norms import morrey_norm_estimate, rm_norm_dyadic
from .verification import PROBES

__all__ = ["main"]


def _plain(obj):
    """obj with numpy scalars as Python ones, tuples as lists and the
    non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return "nan" if math.isnan(x) else ("inf" if x > 0.0 else "-inf")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """JSON text, keys sorted, floats in shortest round-trip form; never the
    bare Infinity or NaN tokens, which are not JSON."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_csv(rows: list[dict], path: str) -> None:
    if not rows:
        return
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (format(v, ".17g") if isinstance(v, float) else v) for k, v in row.items()})


def _parse_real(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=_parse_real, default=None)
    sub.add_argument("--q", type=_parse_real, default=None)
    sub.add_argument("--alpha", type=float, default=None)


def _apply_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str]
) -> argparse.Namespace:
    """Fill unset flags from a JSON config file mirroring flag names.

    Each applied value is parsed again as the command-line text of its
    flag, so it passes the flag's own type and choices.  Only numbers and
    strings have such a text.  Probes are named on the command line only.
    """
    if getattr(args, "config", None) is None:
        return args
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"config: {exc}")
    if not isinstance(data, dict):
        parser.error("config: top-level JSON object expected")
    flags = []
    for key, value in data.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"config: unknown field {key!r}")
        if attr == "probes":
            parser.error("config: probes are named on the command line, not in a config file")
        if getattr(args, attr) is None:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                parser.error(f"config: field {key!r} needs a number or a string, got {json.dumps(value)}")
            flags.append(f"--{attr.replace('_', '-')}={value}")
    return parser.parse_args([*argv, *flags])


# Output paths are left out of recorded configs, so document bytes do not
# depend on where they are written.
_UNRECORDED = ("func", "config", "output", "meta", "json", "certificate_csv")


def _resolved_config(args: argparse.Namespace) -> dict:
    return {key: value for key, value in sorted(vars(args).items()) if key not in _UNRECORDED}


def _refuse_unapplied(args, parser, applied, what: str) -> None:
    """Exit 2 if a setting was given, by flag or config field, that is not applied."""
    given = {key for key, value in vars(args).items() if value is not None and key not in _UNRECORDED}
    unapplied = sorted(given - {"command", "construction", "probes"} - set(applied))
    if unapplied:
        parser.error(f"{', '.join('--' + key for key in unapplied)}: not applied by {what}")


def _params_or_exit(args, parser) -> ParamSpace:
    for name in ("p", "q", "alpha"):
        if getattr(args, name, None) is None:
            parser.error(f"missing required flag --{name}")
    try:
        return ParamSpace(args.p, args.q, args.alpha)
    except ValueError as exc:
        parser.error(str(exc))
    raise AssertionError


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the settings each construction reads
_CONSTRUCTION_FLAGS = {
    "sparse": ("n", "L"),
    "tree": ("n", "p", "q", "alpha", "depth"),
    "shells": ("p", "alpha", "K"),
    "power-split": ("n", "p", "q", "alpha", "grid"),
}


def _cmd_construct(args, parser) -> int:
    name = args.construction
    _refuse_unapplied(args, parser, _CONSTRUCTION_FLAGS[name], f"the {name} construction")
    # --n defaults to None so that a config file can set it; a construction
    # that reads no n records none
    if args.n is None and "n" in _CONSTRUCTION_FLAGS[name]:
        args.n = 1
    meta: dict = {"construction": name, "config": _resolved_config(args)}
    function_doc: dict | None = None
    if name == "sparse":
        if args.L is None:
            parser.error("sparse construction needs --L")
        try:
            f = sparse_function(args.L, args.n)
        except ValueError as exc:
            parser.error(str(exc))
        function_doc = f.to_json_dict()
        meta["pieces"] = len(f)
        meta["volumes_head"] = [1.0 / l for l in range(1, min(args.L, 16) + 1)]
    elif name == "tree":
        params = _params_or_exit(args, parser)
        if args.depth is None:
            parser.error("tree construction needs --depth")
        try:
            tree = build_tree(args.n, args.depth, params)
        except ValueError as exc:
            parser.error(str(exc))
        f = tree_function(tree)
        function_doc = f.to_json_dict()
        meta.update(
            {
                "pieces": len(f),
                "cutoff": tree.cutoff,
                "domain_side": tree.domain_side,
                "lengths": list(tree.lengths()),
                "raw_distances": list(tree.raw_distances()),
                "distances": list(tree.distances()),
                "radii": list(tree.radii()),
                "gaps": list(tree.gaps()),
                "heights": [tree.height(i) for i in range(tree.depth + 1)],
            }
        )
    elif name == "shells":
        for flag in ("p", "alpha"):
            if getattr(args, flag) is None:
                parser.error(f"shell construction needs --{flag}")
        if args.K is None:
            parser.error("shell construction needs --K")
        try:
            shells = shell_thresholds(args.p, args.alpha, args.K)
        except ValueError as exc:
            parser.error(str(exc))
        f = StepFunction(((Cube((-1.0,), 2.0), 1.0),))
        function_doc = f.to_json_dict()
        meta.update(
            {
                "normalizer": shells.normalizer,
                "exponent": shells.exponent,
                "thresholds": list(shells.thresholds),
            }
        )
    elif name == "power-split":
        params = _params_or_exit(args, parser)
        base = args.grid if args.grid is not None else 2
        try:
            split = power_split(base, args.n, params)
        except ValueError as exc:
            parser.error(str(exc))
        function_doc = {
            "kind": "radial-power",
            "dim": split.dim,
            "exponent": split.function.exponent,
            "inner_cube": {"lower": list(split.inner_cube.lower), "side": split.inner_cube.side},
        }
        meta.update(
            {
                "grid_base": split.grid_base,
                "radial_exponent": split.function.exponent,
                "lq_exponent": split.lq_exponent,
                "ring_score_floor": split.ring_score_floor,
                "orthant_sphere_measure": split.orthant_sphere_measure,
            }
        )
    else:  # pragma: no cover - argparse restricts choices
        parser.error(f"unknown construction {name!r}")

    _write_output(canonical_json(function_doc), args.output)
    if args.meta is not None:
        _write_output(canonical_json(meta), args.meta)
    return 0


def _read_function(text: str) -> tuple[FunctionLike, Cube]:
    """A StepFunction rooted at its pieces' bounding cube, or (for `"kind":
    "radial-power"`, as `construct power-split` writes) a RadialPower rooted
    at its `inner_cube`."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise TypeError("top-level JSON object expected")
    if doc.get("kind") == "radial-power":
        inner = doc["inner_cube"]
        root = Cube(tuple(float(c) for c in inner["lower"]), float(inner["side"]))
        return RadialPower(float(doc["exponent"]), json_dim(doc["dim"])), root
    f = StepFunction.from_json_dict(doc)
    lo = np.min([c.lower for c, _ in f.pieces], axis=0)
    hi = np.max([c.upper for c, _ in f.pieces], axis=0)
    return f, Cube(tuple(lo), float(np.max(hi - lo)))


# the settings both branches of `rmlab norm` read
_NORM_FLAGS = ("p", "q", "alpha", "function", "depth", "root", "side")


def _cmd_norm(args, parser) -> int:
    params = _params_or_exit(args, parser)
    # --domain reaches only the single-cube estimate, --offsets only the dyadic DP
    if math.isinf(params.p):
        _refuse_unapplied(args, parser, _NORM_FLAGS + ("domain",), "the single-cube estimate (p = inf)")
    else:
        _refuse_unapplied(args, parser, _NORM_FLAGS + ("offsets",), "the dyadic DP (finite p)")
    if args.function is None:
        parser.error("missing required flag --function")
    try:
        f, root = _read_function(Path(args.function).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        parser.error(f"function: {exc}")
    n = f.dim
    if args.root is not None and args.side is None:
        parser.error("--root needs --side")
    depth = args.depth if args.depth is not None else 6
    try:
        if args.root is not None:
            root = Cube(tuple(float(v) for v in args.root.split(",")), args.side)
        if math.isinf(params.p):
            domain = Domain.whole_space(n) if args.domain in (None, "rn") else Domain.of_cube(root)
            est = morrey_norm_estimate(f, domain, params.q, params.alpha, dyadic_depth=min(depth, 8), root=root)
        else:
            offsets = None if args.offsets is None else tuple(float(v) for v in args.offsets.split(","))
            est = rm_norm_dyadic(f, root, depth, params, offsets=offsets)
    except ValueError as exc:
        parser.error(str(exc))
    doc = est.as_dict()
    doc["config"] = _resolved_config(args)
    _write_output(canonical_json(doc), args.output)
    if args.certificate_csv is not None and est.certificate is not None:
        rows = [
            {**{f"lower_{j}": c.lower[j] for j in range(n)}, "side": c.side}
            for c in est.certificate
        ]
        _write_csv(rows, args.certificate_csv)
    return 0


def _cmd_classify(args, parser) -> int:
    params = _params_or_exit(args, parser)
    kind = "whole-space" if args.domain in (None, "rn") else "cube"
    res = classify(params.p, params.q, params.alpha, kind)
    doc = {"verdict": res.verdict, "theta": res.theta, "tag": res.tag, "config": _resolved_config(args)}
    _write_output(canonical_json(doc), args.output)
    return 0


def _probe_kwargs(probe, args) -> dict:
    """The set flags that the probe takes: its parameters are named after flag dests."""
    params = inspect.signature(probe).parameters
    return {key: value for key, value in vars(args).items() if key in params and value is not None}


def _verdict(name: str, res, config: dict) -> dict:
    # wall time is reported on stderr, never in the verdict, so that
    # identical config and seed give byte-identical JSON
    return {"probe": name, "pass": res.passed, "details": res.details, "config": config}


def _cmd_verify(args, parser) -> int:
    names = args.probes or sorted(PROBES)
    for name in names:
        if name not in PROBES:
            parser.error(f"unknown probe {name!r}; available: {', '.join(sorted(PROBES))}")
    taken = {key for name in names for key in inspect.signature(PROBES[name]).parameters}
    _refuse_unapplied(args, parser, taken, f"probes {', '.join(names)}")
    runs = []
    for name in names:
        probe = PROBES[name]
        t0 = time.perf_counter()
        try:
            res = probe(**_probe_kwargs(probe, args))
        except ValueError as exc:
            parser.error(f"{name}: {exc}")
        runs.append((name, res, time.perf_counter() - t0))
    runs.sort(key=lambda run: run[0])

    verdicts = []
    for name, res, _ in runs:
        doc = _verdict(name, res, {**_resolved_config(args), "probe": name})
        verdicts.append(doc)
        if args.output is not None:
            outdir = Path(args.output)
            outdir.mkdir(parents=True, exist_ok=True)
            _write_output(canonical_json(doc), str(outdir / f"{name}.json"))
            if res.trace_rows:
                _write_csv(res.trace_rows, str(outdir / f"{name}.csv"))
    all_pass = all(res.passed for _, res, _ in runs)
    summary = {"probes": verdicts, "all_pass": all_pass}
    if args.output is None:
        _write_output(canonical_json(summary), None)
    else:
        _write_output(canonical_json(summary), str(Path(args.output) / "summary.json"))
    for name, res, elapsed_s in runs:
        sys.stderr.write(f"{name}: {'PASS' if res.passed else 'FAIL'} ({elapsed_s:.2f}s)\n")
    return 0 if all_pass else 1


def _cmd_sweep(args, parser) -> int:
    res = PROBES["classify-sweep"]()
    if args.output is not None and args.output != "-":
        _write_csv(res.trace_rows, args.output)
    doc = _verdict("classify-sweep", res, _resolved_config(args))
    if args.json is not None:
        _write_output(canonical_json(doc), args.json)
    elif args.output in (None, "-"):
        _write_output(canonical_json(doc), None)
    return 0 if res.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    construct = subs.add_parser("construct", help="emit a constructed function as JSON")
    construct.add_argument("construction", choices=("sparse", "tree", "shells", "power-split"))
    _add_param_flags(construct)
    construct.add_argument("--n", type=int, default=None)
    construct.add_argument("--L", type=int, default=None, help="sparse truncation length")
    construct.add_argument("--depth", type=int, default=None)
    construct.add_argument("--K", type=int, default=None, help="shell count")
    construct.add_argument("--grid", type=int, default=None, help="grid base for power-split")
    construct.add_argument("--config", default=None)
    construct.add_argument("-o", "--output", default=None)
    construct.add_argument("--meta", default=None, help="construction metadata JSON path")
    construct.set_defaults(func=_cmd_construct)

    norm = subs.add_parser("norm", help="partition-norm estimate for a step function or radial power")
    _add_param_flags(norm)
    norm.add_argument("--function", default=None, help="StepFunction or radial-power JSON path")
    norm.add_argument("--domain", choices=("rn", "cube"), default=None)
    norm.add_argument("--depth", type=int, default=None)
    norm.add_argument("--offsets", default=None, help="comma-separated grid shifts in [0,1)")
    norm.add_argument("--root", default=None, help="comma-separated lower corner of the search root")
    norm.add_argument("--side", type=float, default=None, help="side of the search root")
    norm.add_argument("--config", default=None)
    norm.add_argument("-o", "--output", default=None)
    norm.add_argument("--certificate-csv", default=None)
    norm.set_defaults(func=_cmd_norm)

    cls = subs.add_parser("classify", help="space classification for one parameter point")
    _add_param_flags(cls)
    cls.add_argument("--domain", choices=("rn", "cube"), default=None)
    cls.add_argument("--config", default=None)
    cls.add_argument("-o", "--output", default=None)
    cls.set_defaults(func=_cmd_classify)

    verify = subs.add_parser("verify", help="run named verification probes")
    verify.add_argument("probes", nargs="*", metavar="probe")
    verify.add_argument("--depth", type=int, default=None)
    verify.add_argument("--grid", type=int, default=None)
    verify.add_argument("--K", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--config", default=None)
    verify.add_argument("-o", "--output", default=None, help="directory for verdicts and traces")
    verify.set_defaults(func=_cmd_verify)

    sweep = subs.add_parser("sweep", help="classification sweep as CSV")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("-o", "--output", default=None, help="CSV path")
    sweep.add_argument("--json", default=None, help="JSON verdict path")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _apply_config(parser.parse_args(argv), parser, argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
