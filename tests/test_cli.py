import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmlab
from rmlab.cli import canonical_json, main
from rmlab.verification import PROBES


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out


def strict_json(text):
    """json.loads that rejects the Infinity, -Infinity and NaN tokens, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_canonical_json_writes_non_finite_floats_as_strings():
    text = canonical_json({"a": 1.0 / 3.0, "b": math.inf, "c": -math.inf, "d": math.nan,
                           "e": np.float64(0.1), "f": (1, np.float64(2.5), np.int64(3))})
    assert strict_json(text) == {"a": 1.0 / 3.0, "b": "inf", "c": "-inf", "d": "nan", "e": 0.1, "f": [1, 2.5, 3]}
    assert '"a": 0.3333333333333333,' in text


class TestClassifyCommand:
    def test_spot_value(self, capsys):
        code, out = run_cli(
            ["classify", "--p", "2", "--q", "1", "--alpha", "-0.25", "--domain", "rn"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "ProperSupersetOfLtheta"
        assert abs(doc["theta"] - 4.0 / 3.0) < 1e-12
        assert doc["config"]["p"] == 2.0

    def test_determinism_byte_identical(self, capsys):
        args = ["classify", "--p", "3", "--q", "2", "--alpha", "-0.2", "--domain", "cube"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_infinite_p(self, capsys):
        code, out = run_cli(
            ["classify", "--p", "inf", "--q", "2", "--alpha", "-0.25", "--domain", "cube"], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "EqualsMorrey"


class TestConstructCommand:
    def test_tree_piece_count(self, tmp_path, capsys):
        out_json = tmp_path / "tree.json"
        meta_json = tmp_path / "tree.meta.json"
        code, _ = run_cli(
            [
                "construct", "tree", "--n", "1", "--depth", "8",
                "--p", "2", "--q", "1", "--alpha", "-0.25",
                "-o", str(out_json), "--meta", str(meta_json),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert len(doc["pieces"]) == 2 ** 9 - 1
        meta = json.loads(meta_json.read_text())
        assert meta["cutoff"] == 2
        assert len(meta["gaps"]) == 9
        assert all(g > 0 for g in meta["gaps"])

    def test_sparse_roundtrips_into_norm(self, tmp_path, capsys):
        fn = tmp_path / "sparse.json"
        code, _ = run_cli(["construct", "sparse", "--L", "20", "-o", str(fn)], capsys)
        assert code == 0
        code, out = run_cli(
            [
                "norm", "--function", str(fn), "--p", "2", "--q", "1",
                "--alpha", "-0.25", "--depth", "8",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "lower-bound"
        assert doc["value"] > 0
        assert doc["certificate"]

    def test_shells_meta(self, tmp_path, capsys):
        fn = tmp_path / "shell.json"
        meta = tmp_path / "shell.meta.json"
        code, _ = run_cli(
            ["construct", "shells", "--p", "1", "--alpha", "0.25", "--K", "5",
             "-o", str(fn), "--meta", str(meta)],
            capsys,
        )
        assert code == 0
        doc = json.loads(meta.read_text())
        assert len(doc["thresholds"]) == 5
        assert abs(doc["normalizer"] - 3.6009377504588893) < 1e-9
        # shells read no n: it stays unset (null), like every other flag they do not read
        assert doc["config"]["n"] is None
        assert all(doc["config"][flag] is None for flag in ("L", "depth", "grid", "q"))

    def test_power_split_meta(self, tmp_path, capsys):
        meta = tmp_path / "ps.meta.json"
        code, _ = run_cli(
            ["construct", "power-split", "--n", "1", "--p", "2", "--q", "1",
             "--alpha", "-0.25", "--grid", "2", "-o", str(tmp_path / "f.json"),
             "--meta", str(meta)],
            capsys,
        )
        assert code == 0
        doc = json.loads(meta.read_text())
        assert abs(doc["ring_score_floor"] - 0.5727893178824464) < 1e-12


    @pytest.mark.parametrize("flags,config", [
        (["sparse", "--L", "3", "--depth", "5"], None),
        (["sparse", "--L", "3", "--K", "9"], None),
        (["shells", "--p", "1", "--q", "2", "--alpha", "0.25", "--K", "5"], None),
        (["shells", "--p", "1", "--alpha", "0.25", "--K", "5", "--n", "1"], None),
        (["tree", "--depth", "2", "--p", "2", "--q", "1", "--alpha", "-0.25", "--grid", "2"], None),
        (["power-split", "--p", "2", "--q", "1", "--alpha", "-0.25", "--L", "4"], None),
        (["sparse", "--L", "3"], {"depth": 5}),
    ], ids=["sparse-depth", "sparse-K", "shells-q", "shells-n", "tree-grid", "power-split-L", "config-field"])
    def test_unread_setting_exits_2(self, tmp_path, capsys, flags, config):
        argv = ["construct", *flags, "-o", str(tmp_path / "f.json")]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not applied by the" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()


class TestNormCommand:
    def test_power_split_roundtrips_into_norm(self, tmp_path, capsys):
        from rmlab import Cube, ParamSpace, RadialPower, rm_norm_dyadic

        fn = tmp_path / "split.json"
        params = ["--p", "2", "--q", "1", "--alpha", "-0.25"]
        code, _ = run_cli(["construct", "power-split", "--n", "1", *params, "-o", str(fn)], capsys)
        assert code == 0
        code, out = run_cli(["norm", "--function", str(fn), *params, "--depth", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        unit = Cube((0.0,), 1.0)
        want = rm_norm_dyadic(RadialPower(-0.75, 1), unit, 4, ParamSpace(2.0, 1.0, -0.25))
        assert doc["kind"] == "lower-bound"
        assert doc["value"] == pytest.approx(want.value, rel=1e-12)
        assert len(doc["certificate"]) == len(want.certificate)

    def test_cube_domain_and_explicit_root(self, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text(
            json.dumps(
                {"dim": 1, "pieces": [
                    {"lower": [0.0], "side": 0.5, "height": 2.0},
                    {"lower": [0.5], "side": 0.5, "height": 1.0},
                ]}
            )
        )
        code, out = run_cli(
            [
                "norm", "--function", str(fn), "--p", "2", "--q", "1", "--alpha", "0",
                "--root", "0", "--side", "1", "--depth", "3", "--offsets", "0",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - 2.5 ** 0.5) < 1e-12

    def test_overlapping_pieces_exit_2(self, tmp_path):
        fn = tmp_path / "f.json"
        piece = {"lower": [0.0], "side": 1.0, "height": 1.0}
        fn.write_text(json.dumps({"dim": 1, "pieces": [piece, piece]}))
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--function", str(fn), "--p", "2", "--q", "1", "--alpha", "0"])
        assert exc.value.code == 2

    def test_radial_root_with_a_cell_just_off_the_origin(self, tmp_path, capsys):
        fn = tmp_path / "radial.json"
        fn.write_text(json.dumps({"kind": "radial-power", "dim": 2, "exponent": -0.9,
                                  "inner_cube": {"lower": [-0.3, -0.3], "side": 0.8}}))
        code, out = run_cli(
            ["norm", "--function", str(fn), "--p", "2", "--q", "2", "--alpha", "-0.1", "--depth", "3"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] > 0.0

    @pytest.mark.parametrize("doc", [
        {"dim": 2.7, "pieces": [{"lower": [0.0, 0.0], "side": 1.0, "height": 1.0}]},
        {"kind": "radial-power", "dim": 2.7, "exponent": -0.9, "inner_cube": {"lower": [0.0, 0.0], "side": 1.0}},
    ], ids=["step", "radial"])
    def test_non_integral_dim_exits_2(self, tmp_path, doc):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--function", str(fn), "--p", "2", "--q", "1", "--alpha", "-0.25", "--depth", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--root", "0,abc", "--side", "1"],
        ["--root", "0", "--side", "-1"],
        ["--offsets", ""],
    ], ids=["root-not-a-number", "negative-side", "empty-offsets"])
    def test_bad_root_side_or_offsets_exit_2(self, tmp_path, flags):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"dim": 1, "pieces": [{"lower": [0.0], "side": 1.0, "height": 1.0}]}))
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--function", str(fn), "--p", "2", "--q", "1", "--alpha", "-0.25", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize("p, flags, config", [
        ("2", ["--domain", "rn"], None),
        ("2", ["--domain", "cube"], None),
        ("2", [], {"domain": "cube"}),
        ("inf", ["--offsets", "0"], None),
        ("inf", ["--offsets", "0.5"], None),
        ("inf", [], {"offsets": "0"}),
    ], ids=["finite-p-domain-rn", "finite-p-domain-cube", "finite-p-domain-config", "inf-offsets-0",
            "inf-offsets-half", "inf-offsets-config"])
    def test_unapplied_setting_exits_2(self, tmp_path, capsys, p, flags, config):
        # finite p runs the dyadic DP, which reads no domain; p = inf runs the
        # single-cube estimate, which reads no offsets
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"dim": 1, "pieces": [{"lower": [0.0], "side": 1.0, "height": 1.0}]}))
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--function", str(fn), "--p", p, "--q", "1", "--alpha", "-0.5", "--depth", "3", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "not applied" in captured.err
        assert captured.out == ""

    def test_infinite_p_routes_to_single_cube(self, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"dim": 1, "pieces": [{"lower": [0.0], "side": 1.0, "height": 1.0}]}))
        code, out = run_cli(
            ["norm", "--function", str(fn), "--p", "inf", "--q", "1", "--alpha", "-0.5",
             "--root", "0", "--side", "1", "--domain", "cube"],
            capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["value"] - 1.0) < 1e-12

    def test_infinite_p_writes_strict_json(self, tmp_path, capsys):
        fn = tmp_path / "t.json"
        fn.write_text(json.dumps({"dim": 1, "pieces": [{"lower": [0.0], "side": 1.0, "height": 1.0}]}))
        code, out = run_cli(
            ["norm", "--function", str(fn), "--p", "inf", "--q", "1", "--alpha", "-0.5", "--depth", "3"], capsys
        )
        assert code == 0
        assert strict_json(out)["config"]["p"] == "inf"

    def test_infinite_p_on_a_constructed_deep_tree(self, tmp_path, capsys):
        # the depth-10 tree has supports below the ulp of their position
        fn = tmp_path / "tree.json"
        run_cli(["construct", "tree", "--n", "1", "--depth", "10", "--p", "2", "--q", "1",
                 "--alpha", "-0.25", "-o", str(fn)], capsys)
        code, out = run_cli(
            ["norm", "--function", str(fn), "--p", "inf", "--q", "1", "--alpha", "-0.5", "--depth", "8"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] > 0.0

    def test_overflowing_score_exits_2(self, tmp_path, capsys):
        # level-12 heights are 1.8e16, and 1.8e16**20 overflows a double
        fn = tmp_path / "tree.json"
        code, _ = run_cli(["construct", "tree", "--n", "1", "--depth", "12", "--p", "2", "--q", "1",
                           "--alpha", "-0.25", "-o", str(fn)], capsys)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--function", str(fn), "--p", "30", "--q", "20", "--alpha", "-0.01",
                  "--depth", "12", "--offsets", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "overflows a double" in captured.err
        assert captured.out == ""

    def test_certificate_csv(self, tmp_path, capsys):
        fn = tmp_path / "f.json"
        run_cli(["construct", "sparse", "--L", "5", "-o", str(fn)], capsys)
        cert = tmp_path / "cert.csv"
        code, _ = run_cli(
            [
                "norm", "--function", str(fn), "--p", "2", "--q", "1", "--alpha", "-0.25",
                "--depth", "6", "--offsets", "0", "-o", str(tmp_path / "norm.json"),
                "--certificate-csv", str(cert),
            ],
            capsys,
        )
        assert code == 0
        lines = cert.read_text().strip().splitlines()
        assert lines[0] == "lower_0,side"
        assert len(lines) > 1


class TestVerifyCommand:
    def test_pass_and_artifacts(self, tmp_path, capsys):
        code, _ = run_cli(
            ["verify", "classify-sweep", "inequalities", "-o", str(tmp_path)], capsys
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_pass"] is True
        names = [p["probe"] for p in summary["probes"]]
        assert names == sorted(names)
        sweep = json.loads((tmp_path / "classify-sweep.json").read_text())
        assert sweep["pass"] is True
        assert (tmp_path / "classify-sweep.csv").exists()

    def test_verdicts_do_not_depend_on_output_directory(self, tmp_path, capsys):
        fn = tmp_path / "sparse.json"
        run_cli(["construct", "sparse", "--L", "5", "-o", str(fn)], capsys)
        params = ["--p", "2", "--q", "1", "--alpha", "-0.25"]
        commands = (
            lambda d: ["verify", "classify-sweep", "-o", str(d)],
            lambda d: ["norm", "--function", str(fn), *params, "--depth", "4",
                       "-o", str(d / "norm.json"), "--certificate-csv", str(d / "cert.csv")],
            lambda d: ["classify", *params, "-o", str(d / "classify.json")],
            lambda d: ["construct", "tree", "--depth", "3", *params,
                       "-o", str(d / "tree.json"), "--meta", str(d / "tree.meta.json")],
            lambda d: ["sweep", "-o", str(d / "sweep.csv"), "--json", str(d / "sweep.json")],
        )
        first, second = tmp_path / "a", tmp_path / "b"
        for outdir in (first, second):
            outdir.mkdir()
            for command in commands:
                code, _ = run_cli(command(outdir), capsys)
                assert code == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert {"norm.json", "classify.json", "tree.meta.json", "sweep.json"} <= set(names)
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_verdict_values_stay_pinned(self, tmp_path, capsys):
        code, _ = run_cli(["verify", "inequalities", "embedding", "lem1e", "-o", str(tmp_path)], capsys)
        assert code == 0
        details = {name: json.loads((tmp_path / f"{name}.json").read_text())["details"]
                   for name in ("inequalities", "embedding", "lem1e")}
        assert repr(details["inequalities"]["max_equality_err"]) == "4.268823137083259e-16"
        assert details["inequalities"]["violations"] == 0
        assert repr(details["embedding"]["worst_margin"]) == "-0.001723126087797424"
        assert repr(details["lem1e"]["fitted_rate"]) == "0.43609257765888493"

    def test_each_flag_reaches_its_probe(self, tmp_path, capsys):
        run_cli(["verify", "prop-q", "lem1e", "q23-identity", "riesz-identity",
                 "--depth", "3", "--K", "10", "--grid", "16", "--seed", "9", "-o", str(tmp_path)], capsys)
        details = {name: json.loads((tmp_path / f"{name}.json").read_text())["details"]
                   for name in ("prop-q", "lem1e", "q23-identity", "riesz-identity")}
        assert details["prop-q"]["cubes"] == 15
        assert details["lem1e"]["shells"] == 10
        assert details["q23-identity"]["grid_cells"] == 16
        assert details["riesz-identity"]["seed"] == 9

    def test_probes_take_only_verify_flags(self):
        # every other probe setting is a constant, so it needs no flag
        for name, probe in PROBES.items():
            assert set(inspect.signature(probe).parameters) <= {"seed", "K", "depth", "grid"}, name

    def test_unapplied_parameter_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "prop-q", "--p", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["lem1e", "--depth", "3"],
        ["lem1e", "prop-rn", "--seed", "1"],
        ["classify-sweep", "--grid", "8"],
    ])
    def test_flag_no_named_probe_takes_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv, "-o", str(tmp_path)])
        assert exc.value.code == 2
        assert "not applied by probes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_field_no_named_probe_takes_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 3}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "lem1e", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "--depth: not applied by probes lem1e" in capsys.readouterr().err

    def test_unknown_probe_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "no-such-probe"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["prop-q", "--depth", "2"],
        ["lem1e", "--K", "4"],
        ["q23-identity", "--grid", "0"],
        ["q23-identity", "--grid", "16385"],
        ["riesz-identity", "--seed", "-1"],
    ], ids=["depth", "K", "grid-0", "grid-over-cap", "seed"])
    def test_out_of_range_flag_exits_2(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flags])
        assert exc.value.code == 2

    def test_probe_failure_exits_1(self, capsys, monkeypatch):
        import rmlab.cli as climod
        from rmlab.verification import ProbeResult

        def failing():
            return ProbeResult(False, {"forced": True})

        monkeypatch.setitem(climod.PROBES, "classify-sweep", failing)
        code, out = run_cli(["verify", "classify-sweep"], capsys)
        assert code == 1
        assert json.loads(out)["all_pass"] is False


class TestConfigFile:
    def test_flags_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "q": 1, "alpha": -0.25, "domain": "rn"}))
        code, out = run_cli(["classify", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "ProperSupersetOfLtheta"

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "q": 1, "alpha": -0.25, "domain": "rn"}))
        code, out = run_cli(["classify", "--config", str(cfg), "--alpha", "0"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "EqualsLp"

    def test_construct_dimension_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        for extra, dim in (([], 1), (["--config", str(cfg)], 2)):
            fn, meta = tmp_path / "tree.json", tmp_path / "tree.meta.json"
            code, _ = run_cli(["construct", "tree", "--depth", "1", "--p", "2", "--q", "1", "--alpha", "-0.25",
                               *extra, "-o", str(fn), "--meta", str(meta)], capsys)
            assert code == 0
            assert json.loads(fn.read_text())["dim"] == dim
            assert json.loads(meta.read_text())["config"]["n"] == dim

    def test_unknown_config_field_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "nonsense": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_probes_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probes": ["classify-sweep"]}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "probes are named on the command line" in capsys.readouterr().err

    def test_json_numbers_pass_through_flag_types(self, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"dim": 1, "pieces": [{"lower": [0.0], "side": 1.0, "height": 1.0}]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"function": str(fn), "depth": 3, "p": 2.0, "q": 1, "alpha": -0.25}))
        code, out = run_cli(["norm", "--config", str(cfg)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["config"]["depth"], doc["config"]["p"], doc["config"]["q"]) == (3, 2.0, 1.0)

    def test_string_number_is_parsed_like_its_flag(self, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"dim": 1, "pieces": [{"lower": [0.0], "side": 1.0, "height": 1.0}]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": "3"}))
        code, out = run_cli(
            ["norm", "--function", str(fn), "--p", "2", "--q", "1", "--alpha", "-0.25", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["config"]["depth"] == 3

    @pytest.mark.parametrize("field", [
        {"root": [0.0], "side": 16},
        {"depth": {"value": 3}},
        {"depth": True},
        {"depth": None},
        {"depth": "three"},
        {"depth": 3.5},
        {"domain": "torus"},
    ], ids=["list", "object", "boolean", "null", "not-an-int", "fractional-int", "bad-choice"])
    def test_bad_value_type_exits_2(self, tmp_path, field):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"dim": 1, "pieces": [{"lower": [0.0], "side": 1.0, "height": 1.0}]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(field))
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--function", str(fn), "--p", "2", "--q", "1", "--alpha", "-0.25", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_regime_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--p", "0.5", "--q", "1", "--alpha", "0"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(["sweep", "-o", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,q,alpha,domain,verdict"
        assert len(lines) > 200


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the package under test, also when pytest put it on sys.path itself
        src = str(Path(rmlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "rmlab.cli", "classify", "--p", "2", "--q", "1",
             "--alpha", "0", "--domain", "rn"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "EqualsLp"
