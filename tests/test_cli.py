from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lybandit
import lybandit.cli as cli
import lybandit.engine as engine
from lybandit.cli import load_config, main, results_header

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "example_config.json"
REFERENCE_ARMS = [
    {"x_mean": 0.4, "r_mean": 0.8, "y_mean": 0.6, "kind": "independent-bernoulli"},
    {"x_mean": 0.6, "r_mean": 0.6, "y_mean": 0.3, "kind": "independent-bernoulli"},
]


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "instance": {"arms": REFERENCE_ARMS, "c": 0.8},
        "policies": [{"name": "stat", "type": "stationary"}],
        "budgets": [40, 80],
        "runs": 5,
        "seed": 11,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestOracleCommand:
    def test_prints_solution(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["oracle", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "0.391304348" in out
        assert "r* = 1.3" in out
        assert "support = [1, 2]" in out

    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["oracle", "--config", cfg, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_star"] == pytest.approx(1.3)
        assert doc["y_star"] == pytest.approx(0.8)
        assert doc["p_star"][0] == pytest.approx(9 / 23)
        assert doc["support"] == [1, 2]

    def test_infeasible_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            instance={
                "arms": [{"x_mean": 0.4, "r_mean": 0.5, "y_mean": 0.6}],
                "c": 0.5,
            },
        )
        assert main(["oracle", "--config", cfg]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_schema_error_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, instance={"arms": REFERENCE_ARMS})  # missing c
        assert main(["oracle", "--config", cfg]) == 1
        cfg = write_config(
            tmp_path, instance={"arms": [{"x_mean": 1.4, "r_mean": 0.5, "y_mean": 0.5}], "c": 0.5}
        )
        assert main(["oracle", "--config", cfg]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["oracle", "--config", str(tmp_path / "nope.json")]) == 1

    def test_leaves_numpy_random_unloaded(self):
        # loading numpy.random would add about 15-18 ms to the command's start-up
        code = ("import sys, lybandit, lybandit.cli\n"
                f"assert lybandit.cli.main(['oracle', '--config', {str(DEMO_CONFIG)!r}]) == 0\n"
                "assert 'numpy.random' not in sys.modules, 'numpy.random is loaded'\n")
        src = str(Path(lybandit.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    # stdout bytes of ``oracle --json``: any change to the solution's floats shows
    PINNED_JSON = {
        "demo": "dea8ab7e35beddd5322b9796292eb98fa5f6fbaa4356db578f33afaec5213083",
        "k12": "634d0b18bb0726bc950b0c28eeb0c59ce9e6141c35ef23243d0701b366bfb908",
    }

    def test_json_bytes_pinned(self, tmp_path, capsys):
        # a K = 12 instance whose optimum is a pair, ahead of the next
        # candidate by about 3e-6, far beyond the oracle's tie tolerance
        arms = [{"x_mean": round(0.25 + 0.06 * k, 4),
                 "r_mean": round(0.1 + 0.9 * ((7 * k) % 12) / 11, 4),
                 "y_mean": round(0.05 + 0.9 * ((5 * k + 3) % 12) / 11, 4)}
                for k in range(12)]
        configs = {
            "demo": str(DEMO_CONFIG),
            "k12": write_config(tmp_path, instance={"arms": arms, "c": 0.7}),
        }
        for name, cfg in configs.items():
            assert main(["oracle", "--config", cfg, "--json"]) == 0
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == self.PINNED_JSON[name], name


class TestRunCommand:
    def test_single_cell_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budgets=[40], runs=1)
        out = tmp_path / "r.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == results_header(2)
        assert len(lines) == 2  # header + one data row
        assert len(lines[1].split(",")) == 11 + 2

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            policies=[
                {"name": "lyon", "type": "lyon"},
                {"name": "arm2", "type": "static:2"},
            ],
            runs=20,
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_bytes_are_pinned(self, tmp_path, capsys):
        # CSV bytes stay fixed for a given seed and version.  Every policy
        # type runs on the K=2 instance; at B=700 the episodes last about
        # 1,200-1,750 epochs, past the first 1,024-epoch stream block.
        cfg = write_config(
            tmp_path,
            policies=[
                {"name": "stat", "type": "stationary"},
                {"name": "arm2", "type": "static:2"},
                {"name": "off", "type": "lyoff"},
                {"name": "on", "type": "lyon"},
                {"name": "on-lit", "type": "lyon", "index_variant": "literal-paper",
                 "schedule": "sqrt-log"},
                {"name": "ucb", "type": "ucb_bwi"},
            ],
            budgets=[30, 700],
            runs=6,
            seed=4,
        )
        out = tmp_path / "golden.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3908c9a122687e56eeaa28ee506548bbfa1f52a576ef638eae3a61f5885a62dd"
        )

    def test_threads_option_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv"),
                     "--threads", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --threads" in err
        assert not (tmp_path / "t.csv").exists()

    def test_seed_override_changes_bytes(self, tmp_path):
        cfg = write_config(tmp_path, runs=20)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "999"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_negative_seed_override_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "n.csv"),
                     "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "n.csv").exists()

    def test_round_trip_preserves_numbers(self, tmp_path):
        cfg = write_config(
            tmp_path, policies=[{"name": "lyoff", "type": "lyoff"}], runs=30
        )
        out = tmp_path / "rt.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        float_cols = [i for i, name in enumerate(header.split(","))
                      if name not in ("policy", "runs", "cap_hits")]
        for row in rows:
            fields = row.split(",")
            for i in float_cols:
                assert format(float(fields[i]), ".9g") == fields[i]

    def test_json_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budgets=[40], runs=3)
        out = tmp_path / "j.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["r_star"] == pytest.approx(1.3)
        assert len(doc["cells"]) == 1
        assert len(doc["cells"][0]["alloc_pulls"]) == 2

    def test_static_arm_out_of_range(self, tmp_path, capsys):
        # the message names the 1-based k of the config, not the library index
        for k in (3, 0):
            cfg = write_config(tmp_path, policies=[{"name": "s", "type": f"static:{k}"}])
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert lines == [f"error: policies[0]: static arm {k} is out of range 1..2"]

    def test_slater_arm_needed_only_for_theoretical_exploration(self, tmp_path, capsys):
        # the one arm meets the constraint with equality: the oracle is
        # feasible, but no arm is strictly feasible
        instance = {"arms": [{"x_mean": 0.5, "r_mean": 0.5, "y_mean": 0.4}], "c": 0.8}
        lyon = {"name": "lyon", "type": "lyon"}
        out = str(tmp_path / "x.csv")
        cfg = write_config(tmp_path, instance=instance, policies=[lyon], budgets=[20])
        assert main(["run", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, instance=instance, budgets=[20],
                           policies=[{**lyon, "exploration": "theoretical"}])
        assert main(["run", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("infeasible: ")

    def test_theoretical_exploration_beyond_a_float_is_one_error_line(self, tmp_path, capsys):
        # mu_min^2 eps^2 underflows to zero: the count cannot be formed
        instance = {"arms": [{"x_mean": 1e-300, "r_mean": 0.5, "y_mean": 0.0},
                             {"x_mean": 0.5, "r_mean": 0.5, "y_mean": 0.0}], "c": 1e-10}
        lyon = {"name": "lyon", "type": "lyon", "delta0": 0, "exploration": "theoretical"}
        cfg = write_config(tmp_path, instance=instance, policies=[lyon], budgets=[20])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: theoretical exploration count")

    def test_delta_out_of_range_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            policies=[{"name": "lyon", "type": "lyon", "delta0": 50.0}],
            budgets=[40],
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_infeasible_last_cell_exits_2_before_simulating(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_streams(*args):
            pytest.fail("a stream was derived")
        monkeypatch.setattr(engine, "episode_rngs", no_streams)
        # delta = 3 / sqrt(10) reaches c = 0.8 only in the last cell
        policies = [{"name": "stat", "type": "stationary"},
                    {"name": "lyon", "type": "lyon"},
                    {"name": "tight", "type": "lyon", "delta0": 3.0}]
        cfg = write_config(tmp_path, policies=policies, budgets=[10])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("infeasible: ")

    @pytest.mark.parametrize("command, bad", [
        (["run"], ["--out", "{missing}"]),
        (["sweep"], ["--out", "{missing}"]),
        (["sweep"], ["--out", "{ok}", "--scaling-out", "{missing}"]),
    ], ids=["run-out", "sweep-out", "sweep-scaling-out"])
    def test_unwritable_output_fails_before_simulating(self, tmp_path, capsys,
                                                       monkeypatch, command, bad):
        def no_run(config):
            pytest.fail("run_batch was called")
        monkeypatch.setattr(cli, "run_batch", no_run)
        cfg = write_config(tmp_path, budgets=[40, 80, 160])
        paths = {"missing": str(tmp_path / "missing" / "x.csv"),
                 "ok": str(tmp_path / "ok.csv")}
        args = [a.format(**paths) for a in bad]
        assert main([*command, "--config", cfg, *args]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"io error: [Errno 2] No such file or directory: "
                         f"'{paths['missing']}'"]
        assert list(tmp_path.iterdir()) == [Path(cfg)]

    @pytest.mark.parametrize("command, args, flags", [
        (["run"], ["--out", "{cfg}"], "--config and --out"),
        (["sweep"], ["--out", "{cfg}"], "--config and --out"),
        (["sweep"], ["--out", "r.csv", "--scaling-out", "{cfg}"], "--config and --scaling-out"),
        (["sweep"], ["--out", "r.csv", "--scaling-out", "sub/../r.csv"],
         "--out and --scaling-out"),
    ], ids=["run-out", "sweep-out", "sweep-scaling-out", "out-is-scaling-out"])
    def test_output_naming_an_input_or_output_is_refused(self, tmp_path, capsys, monkeypatch,
                                                         command, args, flags):
        # both cases once exited 0: one replaced the config, the other the results
        def no_run(config):
            pytest.fail("run_batch was called")
        monkeypatch.setattr(cli, "run_batch", no_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        cfg = write_config(tmp_path, budgets=[40, 80, 160])
        before = Path(cfg).read_bytes()
        argv = [*command, "--config", cfg, *(a.format(cfg=cfg) for a in args)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flags} name the same file")
        assert Path(cfg).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]


class TestSweepCommand:
    def test_requires_three_budgets(self, tmp_path, capsys):
        cfg = write_config(tmp_path, budgets=[40, 80])
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "need >=3 budgets" in capsys.readouterr().err

    def test_emits_both_csvs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            policies=[{"name": "arm2", "type": "static:2"}],
            budgets=[40, 80, 160],
            runs=10,
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()
        scaling = tmp_path / "sweep_scaling.csv"
        lines = scaling.read_text().splitlines()
        assert lines[0] == "policy,B,mean_regret,regret_norm,violation_norm,loglog_slope"
        assert len(lines) == 4

    def test_special_policy_names_are_quoted(self, tmp_path, capsys):
        names = ["a,b", 'say "hi"', "two\nlines"]
        cfg = write_config(
            tmp_path,
            policies=[{"name": n, "type": "static:1"} for n in names],
            budgets=[20, 40, 80],
            runs=2,
        )
        out = tmp_path / "q.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == results_header(2).split(",")
        assert [len(row) for row in rows] == [11 + 2] * 9
        assert [row[0] for row in rows] == [n for n in names for _ in range(3)]
        with open(tmp_path / "q_scaling.csv", newline="", encoding="utf-8") as fh:
            scaling = list(csv.reader(fh))[1:]
        assert [row[0] for row in scaling] == [row[0] for row in rows]
        assert all(len(row) == 6 for row in scaling)


class TestSchemaValidation:
    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(Exception):
            load_config(str(path))
        assert main(["oracle", "--config", str(path)]) == 1

    def test_bad_policy_type(self, tmp_path):
        # the config parses policies eagerly, so a bad type fails every command
        cfg = write_config(tmp_path, policies=[{"name": "x", "type": "thompson"}])
        assert main(["oracle", "--config", cfg]) == 1
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_stationary_p(self, tmp_path):
        cfg = write_config(
            tmp_path, policies=[{"name": "s", "type": "stationary", "p": [0.5, 0.4]}]
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("p", [["0.5", "0.5"], [True, False]], ids=["str", "bool"])
    def test_stationary_p_entries_must_be_numbers(self, tmp_path, capsys, p):
        cfg = write_config(tmp_path, policies=[{"name": "s", "type": "stationary", "p": p}])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: policies[0]: probability must be a finite number")

    def test_ragged_stationary_p(self, tmp_path, capsys):
        cfg = write_config(tmp_path, policies=[{"name": "s", "type": "stationary",
                                                "p": [[0.5], 0.5]}])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: policies[0]: p must be a one-dimensional probability vector"]

    @pytest.mark.parametrize(
        "field", [{"v0": 0}, {"alpha": -1}, {"delta0": -1}, {"index_variant": "nope"}]
    )
    def test_bad_policy_parameter(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, policies=[{"name": "on", "type": "lyon", **field}])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_full_policy_fields_accepted(self, tmp_path):
        cfg = write_config(
            tmp_path,
            policies=[
                {
                    "name": "online",
                    "type": "lyon",
                    "v0": 2.0,
                    "delta0": 0.25,
                    "alpha": 3.0,
                    "index_variant": "literal-paper",
                    "exploration": "theoretical",
                    "schedule": "sqrt-log",
                },
                {"name": "explicit", "type": "stationary", "p": [0.25, 0.75]},
            ],
        )
        config = load_config(cfg)
        spec = config.policies[0]
        assert spec.v0 == 2.0 and spec.alpha == 3.0
        assert spec.index_variant == "literal-paper"
        assert spec.exploration == "theoretical"
        assert spec.schedule == "sqrt-log"
        assert config.policies[1].p == (0.25, 0.75)

    def test_usage_error_exits_1(self, capsys):
        assert main(["run"]) == 1  # --config and --out missing
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("path, where", [
        (("sed",), "config"),
        (("instance", "arm"), "instance"),
        (("instance", "arms", 1, "y_maen"), "instance.arms[1]"),
        (("policies", 2, "detla0"), "policies[2]"),
    ], ids=["top", "instance", "arm", "policy"])
    def test_unknown_key_is_one_error_line(self, tmp_path, capsys, path, where):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps(_with(path, 0.1)))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: unknown key {path[-1]!r} in {where}"]

    @pytest.mark.parametrize("key", ["policies", "budgets"])
    def test_policies_and_budgets_are_required(self, tmp_path, capsys, key):
        # a config without policies once ran and wrote header-only CSVs
        doc = copy.deepcopy(TINY_DOC)
        del doc[key]
        config = tmp_path / "partial.json"
        config.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: missing {key!r} in config"]

    @pytest.mark.parametrize("path, value, message", [
        (("policies",), [], "at least one policy is required"),
        (("budgets",), [5, 5.0, 10], "budgets must be distinct"),
    ], ids=["no-policy", "duplicate-budget"])
    def test_unreportable_grid_is_one_error_line(self, tmp_path, capsys, path, value,
                                                 message):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(_with(path, value)))
        out = tmp_path / "x.csv"
        for command in ("run", "sweep"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("doc", [[], "x", 3], ids=["list", "str", "int"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, doc):
        config = tmp_path / "top.json"
        config.write_text(json.dumps(doc))
        assert main(["oracle", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: config must be a JSON object"]

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr(cli, "run_batch", exhausted)
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: out of memory: Unable to allocate 7.28 TiB for an array"]


# a small valid document; every field the property test below breaks is set
TINY_DOC = {
    "instance": {
        "arms": [
            {"x_mean": 0.4, "r_mean": 0.8, "y_mean": 0.6},
            {"x_mean": 0.6, "r_mean": 0.6, "y_mean": 0.3,
             "kind": "independent-scaled-uniform"},
        ],
        "c": 0.8,
    },
    "policies": [
        {"name": "on", "type": "lyon", "v0": 1.0, "delta0": 0.5, "alpha": 2.0,
         "index_variant": "lcb-both", "exploration": 1, "schedule": "sqrt"},
        {"name": "mix", "type": "stationary", "p": [0.5, 0.5]},
        {"name": "arm2", "type": "static:2"},
    ],
    "budgets": [5, 10],
    "runs": 3,
    "seed": 7,
}


def _with(path, value):
    """A copy of TINY_DOC with the entry at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(TINY_DOC)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _with(("instance", "arms"), [1]),
        _with(("policies",), [3]),
        _with(("budgets",), [math.nan]),
        _with(("budgets",), [math.inf]),
        _with(("instance", "arms", 0, "x_mean"), 0),
        _with(("policies", 0, "v0"), [1]),
        _with(("policies", 0, "exploration"), True),
    ],
    ids=["arm-1", "policy-3", "budget-nan", "budget-inf", "x_mean-0", "v0-list",
         "exploration-bool"],
)
def test_malformed_config_one_error_line(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_tiny_doc_runs(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(TINY_DOC))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"],
                         ids=["nan", "inf", "-inf", "True", "str"])
@pytest.mark.parametrize(
    "path, name",
    [(("instance", "c"), "instance.c"), (("budgets", 1), "budgets"),
     (("instance", "arms", 0, "x_mean"), "x_mean")],
    ids=["c", "budget", "x_mean"],
)
def test_real_field_error_names_the_field(tmp_path, capsys, path, name, bad):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(_with(path, bad)))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"{name} must be a finite number in " in lines[0]


@pytest.mark.parametrize(
    "path, value, words",
    [
        # V = v0 sqrt(B) overflows to inf when the lyon cell builds its rule
        (("policies", 0, "v0"), 1e308, "v must be a finite number"),
        # the default epoch cap 10 ceil(2 B / mu_min) has no finite value
        (("instance", "arms", 0, "x_mean"), 1e-320, "2 B / mu_min overflows"),
        # V and alpha are finite, but the extreme terms of the online index
        # (one pull at the cost floor 1/B with reward and penalty means of 1)
        # are not: 2 alpha overflows, and at B = 10 C = V w (1 + B) = 7e308
        (("policies", 0, "alpha"), 1e308, "overflow the online index"),
        (("policies", 0, "v0"), 1e306, "overflow the online index"),
        (("policies", 0), {"type": "ucb_bwi", "alpha": 1e308}, "overflow the online index"),
        # -V E[R] / E[X] = -1.6e308 * 2 for the first arm at B = 10
        (("policies", 0), {"type": "lyoff", "v0": 5e307}, "overflows the offline scores"),
    ],
    ids=["v0-1e308", "x_mean-1e-320", "alpha-1e308", "v0-1e306", "ucb_bwi-alpha-1e308",
         "lyoff-v0-5e307"],
)
def test_library_refusal_is_one_error_line(tmp_path, capsys, path, value, words):
    config = tmp_path / "big.json"
    config.write_text(json.dumps(_with(path, value)))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and words in lines[0]
    assert not out.exists()


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_LISTS = st.lists(st.integers(), max_size=2)
_NON_TEXT = st.one_of(
    st.none(), st.booleans(), _LISTS,
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_NON_NUMBER = st.one_of(_NON_TEXT, st.text(max_size=4))
_NON_INT = st.one_of(_NON_NUMBER, _NON_FINITE, st.floats(allow_nan=False))


def _number_outside(lo=None, hi=None, lo_open=False):
    """Wrong-typed, non-finite, or finite values outside [lo, hi] ((lo, hi])."""
    parts = [_NON_NUMBER, _NON_FINITE]
    if lo is not None:
        parts.append(st.floats(max_value=lo, exclude_max=not lo_open, allow_infinity=False))
    if hi is not None:
        parts.append(st.floats(min_value=hi, exclude_min=True, allow_infinity=False))
    return st.one_of(parts)


def _word_other_than(*valid):
    return st.one_of(
        _NON_TEXT,
        st.text(max_size=12).filter(lambda v: v not in valid),
    )


_ARM = ("instance", "arms", 0)
_LYON = ("policies", 0)
_BROKEN_FIELDS = [
    (("instance",), st.one_of(st.none(), st.booleans(), st.text(max_size=4), _LISTS)),
    (("instance", "arms"), _NON_NUMBER),
    (("instance", "arms", 1), st.one_of(_NON_NUMBER, st.integers())),
    (("instance", "c"), _number_outside(0.0, 1.0, lo_open=True)),
    ((*_ARM, "x_mean"), _number_outside(0.0, 1.0, lo_open=True)),
    ((*_ARM, "r_mean"), _number_outside(0.0, 1.0)),
    ((*_ARM, "y_mean"), _number_outside(0.0, 1.0)),
    ((*_ARM, "kind"), _word_other_than("independent-bernoulli",
                                       "independent-scaled-uniform")),
    (("policies",), st.one_of(st.none(), st.integers(), st.text(max_size=4), st.just([]))),
    (("policies", 1), st.one_of(_NON_NUMBER, st.integers())),
    ((*_LYON, "name"), st.one_of(_NON_TEXT, st.integers(), st.floats())),
    ((*_LYON, "type"), _word_other_than("stationary", "lyoff", "lyon", "ucb_bwi")
     .filter(lambda v: not (isinstance(v, str) and v.startswith("static:")))),
    ((*_LYON, "v0"), _number_outside(0.0, lo_open=True)),
    ((*_LYON, "delta0"), _number_outside(0.0)),
    ((*_LYON, "alpha"), _number_outside(0.0, lo_open=True)),
    ((*_LYON, "index_variant"), _word_other_than("lcb-both", "literal-paper")),
    ((*_LYON, "schedule"), _word_other_than("sqrt", "sqrt-log")),
    ((*_LYON, "exploration"), st.one_of(
        _NON_INT.filter(lambda v: v != "theoretical"), st.integers(max_value=0))),
    (("policies", 1, "p"), st.one_of(
        _NON_FINITE, st.text(min_size=1, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
        .filter(lambda p: abs(sum(p) - 1.0) > 1e-6),
        st.lists(st.floats(0.0, 1.0), max_size=3).filter(lambda p: len(p) != 2))),
    # int() reads the last five as arms 10, 1, 2, 1 and 1
    (("policies", 2, "type"), st.sampled_from(["static:0", "static:3", "static:x", "static:1_0",
                                               "static:0_1", "static: 2", "static:+1",
                                               "static:\u0661"])),
    (("budgets",), st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.just([]))),
    (("budgets", 0), _number_outside(1.0, lo_open=True)),
    # TINY_DOC's budgets are [5, 10]
    (("budgets", 1), st.sampled_from([5, 5.0])),
    (("runs",), st.one_of(_NON_INT, st.integers(max_value=0))),
    (("seed",), st.one_of(_NON_INT, st.integers(max_value=-1))),
    # an unknown key at each level of the document, whatever its value
    *(((*where, key), st.one_of(_NON_NUMBER, st.floats()))
      for where, key in (((), "sed"), (("instance",), "arm"), (_ARM, "y_maen"),
                         (_LYON, "detla0"))),
]


@st.composite
def _broken_docs(draw):
    path, values = draw(st.sampled_from(_BROKEN_FIELDS))
    return _with(path, draw(values))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_broken_docs())
def test_any_single_broken_field_is_one_error_line(tmp_path, capsys, doc):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error:")


# whole configs: every field drawn at once, means at the edges of their ranges.
# A cost mean is 0 (refused) or at least 0.1: the expected episode length is
# B / E[X], and no bound on the work of a run is enforced yet
_MEAN = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_COST_MEAN = st.one_of(st.floats(0.1, 1.0), st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.0]))
# v0 and alpha reach past where the online index or the offline scores overflow
_POSITIVE = st.one_of(st.sampled_from([1e-3, 1.0, 1e306, 1e307, 1e308]), st.floats(1e-3, 10.0),
                      st.floats(1e-3, 1e308))


@st.composite
def _whole_docs(draw):
    n_arms = draw(st.integers(1, 5))
    arms = [{"x_mean": draw(_COST_MEAN), "r_mean": draw(_MEAN), "y_mean": draw(_MEAN),
             "kind": draw(st.sampled_from(["independent-bernoulli",
                                           "independent-scaled-uniform"]))}
            for _ in range(n_arms)]
    policies = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["stationary", "static", "lyoff", "lyon", "ucb_bwi"]))
        doc = {"type": f"static:{draw(st.integers(1, n_arms))}" if kind == "static" else kind}
        # a missing name defaults to the type, which two policies may share
        if draw(st.booleans()):
            doc["name"] = f"p{i}"
        if kind == "stationary" and draw(st.booleans()):
            weights = draw(st.lists(st.integers(0, 3), min_size=n_arms, max_size=n_arms))
            doc["p"] = [w / sum(weights) for w in weights] if sum(weights) else weights
        if kind in ("lyoff", "lyon", "ucb_bwi"):
            doc["v0"] = draw(_POSITIVE)
        if kind in ("lyoff", "lyon"):
            doc["delta0"] = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
        if kind in ("lyon", "ucb_bwi"):
            doc["alpha"] = draw(_POSITIVE)
            doc["exploration"] = draw(st.one_of(st.integers(1, 3), st.just("theoretical")))
        if kind == "lyon":
            doc["index_variant"] = draw(st.sampled_from(["lcb-both", "literal-paper"]))
            doc["schedule"] = draw(st.sampled_from(["sqrt", "sqrt-log"]))
        policies.append(doc)
    budget = st.one_of(st.integers(2, 50), st.floats(1.0, 50.0))
    return {
        "instance": {"arms": arms, "c": draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))},
        "policies": policies,
        "budgets": draw(st.lists(budget, min_size=1, max_size=3)),
        "runs": draw(st.integers(1, 20)),
        "seed": draw(st.integers(0, 2**32)),
    }


def _check_rows(text, doc):
    """One well-formed results row per (policy, budget) cell, in grid order."""
    n_arms = len(doc["instance"]["arms"])
    header, *rows = list(csv.reader(text.splitlines()))
    assert header == results_header(n_arms).split(",")
    names = [p.get("name", p["type"]) for p in doc["policies"]]
    cells = [(name, budget) for name in names for budget in doc["budgets"]]
    assert len(rows) == len(cells)
    for row, (name, budget) in zip(rows, cells):
        assert len(row) == len(header) and row[0] == name
        assert float(row[1]) == pytest.approx(budget, rel=1e-8)
        assert int(row[2]) == doc["runs"] and 0 <= int(row[10]) <= doc["runs"]
        assert all(math.isfinite(float(v)) for v in row[3:])
        alloc = [float(v) for v in row[11:]]
        assert all(0.0 <= a <= 1.0 for a in alloc)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_whole_docs())
def test_any_whole_config_runs_or_is_one_error_line(tmp_path, capsys, doc):
    path, out = tmp_path / "whole.json", tmp_path / "whole.csv"
    out.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err == []
        _check_rows(out.read_text(encoding="utf-8"), doc)
    else:
        assert code in (1, 2) and len(err) == 1, (code, err)
        assert not out.exists()
