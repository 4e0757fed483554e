from __future__ import annotations

import copy
import csv
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lybandit.cli import load_config, main, results_header

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

    def test_delta_out_of_range_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            policies=[{"name": "lyon", "type": "lyon", "delta0": 50.0}],
            budgets=[40],
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


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
    (("policies",), st.one_of(st.none(), st.integers(), st.text(max_size=4))),
    (("policies", 1), st.one_of(_NON_NUMBER, st.integers())),
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
    (("policies", 2, "type"), st.sampled_from(["static:0", "static:3", "static:x"])),
    (("budgets",), st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.just([]))),
    (("budgets", 0), _number_outside(1.0, lo_open=True)),
    (("runs",), st.one_of(_NON_INT, st.integers(max_value=0))),
    (("seed",), st.one_of(_NON_INT, st.integers(max_value=-1))),
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
