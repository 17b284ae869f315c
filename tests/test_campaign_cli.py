import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plwe_audit import cli
from plwe_audit.analysis import scan_instance
from plwe_audit.campaign import (
    FAMILIES,
    MODES,
    ConfigError,
    PreconditionRefused,
    build_plan,
    config_from_dict,
    run_campaign,
)
from plwe_audit.instances import (
    TRACE_INSTANCE_B,
    TRACE_RING_A,
    USVA_INSTANCES,
)
from plwe_audit.rings import load_ring_doc

ORDER6_INSTANCE = {"N": 6, "f": [-1, 0, 0, 0, 0, 0, 1], "q": 4099,
                   "sigma": 0.7, "truncated": True}


def _order6_config(trials=6, M=6, seed=11):
    return {
        "instance": dict(ORDER6_INSTANCE),
        "attack": {"family": "small_set", "mode": "fq", "alpha": 2018,
                   "M": M, "trials": trials},
        "seed": seed,
    }


class TestConfigValidation:
    def test_missing_field_is_named(self):
        with pytest.raises(ConfigError, match="attack.family"):
            config_from_dict({"instance": dict(ORDER6_INSTANCE), "attack": {}})

    def test_unknown_family(self):
        doc = _order6_config()
        doc["attack"]["family"] = "sidechannel"
        with pytest.raises(ConfigError, match="family"):
            config_from_dict(doc)

    def test_chunk_size_bound(self):
        doc = _order6_config()
        doc["attack"].update(family="extended_small_set", M0=10, M=6)
        with pytest.raises(ConfigError, match="M0"):
            config_from_dict(doc)

    def test_trace_requires_divisor_data(self):
        doc = _order6_config()
        doc["attack"]["mode"] = "trace"
        with pytest.raises(ConfigError, match="attack.n"):
            config_from_dict(doc)

    def test_seed_range(self):
        doc = _order6_config()
        doc["seed"] = 2**64
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(doc)

    def test_alpha_must_be_root(self):
        doc = _order6_config()
        doc["attack"]["alpha"] = 5
        with pytest.raises(ConfigError, match="not a root"):
            build_plan(config_from_dict(doc))

    def test_trace_divisor_must_divide(self):
        doc = {
            "instance": dict(TRACE_INSTANCE_B["instance"]),
            "attack": {"family": "small_set", "mode": "trace",
                       "n": 3, "a": 2018, "M": 5, "trials": 1},
            "seed": 1,
        }
        with pytest.raises(ConfigError, match="does not divide"):
            build_plan(config_from_dict(doc))

    @pytest.mark.parametrize(
        "field,value", [("alpha", "x"), ("M", "five"), ("trials", None)]
    )
    def test_malformed_integer_is_named(self, field, value):
        doc = _order6_config()
        doc["attack"][field] = value
        with pytest.raises(ConfigError, match=f"attack.{field}"):
            config_from_dict(doc)

    def test_table_cap_is_a_refusal(self):
        doc = _order6_config()
        doc["table_cap"] = 10  # the order-6 table enumerates 3^6 tuples
        with pytest.raises(PreconditionRefused, match="exceeds the cap of 10"):
            build_plan(config_from_dict(doc))

    def test_root_zero_table_matches_scan(self):
        # e(0) is the constant error coefficient alone: one block of length 1
        inst = {"N": 6, "f": [0, 1, 0, 0, 0, 0, 1], "q": 4099,
                "sigma": 0.7, "truncated": True}
        plan = build_plan(config_from_dict({
            "instance": inst,
            "attack": {"family": "small_set", "mode": "fq", "alpha": 0, "M": 4},
        }))
        root = scan_instance(load_ring_doc(inst), 0.7, True).roots[0]
        assert root.alpha == 0
        flag = next(f for f in root.flags if f.attack == "small_set")
        assert plan.table.size == flag.details["tuple_count"] == 3


class TestCampaignRuns:
    def test_truncated_small_set_is_perfect_on_plwe(self):
        report = run_campaign(config_from_dict(_order6_config(trials=40)))
        assert report.rate("plwe") == 1.0
        assert report.rate("uniform") == 1.0
        for row in report.trials:
            if row["truth"] == "plwe":
                assert row["true_value_survives"]

    def test_digest_is_deterministic(self):
        a = run_campaign(config_from_dict(_order6_config()))
        b = run_campaign(config_from_dict(_order6_config()))
        assert a.digest_json() == b.digest_json()

    def test_seed_changes_trials(self):
        a = run_campaign(config_from_dict(_order6_config(seed=11)))
        b = run_campaign(config_from_dict(_order6_config(seed=12)))
        assert a.digest_json() != b.digest_json()

    def test_thread_pool_matches_sequential(self):
        a = run_campaign(config_from_dict(_order6_config()), threads=1)
        b = run_campaign(config_from_dict(_order6_config()), threads=2)
        assert a.digest_json() == b.digest_json()

    def test_trace_campaign_reports_gate(self):
        doc = {
            "instance": dict(TRACE_INSTANCE_B["instance"]),
            "attack": {"family": "extended_small_set", "mode": "trace",
                       "n": 3, "a": 2017, "M": 60, "M0": 10, "trials": 6},
            "seed": 5,
        }
        report = run_campaign(config_from_dict(doc))
        gate = report.plan_summary["extended_gate"]
        assert not gate["satisfied"]
        assert gate["lhs"] > gate["rhs"]
        assert report.plan_summary["sigma_table_size"] == 631

    def test_honest_sampling_accounting(self):
        # membership probability is 1/q, so the per-sample invocation count
        # should average q = 7
        doc = {
            "instance": {"N": 2, "f": [-3, 0, 1], "q": 7,
                         "sigma": 0.7, "truncated": True},
            "attack": {"family": "small_values", "mode": "trace",
                       "n": 2, "a": 3, "M": 3, "trials": 500},
            "sampling": {"honest": True},
            "seed": 9,
        }
        report = run_campaign(config_from_dict(doc))
        total = sum(t["oracle_invocations"] for t in report.trials)
        per_sample = total / (500 * 3)
        assert abs(per_sample - 7) <= 0.7

    def test_budget_exhaustion_is_a_trial_failure(self):
        doc = {
            "instance": {"N": 2, "f": [-3, 0, 1], "q": 7,
                         "sigma": 0.7, "truncated": True},
            "attack": {"family": "small_values", "mode": "trace",
                       "n": 2, "a": 3, "M": 3, "trials": 10},
            "sampling": {"honest": True},
            "rq0_budget": 2,
            "seed": 9,
        }
        report = run_campaign(config_from_dict(doc))
        assert len(report.trials) == 10
        assert any("error" in t for t in report.trials)

    def test_refusal_small_values_wide_image(self):
        doc = {
            "instance": dict(USVA_INSTANCES[2]["instance"]),
            "attack": {"family": "small_values", "mode": "fq",
                       "alpha": 698, "M": 10, "trials": 2},
            "seed": 3,
        }
        with pytest.raises(PreconditionRefused, match="2\\*sigma_bar"):
            run_campaign(config_from_dict(doc))


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_scan_rejects_composite_modulus(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.json", {
            "instance": {"N": 2, "f": [1, 0, 1], "q": 15,
                         "sigma": 1.0, "truncated": True}})
        assert cli.main(["scan", "--config", cfg]) == 2
        assert "prime" in capsys.readouterr().err

    def test_scan_names_the_cubic_divisor(self, tmp_path, capsys):
        cfg = _write(tmp_path, "a.json", {
            "instance": {**TRACE_RING_A, "sigma": 0.7, "truncated": False}})
        assert cli.main(["scan", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = next(f for f in doc["binomial_factors"]
                     if f["n"] == 3 and f["a"] == 2018)
        assert entry["order"] == 6
        flag = next(f for f in entry["attacks"] if f["attack"] == "small_set")
        assert flag["applicable"]

    def test_scan_empty_report_is_success(self, tmp_path, capsys):
        cfg = _write(tmp_path, "e.json", {
            "instance": {"N": 5, "f": [1, 4, 0, 0, 0, 1], "q": 7,
                         "sigma": 1.0, "truncated": True}})
        assert cli.main(["scan", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fq_roots"] == [] and doc["binomial_factors"] == []

    def test_attack_writes_report(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=4))
        out = tmp_path / "report.json"
        assert cli.main(["attack", "--config", cfg, "--output", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["aggregate"]["trials"] == 4

    def test_attack_trials_override(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=4))
        assert cli.main(["attack", "--config", cfg, "--trials", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregate"]["trials"] == 2

    def test_attack_refusal_exit_code(self, tmp_path, capsys):
        cfg = _write(tmp_path, "r.json", {
            "instance": dict(USVA_INSTANCES[2]["instance"]),
            "attack": {"family": "small_values", "mode": "fq",
                       "alpha": 698, "M": 10, "trials": 2},
            "seed": 3,
        })
        assert cli.main(["attack", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "refused" in err and "2*sigma_bar" in err and "q/4" in err

    def test_attack_refuses_modulus_above_int64_range(self, tmp_path, capsys):
        cfg = _write(tmp_path, "big.json", {
            "instance": {"N": 2, "f": [14, -9, 1], "q": 4194319,
                         "sigma": 1.0, "truncated": True},
            "attack": {"family": "small_set", "mode": "fq", "alpha": 2,
                       "M": 2, "trials": 1},
        })
        assert cli.main(["attack", "--config", cfg]) == 3
        assert "q = 4194319 < 2**22 = 4194304" in capsys.readouterr().err

    def test_replay_reproduces_recorded_verdict(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=1, M=6))
        samples = tmp_path / "samples.jsonl"
        assert cli.main(["attack", "--config", cfg,
                         "--record-samples", str(samples)]) == 0
        report = json.loads(capsys.readouterr().out)
        recorded = report["trials"][0]["outcome"]
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed == recorded

    def test_replay_rejects_malformed_line(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=1))
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"a": [0,0,0,0,0,0], "b": [0,0,0,0,0,0]}\nnot json\n')
        assert cli.main(["replay", "--config", cfg, str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_replay_rejects_empty_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=1))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["replay", "--config", cfg, str(empty)]) == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("idx,listed", [(2, 0.00017), (3, 0.0001216)])
    def test_analyze_echoes_flat_margins(self, tmp_path, capsys, idx, listed):
        inst = USVA_INSTANCES[idx]
        cfg = _write(tmp_path, "an.json", {
            "instance": dict(inst["instance"]),
            "attack": {"alpha": inst["alpha"]},
        })
        assert cli.main(["analyze", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["big_delta"] == pytest.approx(listed, abs=2e-5)

    def test_analyze_warns_when_bounded_attack_applies(self, tmp_path, capsys):
        inst = USVA_INSTANCES[1]  # q = 3677, root -1: narrow error image
        cfg = _write(tmp_path, "an.json", {
            "instance": dict(inst["instance"]),
            "attack": {"alpha": inst["alpha"]},
        })
        assert cli.main(["analyze", "--config", cfg, "--mc-check"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ratio"] > 4 * 2**0.5
        assert any("bounded" in w for w in doc["warnings"])

    def test_analyze_min_m_brackets_published_counts(self, tmp_path, capsys):
        cfg = _write(tmp_path, "an.json", {
            "instance": dict(TRACE_INSTANCE_B["instance"]),
            "attack": {"n": 3, "a": 2017},
        })
        assert cli.main(["analyze", "--config", cfg, "--min-M", "0.99"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 350 < doc["min_M"]["small_set"] <= 500

    def test_analyze_emits_f_of_r_csv(self, tmp_path, capsys):
        inst = USVA_INSTANCES[1]
        cfg = _write(tmp_path, "an.json", {
            "instance": dict(inst["instance"]),
            "attack": {"alpha": inst["alpha"]},
        })
        csv_path = tmp_path / "grid.csv"
        assert cli.main(["analyze", "--config", cfg,
                         "--f-of-r-csv", str(csv_path)]) == 0
        capsys.readouterr()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "ratio,f"
        assert len(lines) == 1001

    def test_csv_report_format(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=2))
        out = tmp_path / "report.csv"
        code = cli.main(["attack", "--config", cfg, "--output", str(out),
                         "--format", "csv"])
        capsys.readouterr()
        assert code == 0
        assert out.read_text().startswith("key,value")


class TestExtendedSuccessProperty:
    def test_truncated_voting_beats_coin_when_gate_holds(self):
        # truncated p0 = 1 satisfies the recorded gate inequality for any
        # chunk size; the vote then demands every chunk, which genuine input
        # always delivers and uniform input fails with positive probability
        doc = _order6_config(trials=200, M=20)
        doc["attack"].update(family="extended_small_set", M0=2)
        report = run_campaign(config_from_dict(doc))
        assert report.plan_summary["extended_gate"]["satisfied"]
        assert report.rate("plwe") == 1.0
        assert report.accuracy > 0.5

    def test_basic_trace_votes_at_m350_back_plwe(self):
        # single-shot runs at M = 350 on untruncated input vote so rarely that
        # the conditional "truth is genuine given a vote" is usually vacuous;
        # when votes do occur they must favour genuine input 0.61 or better
        doc = {
            "instance": dict(TRACE_INSTANCE_B["instance"]),
            "attack": {"family": "small_set", "mode": "trace",
                       "n": 3, "a": 2017, "M": 350, "trials": 200},
            "seed": 61,
        }
        report = run_campaign(config_from_dict(doc))
        votes = [t for t in report.trials
                 if t["outcome"]["verdict"] != "not_plwe"]
        if votes:
            genuine = sum(1 for t in votes if t["truth"] == "plwe")
            assert genuine / len(votes) >= 0.61


# f = (x - 1)(x^2 - 3) over F_7: the root 1 and the irreducible divisor x^2 - 3
MIXED_Q7 = {"N": 3, "f": [3, -3, -1, 1], "q": 7, "sigma": 0.7, "truncated": True}
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "x", "five", "1.5", "3", [1], {}]),
    st.floats(-10, 10),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def _attack_sections(draw):
    """A well-formed attack section with up to two fields dropped or
    replaced by junk."""
    attack = {
        "family": draw(st.sampled_from(FAMILIES)),
        "mode": draw(st.sampled_from(MODES)),
        "alpha": draw(st.integers(-8, 8)),
        "n": draw(st.integers(0, 4)),
        "a": draw(st.integers(-8, 8)),
        "M": draw(st.integers(-1, 6)),
        "M0": draw(st.integers(-1, 6)),
        "ell": draw(st.integers(-1, 6)),
        "delta": draw(
            st.one_of(st.none(), st.sampled_from(["series", "mc"]), st.floats(-1, 1))
        ),
        "trials": draw(st.integers(-1, 2)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(attack)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del attack[key]
        else:
            attack[key] = draw(_JUNK)
    return attack


@given(attack=_attack_sections())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_attack_section_exits_cleanly(tmp_path, attack):
    cfg = _write(tmp_path, "fuzz.json", {"instance": MIXED_Q7, "attack": attack, "seed": 1})
    assert cli.main(["attack", "--config", cfg]) in (0, 2, 3)
