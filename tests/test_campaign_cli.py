import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plwe_audit import campaign, cli, fields, instances, rings
from plwe_audit.analysis import posterior_bounds, scan_instance
from plwe_audit.campaign import (
    FAMILIES,
    ConfigError,
    PreconditionRefused,
    build_plan,
    check_draws,
    config_from_dict,
    run_campaign,
)
from plwe_audit.instances import (
    CRYPTO_RINGS,
    REJECTION_REPLICA,
    TRACE_INSTANCE_A,
    TRACE_INSTANCE_B,
    TRACE_RING_A,
    USVA_INSTANCES,
)
from plwe_audit.fields import ExtFieldCtx, PrimeModulus
from plwe_audit.rings import RqContext, load_ring_doc
from plwe_audit.samplers import BudgetExhausted, GaussianSpec, SampleBatch, sample_batch
from reference import reference_sample_batch, reference_samples, ring_add, ring_mul

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
        # n without a is no divisor, and a trace mode does not make it one
        doc = _order6_config()
        doc["attack"].update(mode="trace", n=3)
        att = config_from_dict(doc).attack
        assert (att.n, att.a) == (1, 2018)
        del doc["attack"]["alpha"]
        with pytest.raises(ConfigError, match=r"attack.alpha \(or attack.n/attack.a\): required"):
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
        "field,value",
        [("alpha", "x"), ("M", "five"), ("M", 2.7), ("trials", None), ("trials", True),
         ("M", "5"), ("M", 0)],
    )
    def test_malformed_integer_is_named(self, field, value):
        doc = _order6_config()
        doc["attack"][field] = value
        with pytest.raises(ConfigError, match=f"attack.{field}"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "family,field,message",
        [("extended_small_set", "M0", "attack.M0: must be >= 1 for extended families"),
         ("extended_small_values", "M0", "attack.M0: must be >= 1 for extended families"),
         ("unbounded_small_values", "ell", "attack.ell: must be >= 1 for the unbounded family")],
    )
    @pytest.mark.parametrize("value", [0, -2])
    def test_family_count_below_one_is_malformed(self, family, field, message, value):
        doc = _order6_config()
        doc["attack"].update({"family": family, "M0": 2, "ell": 6, field: value})
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("delta", [0.7, -0.6, math.nan, math.inf])
    def test_delta_outside_half_interval_is_malformed(self, delta):
        # delta = P(error image in quarter interval) - 1/2
        doc = {
            "instance": dict(USVA_INSTANCES[1]["instance"]),
            "attack": {"family": "unbounded_small_values", "mode": "fq",
                       "alpha": USVA_INSTANCES[1]["alpha"], "ell": 5, "delta": delta},
        }
        with pytest.raises(ConfigError, match="attack.delta"):
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
        assert np.count_nonzero(plan.member) == flag.details["tuple_count"] == 3


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

    def test_trace_campaign_reports_sigma_table_size(self):
        doc = {
            "instance": dict(TRACE_INSTANCE_B["instance"]),
            "attack": {"family": "extended_small_set", "mode": "trace",
                       "n": 3, "a": 2017, "M": 60, "M0": 10, "trials": 6},
            "seed": 5,
        }
        report = run_campaign(config_from_dict(doc))
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

    def test_exhausted_rows_report_the_calls_spent(self):
        # an exhausted row counts its completed rounds' calls plus the
        # budget of the round that gave up, as the per-sample reference does
        doc = {
            "instance": {"N": 2, "f": [-3, 0, 1], "q": 7, "sigma": 0.7, "truncated": True},
            "attack": {"family": "small_values", "n": 2, "a": 3, "M": 3, "trials": 40},
            "sampling": {"honest": True},
            "rq0_budget": 4,
            "seed": 9,
        }
        cfg = config_from_dict(doc)
        report = run_campaign(cfg)
        for row in report.trials:
            rng = np.random.default_rng([9, row["trial"]])
            secret = rng.integers(0, 7, size=2) if rng.integers(0, 2) else None
            try:
                count = reference_samples(cfg.ring, cfg.gauss, ExtFieldCtx(2, 3, PrimeModulus(7)),
                                          3, rng, secret, True, 4)[1]
            except BudgetExhausted as exc:
                count = exc.invocations
                assert row["error"] == str(exc)
            assert row["oracle_invocations"] == count
        spent = {t["trial"]: t["oracle_invocations"] for t in report.trials if "error" in t}
        assert (spent[1], spent[20], spent[38]) == (8, 8, 7)

    def test_pool_has_no_more_workers_than_trials(self, tmp_path, monkeypatch):
        # trial i runs in process i mod min(threads, trials): here for
        # i mod workers == 0, else in child i mod workers, started in order
        started, run_trial = [], campaign.run_trial

        class Counted(multiprocessing.Process):
            def start(self):
                super().start()
                started.append(self.pid)

        def noted(plan, index, samples=None):
            (tmp_path / str(index)).write_text(str(os.getpid()))
            return run_trial(plan, index, samples)

        monkeypatch.setattr(multiprocessing, "Process", Counted)
        monkeypatch.setattr(campaign, "run_trial", noted)
        for trials, threads in [(2, 64), (1, 64), (5, 3), (4, 1)]:
            started.clear()
            doc = _order6_config(trials=trials)
            report = run_campaign(config_from_dict(doc), threads=threads)
            workers = min(threads, trials)
            assert len(started) == workers - 1
            where = [os.getpid()] + started
            pids = [int((tmp_path / str(i)).read_text()) for i in range(trials)]
            assert pids == [where[i % workers] for i in range(trials)]
            monkeypatch.setattr(campaign, "run_trial", run_trial)
            assert report.digest_json() == run_campaign(config_from_dict(doc)).digest_json()
            monkeypatch.setattr(campaign, "run_trial", noted)

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="binds shares only where the process may use two CPUs")
    def test_each_share_runs_on_its_own_cpu(self, tmp_path, monkeypatch):
        # share k on the (k mod c)-th allowed CPU; this process gets its
        # own CPU set back once its share is done
        run_trial, before = campaign.run_trial, os.sched_getaffinity(0)
        cpus = sorted(before)

        def noted(plan, index, samples=None):
            (tmp_path / str(index)).write_text(json.dumps(sorted(os.sched_getaffinity(0))))
            return run_trial(plan, index, samples)

        monkeypatch.setattr(campaign, "run_trial", noted)
        for trials, threads in [(6, 3), (4, 1)]:
            doc = _order6_config(trials=trials)
            report = run_campaign(config_from_dict(doc), threads=threads)
            workers = min(threads, trials)
            bound = [json.loads((tmp_path / str(i)).read_text()) for i in range(trials)]
            want = [[cpus[i % workers % len(cpus)]] if workers > 1 else cpus for i in range(trials)]
            assert bound == want
            assert os.sched_getaffinity(0) == before
            assert report.digest_json() == run_campaign(config_from_dict(doc)).digest_json()

    def test_a_refused_binding_leaves_the_shares_unbound(self, monkeypatch):
        def refuse(pid, cpus):
            raise OSError("binding refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        doc = _order6_config(trials=4)
        sequential = run_campaign(config_from_dict(doc)).digest_json()
        assert run_campaign(config_from_dict(doc), threads=2).digest_json() == sequential

    def test_reports_are_strict_json(self):
        # 7 has order 2048 mod 12289, so its table sums N = 1024 classes of
        # bound 0: the analytic Sigma bound 2.6^1024 overflows a float and
        # the predicted posterior is -inf; the plan writes null
        report = run_campaign(config_from_dict({
            "instance": {**CRYPTO_RINGS["falcon1024"], "sigma": 0.4, "truncated": True},
            "attack": {"family": "small_set", "mode": "fq", "alpha": 7, "M": 5, "trials": 2},
            "seed": 1}))
        plan = json.loads(report.to_json())["plan"]
        assert plan["sigma_table_analytic_bound"] is None
        assert plan["predicted_bounds"]["vote_posterior"] is None
        report.trials[0]["leak"] = math.inf
        for serialise in (report.to_json, report.digest_json):
            with pytest.raises(ValueError, match="not JSON compliant"):
                serialise()

    def test_refusal_small_values_wide_image(self):
        doc = {
            "instance": dict(USVA_INSTANCES[2]["instance"]),
            "attack": {"family": "small_values", "mode": "fq",
                       "alpha": 698, "M": 10, "trials": 2},
            "seed": 3,
        }
        with pytest.raises(PreconditionRefused, match="2\\*sigma_bar"):
            run_campaign(config_from_dict(doc))


Q7_PAIR = {"N": 2, "f": [-3, 0, 1], "q": 7, "sigma": 0.7, "truncated": True}
USVA_ROOT = USVA_INSTANCES[1]

# Small campaigns covering roots and divisors, direct and honest sampling, all five
# families and truncated and untruncated errors, with the sha256 of their
# digest_json(): a change in how trials consume their random streams shows
# here.  The values come from the per-sample reference path
# (reference.reference_sample_batch) feeding the attacks; the two fq direct
# entries have outcomes that no stream order can move.
GOLDEN = {
    "fq_small_set_direct_truncated": (
        {
            "instance": ORDER6_INSTANCE,
            "attack": {"family": "small_set", "mode": "fq", "alpha": 2018,
                       "M": 6, "trials": 6},
            "seed": 11,
        },
        "a0e97d7b194f6d1f69696fcfea1d1de03b4a9c38797fe81b5ff56dc677d91e72",
    ),
    "fq_small_values_honest": (
        {
            "instance": USVA_ROOT["instance"],
            "attack": {"family": "small_values", "mode": "fq",
                       "alpha": USVA_ROOT["alpha"], "M": 8, "trials": 4},
            "sampling": {"honest": True},
            "seed": 17,
        },
        "772267e44b126673e005e760b0fa8ac61f62e4c78ef37c846df82d7088234d58",
    ),
    "fq_unbounded_mc_direct": (
        {
            "instance": USVA_ROOT["instance"],
            "attack": {"family": "unbounded_small_values", "mode": "fq",
                       "alpha": USVA_ROOT["alpha"], "ell": 10, "delta": "mc",
                       "trials": 4},
            "seed": 13,
        },
        "eefa8e25f23c8c66ade6cc6c0c9cfbc5b76480fb8f19d92153c7beb5c8f16887",
    ),
    "trace_extended_small_set_direct": (
        {
            "instance": TRACE_INSTANCE_B["instance"],
            "attack": {"family": "extended_small_set", "mode": "trace",
                       "n": 3, "a": 2017, "M": 60, "M0": 10, "trials": 4},
            "seed": 14,
        },
        "0c03dcac6a6cf34ff3dc080191aa13aa2412f051f3733efac2dbc289f88f0128",
    ),
    "trace_extended_small_values_honest": (
        {
            "instance": Q7_PAIR,
            "attack": {"family": "extended_small_values", "mode": "trace",
                       "n": 2, "a": 3, "M": 6, "M0": 2, "trials": 8},
            "sampling": {"honest": True},
            "seed": 21,
        },
        "04b9aced570d06638fcab5a1bffe7b7d4c4e11e241d725563f98d1c89443a330",
    ),
    "trace_unbounded_honest": (
        {
            "instance": REJECTION_REPLICA["instance"],
            "attack": {"family": "unbounded_small_values", "mode": "trace",
                       "n": 3, "a": 3, "ell": 5, "delta": "series", "trials": 4},
            "sampling": {"honest": True},
            "seed": 16,
        },
        "845ee7f04b4492d1e8d824d907a64038c89a251601908698663149efee5ce29a",
    ),
    # the campaign of perfbench's trace_n23 workload, at six trials
    "trace_n23": (
        {
            "instance": TRACE_INSTANCE_B["instance"],
            "attack": {"family": "extended_small_set", "mode": "trace",
                       "n": 3, "a": 2017, "M": 500, "M0": 10, "trials": 6},
            "sampling": {"honest": False},
            "seed": 23,
        },
        "404ee8301020be1eb606aafad5bca809461923074b996f2a74d57dfc15252e3b",
    ),
    # the campaign of perfbench's honest_q7 workload, at its 20 trials: each
    # trial rejects about 980 rows, and the longer ones span two blocks
    "honest_q7": (
        {
            "instance": REJECTION_REPLICA["instance"],
            "attack": {"family": "unbounded_small_values", "mode": "trace",
                       "n": 3, "a": 3, "ell": 20, "delta": "series", "trials": 20},
            "sampling": {"honest": True},
            "seed": 7,
        },
        "3b49765c3af8065477cdde837c6551f05325f87431ed057dfc8e7c09c0dc29c2",
    ),
}


# every field a plan summary may print
PLAN_FIELDS = frozenset({
    "mode", "order", "sigma_bar", "preconditions", "alpha", "n", "a", "delta",
    "sigma_table_size", "sigma_table_analytic_bound", "predicted_bounds",
})


def _golden_config(name):
    return config_from_dict(json.loads(json.dumps(GOLDEN[name][0])))


def _campaign_sections():
    """The GOLDEN configs and the campaign workloads of perfbench/workloads.json
    (an instance path names an attribute of plwe_audit.instances, then keys)."""
    docs = {name: doc for name, (doc, _) in GOLDEN.items()}
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.json")
    with open(path, encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    for name, work in workloads.items():
        if work["kind"] == "campaign":
            inst = getattr(instances, work["instance"][0])
            for key in work["instance"][1:]:
                inst = inst[key]
            docs[f"perfbench-{name}"] = {"instance": inst, "attack": work["attack"]}
    return docs


_SECTIONS = _campaign_sections()


@pytest.mark.parametrize("name", sorted(_SECTIONS))
def test_a_sections_point_does_not_depend_on_its_mode(name):
    doc = json.loads(json.dumps(_SECTIONS[name]))
    att = doc["attack"]
    spec = config_from_dict(doc).attack
    # each section's mode agrees with its fields, so it reads today's point
    assert (spec.n, spec.a) == ((1, att["alpha"]) if att["mode"] == "fq" else (att["n"], att["a"]))
    for mode in ({"fq": "trace", "trace": "fq"}[att["mode"]], "junk", None):
        if mode is None:
            del att["mode"]
        else:
            att["mode"] = mode
        assert config_from_dict(doc).attack == spec, mode


class TestStreamUse:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest_is_pinned(self, name):
        digest = run_campaign(_golden_config(name)).digest_json()
        assert hashlib.sha256(digest.encode()).hexdigest() == GOLDEN[name][1]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_prints_only_what_a_verdict_reads(self, name):
        # no plan prints the chunked attacks' extended gate, and an unbounded
        # row prints the hit count that decides, not the paper's threshold T
        report = run_campaign(_golden_config(name))
        assert set(report.plan_summary) <= PLAN_FIELDS, name
        for row in report.trials:
            outcome = row["outcome"]
            if report.config_echo["attack"]["family"] == "unbounded_small_values":
                assert set(outcome) == {"verdict", "votes", "best_hits", "hit_threshold"}
                plwe = outcome["best_hits"] >= outcome["hit_threshold"]
            else:
                plwe = outcome["verdict"] not in ("uniform", "not_plwe")
            assert row["correct"] == (plwe == (row["truth"] == "plwe")), (name, row)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_reference_sampler_gives_the_pinned_digest(self, name, monkeypatch):
        monkeypatch.setattr(campaign, "sample_batch", reference_sample_batch)
        digest = run_campaign(_golden_config(name)).digest_json()
        assert hashlib.sha256(digest.encode()).hexdigest() == GOLDEN[name][1]

    def test_trials_form_b_only_when_recording(self, tmp_path, monkeypatch):
        calls = []
        mul_matrix = RqContext.mul_matrix

        def counted(ring, s):
            calls.append(1)
            return mul_matrix(ring, s)

        monkeypatch.setattr(RqContext, "mul_matrix", counted)
        cfg = _golden_config("trace_extended_small_set_direct")
        run_campaign(cfg)
        assert not calls
        rows = run_campaign(cfg, record=str(tmp_path / "samples.jsonl")).trials
        assert len(calls) == sum(1 for r in rows if r["truth"] == "plwe") > 0

    def test_trials_free_their_rows_before_the_attack(self, tmp_path, monkeypatch):
        # without a recording the (M, N) rows of a batch are gone before the
        # filter makes its temporaries, so a trial's peak holds one of the two
        alive, draw, attack = [], campaign.sample_batch, campaign.run_attack_once

        def drawn(*args, **kwargs):
            batch, invocations = draw(*args, **kwargs)
            alive.append(weakref.ref(batch))
            return batch, invocations

        def attacked(plan, pairs):
            alive[-1] = alive[-1]() is not None
            return attack(plan, pairs)

        monkeypatch.setattr(campaign, "sample_batch", drawn)
        monkeypatch.setattr(campaign, "run_attack_once", attacked)
        cfg = _golden_config("trace_extended_small_set_direct")
        run_campaign(cfg)
        assert alive == [False] * cfg.attack.trials
        alive.clear()
        run_campaign(cfg, record=str(tmp_path / "samples.jsonl"))
        assert alive == [True] * cfg.attack.trials

    def test_recording_writes_each_trial_as_it_finishes(self, tmp_path, monkeypatch):
        # before each trial the file holds the samples of every earlier one
        path = tmp_path / "samples.jsonl"
        lines, run_trial = [], campaign.run_trial

        def observed(plan, index, samples=None):
            samples.flush()
            lines.append(len(path.read_text().splitlines()))
            return run_trial(plan, index, samples)

        monkeypatch.setattr(campaign, "run_trial", observed)
        run_campaign(_golden_config("trace_extended_small_set_direct"), record=str(path))
        assert lines == [0, 60, 120, 180]
        assert len(path.read_text().splitlines()) == 240

    @pytest.mark.parametrize("name", ["fq_unbounded_mc_direct", "trace_unbounded_honest"])
    def test_thread_pool_matches_sequential(self, name):
        a = run_campaign(_golden_config(name), threads=1)
        b = run_campaign(_golden_config(name), threads=2)
        assert a.digest_json() == b.digest_json()

    def test_config_without_raw_runs_pooled(self, tmp_path, monkeypatch):
        cfg = dataclasses.replace(config_from_dict(_order6_config()), raw={})
        sequential = run_campaign(cfg).digest_json()
        run_trial = campaign.run_trial

        def noted(plan, index, samples=None):
            (tmp_path / str(index)).write_text(str(os.getpid()))
            return run_trial(plan, index, samples)

        monkeypatch.setattr(campaign, "run_trial", noted)
        assert run_campaign(cfg, threads=2).digest_json() == sequential
        pids = {int(path.read_text()) for path in tmp_path.iterdir()}
        assert len(pids) == 2 and os.getpid() in pids, "trials ran in one process"

    def test_three_processes_match_sequential(self):
        name = "fq_unbounded_mc_direct"
        a = run_campaign(_golden_config(name), threads=1)
        b = run_campaign(_golden_config(name), threads=3)
        assert a.digest_json() == b.digest_json()
        assert hashlib.sha256(b.digest_json().encode()).hexdigest() == GOLDEN[name][1]


class TestTrialProcesses:
    """The children of a pooled campaign: their failures reach the caller,
    and none outlives run_campaign."""

    @staticmethod
    def _patched(monkeypatch, in_parent, in_child):
        parent, run_trial = os.getpid(), campaign.run_trial

        def patched(plan, index, samples=None):
            (in_parent if os.getpid() == parent else in_child)()
            return run_trial(plan, index, samples)

        monkeypatch.setattr(campaign, "run_trial", patched)

    def test_child_exception_reaches_the_caller(self, monkeypatch):
        def fail():
            raise LookupError("no such residue in the child")

        self._patched(monkeypatch, lambda: None, fail)
        with pytest.raises(LookupError, match="^no such residue in the child$"):
            run_campaign(config_from_dict(_order6_config(trials=4)), threads=2)
        assert multiprocessing.active_children() == []

    def test_killed_child_raises_in_the_parent(self, monkeypatch):
        self._patched(monkeypatch, lambda: None, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=f"exited with code -{int(signal.SIGKILL)} "):
            run_campaign(config_from_dict(_order6_config(trials=4)), threads=2)
        assert multiprocessing.active_children() == []

    def test_parent_failure_ends_every_child(self, monkeypatch):
        def fail():
            raise ValueError("failed in the parent")

        # the children would outlast the test unless they were ended
        self._patched(monkeypatch, fail, lambda: time.sleep(120))
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="failed in the parent"):
            run_campaign(config_from_dict(_order6_config(trials=6)), threads=3)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - t0 < 60


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

    @pytest.mark.parametrize("n_max", ["-3", "0"])
    def test_scan_refuses_n_max_below_one(self, tmp_path, capsys, n_max):
        cfg = _write(tmp_path, "s.json", {"instance": MIXED_Q7})
        assert cli.main(["scan", "--config", cfg, "--n-max", n_max]) == 2
        assert capsys.readouterr().err == f"config error: --n-max: must be >= 1, got {n_max}\n"

    def test_scan_empty_report_is_success(self, tmp_path, capsys):
        cfg = _write(tmp_path, "e.json", {
            "instance": {"N": 5, "f": [1, 4, 0, 0, 0, 1], "q": 7,
                         "sigma": 1.0, "truncated": True}})
        assert cli.main(["scan", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fq_roots"] == [] and doc["binomial_factors"] == []

    def test_scan_small_sigma_on_high_order_roots(self, tmp_path, capsys):
        # floor(2*sigma) = 0 makes every table feasible; a root of order 2048
        # sums N = 1024 classes, and q*p0^1024 leaves no room for 1.8^1024
        cfg = _write(tmp_path, "f.json", {
            "instance": {**CRYPTO_RINGS["falcon1024"], "sigma": 0.2, "truncated": False}})
        assert cli.main(["scan", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["fq_roots"]) == 1024
        for root in doc["fq_roots"]:
            flag = next(f for f in root["attacks"] if f["attack"] == "small_set")
            assert not flag["applicable"]
            assert flag["details"]["tuple_count"] == 1
            assert flag["details"]["r"] == 1024
            assert flag["condition"] == (
                "(4*sqrt(1)*sigma+1)^1024 = 10^261 >= q*p0^1024 = 2.4e-17"
            )
            assert not re.search(r"\d{16}", flag["condition"])

    def test_analyze_min_m_on_large_order_root(self, tmp_path, capsys):
        # 7 has order 2048 mod 12289: (4*sigma+1)^2048 overflows a float
        cfg = _write(tmp_path, "f.json", {
            "instance": {**CRYPTO_RINGS["falcon1024"], "sigma": 2.87, "truncated": False},
            "attack": {"alpha": 7}})
        assert cli.main(["analyze", "--config", cfg, "--min-M", "0.99"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 2048
        assert "small_set" not in doc["min_M"] and doc["min_M"]["small_values"]

    @pytest.mark.parametrize("truncated", [True, False])
    def test_small_set_attack_on_large_order_root(self, tmp_path, capsys, truncated):
        # the table of N = 1024 classes has one tuple; untruncated, p0^1024
        # leaves no budget and the plan is refused
        cfg = _write(tmp_path, "f.json", {
            "instance": {**CRYPTO_RINGS["falcon1024"], "sigma": 0.2, "truncated": truncated},
            "attack": {"family": "small_set", "mode": "fq", "alpha": 7, "M": 5, "trials": 2},
            "seed": 1})
        if not truncated:
            assert cli.main(["attack", "--config", cfg]) == 3
            assert capsys.readouterr().err == "refused: |Sigma| = 1 < q*p0^r = 2.4e-17\n"
            return
        assert cli.main(["attack", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["plan"]["sigma_table_size"] == 1
        assert doc["plan"]["sigma_table_analytic_bound"] == 1.8**1024
        assert doc["aggregate"]["accuracy"] == 1.0

    def test_attack_writes_report(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=4))
        out = tmp_path / "report.json"
        assert cli.main(["attack", "--config", cfg, "--output", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["aggregate"]["trials"] == 4

    @pytest.mark.parametrize("threads", ["0", "-1", str((os.cpu_count() or 1) + 1)])
    def test_attack_refuses_threads_outside_cpu_count(self, tmp_path, capsys, monkeypatch,
                                                      threads):
        monkeypatch.setattr(multiprocessing, "Process", None)
        cfg = _write(tmp_path, "c.json", _order6_config(trials=4))
        assert cli.main(["attack", "--config", cfg, "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --threads:")
        assert f"1..{os.cpu_count() or 1}" in err

    @pytest.mark.parametrize("budget", [-3, 0])
    def test_attack_refuses_rq0_budget_below_one(self, tmp_path, capsys, budget):
        cfg = _write(tmp_path, "r.json", {
            "instance": REJECTION_REPLICA["instance"],
            "attack": {"family": "unbounded_small_values", "mode": "trace",
                       **REJECTION_REPLICA["extension"], "ell": 20, "delta": "series",
                       "trials": 2},
            "sampling": {"honest": True},
            "rq0_budget": budget,
            "seed": 1,
        })
        assert cli.main(["attack", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: rq0_budget: must be >= 1")

    def test_attack_seed_and_honest_sampling_overrides(self, tmp_path, capsys):
        # the golden campaign's seed and sampling section, given on the
        # command line instead, reproduce its report
        name = "fq_small_values_honest"
        doc = {**GOLDEN[name][0], "seed": 3}
        del doc["sampling"]
        cfg = _write(tmp_path, "c.json", doc)
        assert cli.main(["attack", "--config", cfg, "--seed", "17", "--honest-sampling"]) == 0
        got = json.loads(capsys.readouterr().out)
        want = json.loads(run_campaign(_golden_config(name)).to_json())
        for report in (got, want):
            for row in report["trials"]:
                del row["wall_time_ms"]
        assert got == want

    def test_attack_trials_override(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=4))
        assert cli.main(["attack", "--config", cfg, "--trials", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregate"]["trials"] == 2

    def test_attack_trials_stay_below_the_delta_stream(self, tmp_path, capsys):
        # trial 2**32 would draw from [seed, 2**32], the stream of mc_delta
        doc = _order6_config(trials=2**32)
        assert config_from_dict(doc).attack.trials == 2**32
        doc["attack"]["trials"] = 2**32 + 1
        with pytest.raises(ConfigError, match=r"^attack\.trials: must be < 4294967297, got"):
            config_from_dict(doc)
        cfg = _write(tmp_path, "c.json", _order6_config(trials=4))
        assert cli.main(["attack", "--config", cfg, "--trials", str(2**32 + 1)]) == 2
        assert capsys.readouterr().err == (
            "config error: attack.trials: must be < 4294967297, got 4294967297\n"
        )

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

    def test_refused_recording_leaves_no_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, "r.json", {
            "instance": dict(USVA_INSTANCES[2]["instance"]),
            "attack": {"family": "small_values", "mode": "fq",
                       "alpha": 698, "M": 10, "trials": 2},
        })
        samples = tmp_path / "samples.jsonl"
        assert cli.main(["attack", "--config", cfg, "--record-samples", str(samples)]) == 3
        assert "refused" in capsys.readouterr().err
        assert not samples.exists()

    def test_attack_refuses_modulus_above_int64_range(self, tmp_path, capsys):
        cfg = _write(tmp_path, "big.json", {
            "instance": {"N": 2, "f": [14, -9, 1], "q": 4194319,
                         "sigma": 1.0, "truncated": True},
            "attack": {"family": "small_set", "mode": "fq", "alpha": 2,
                       "M": 2, "trials": 1},
        })
        assert cli.main(["attack", "--config", cfg]) == 3
        assert "q = 4194319 < 2**22 = 4194304" in capsys.readouterr().err

    def test_scan_refuses_modulus_above_int64_range(self, tmp_path, capsys, monkeypatch):
        # x^256 + 1 mod 8380417: the root search alone took seconds before
        # the binomial divisor search raised, so the refusal comes first
        cfg = _write(tmp_path, "dilithium.json", {
            "instance": {"N": 256, "f": [1] + [0] * 255 + [1], "q": 8380417,
                         "sigma": 2.0, "truncated": True}})
        monkeypatch.setattr(cli, "scan_instance", None)
        assert cli.main(["scan", "--config", cfg]) == 3
        assert "q = 8380417 < 2**22 = 4194304" in capsys.readouterr().err

    def test_scan_refuses_degree_beyond_int64_sums(self, tmp_path, capsys, monkeypatch):
        # the fold and the ring products sum N + 1 products of residues
        q = 4194301
        N = 2**63 // q**2
        cfg = _write(tmp_path, "huge.json", {
            "instance": {"N": N, "f": [1] + [0] * (N - 1) + [1], "q": q,
                         "sigma": 2.0, "truncated": True}})
        monkeypatch.setattr(cli, "scan_instance", None)
        assert cli.main(["scan", "--config", cfg]) == 3
        assert f"(N+1)*q^2 = {(N + 1) * q * q} < 2**63" in capsys.readouterr().err

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
        # blank and whitespace-only lines are skipped
        samples.write_text("\n" + samples.read_text().replace("\n", "\n \t\n\n"))
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 0
        assert json.loads(capsys.readouterr().out) == recorded

    def test_replay_reads_a_section_without_mode(self, tmp_path, capsys):
        doc = _order6_config(trials=1, M=6)
        del doc["attack"]["mode"]
        cfg = _write(tmp_path, "c.json", doc)
        samples = tmp_path / "samples.jsonl"
        assert cli.main(["attack", "--config", cfg, "--record-samples", str(samples)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["plan"]["mode"], report["plan"]["alpha"]) == ("fq", 2018)
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 0
        assert json.loads(capsys.readouterr().out) == report["trials"][0]["outcome"]

    @pytest.mark.parametrize(
        "name", ["fq_small_values_honest", "trace_extended_small_set_direct", "trace_unbounded_honest"]
    )
    def test_recorded_samples_replay_every_trial(self, name, tmp_path, capsys):
        # recording materialises B; the trials themselves attack the pairs
        # evaluated without it, and replay reads B back from the file
        cfg = _write(tmp_path, "c.json", GOLDEN[name][0])
        samples = tmp_path / "samples.jsonl"
        assert cli.main(["attack", "--config", cfg, "--record-samples", str(samples)]) == 0
        rows = json.loads(capsys.readouterr().out)["trials"]
        assert [r["outcome"] for r in rows] == [
            r["outcome"] for r in run_campaign(_golden_config(name)).trials
        ]
        lines = samples.read_text().splitlines()
        for row in rows:
            trial = tmp_path / f"trial{row['trial']}.jsonl"
            trial.write_text("\n".join(lines[: row["samples_used"]]) + "\n")
            del lines[: row["samples_used"]]
            assert cli.main(["replay", "--config", cfg, str(trial)]) == 0
            assert json.loads(capsys.readouterr().out) == row["outcome"]
        assert not lines

    def test_replay_rejects_malformed_line(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=1))
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"a": [0,0,0,0,0,0], "b": [0,0,0,0,0,0]}\nnot json\n')
        assert cli.main(["replay", "--config", cfg, str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_replay_rejects_non_finite_coefficient(self, tmp_path, capsys):
        # Python's json reads Infinity, which int() cannot convert
        cfg = _write(tmp_path, "c.json", _order6_config(trials=1))
        bad = tmp_path / "inf.jsonl"
        bad.write_text('{"a": [0,0,0,0,0,0], "b": [0,0,0,0,0,0]}\n'
                       '{"a": [Infinity,0,0,0,0,0], "b": [0,0,0,0,0,0]}\n')
        assert cli.main(["replay", "--config", cfg, str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_replay_rejects_empty_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _order6_config(trials=1))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["replay", "--config", cfg, str(empty)]) == 2
        assert "empty" in capsys.readouterr().err

    def _recorded_trace_samples(self, tmp_path, capsys):
        """A chunked trace config and the 20 samples of its one trial."""
        cfg = _write(tmp_path, "t.json", {
            "instance": dict(TRACE_INSTANCE_B["instance"]),
            "attack": {"family": "extended_small_set", "mode": "trace",
                       "n": 3, "a": 2017, "M": 20, "M0": 10, "trials": 1},
            "seed": 4,
        })
        samples = tmp_path / "samples.jsonl"
        assert cli.main(["attack", "--config", cfg,
                         "--record-samples", str(samples)]) == 0
        capsys.readouterr()
        return cfg, samples, samples.read_text().splitlines()

    def test_replay_refuses_fewer_samples_than_a_chunk(self, tmp_path, capsys):
        cfg, samples, lines = self._recorded_trace_samples(tmp_path, capsys)
        samples.write_text("\n".join(lines[:5]) + "\n")
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 2
        err = capsys.readouterr().err
        assert str(samples) in err and "5 samples, fewer than attack.M0 = 10" in err

    def test_replay_refuses_a_outside_the_subring(self, tmp_path, capsys):
        cfg, samples, lines = self._recorded_trace_samples(tmp_path, capsys)
        doc = json.loads(lines[2])
        doc["a"] = [0, 1] + [0] * 21  # x has a nonzero y^1 coordinate
        lines[2] = json.dumps(doc)
        samples.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 2
        err = capsys.readouterr().err
        assert str(samples) in err and "line 3" in err and "outside R_q0" in err

    @pytest.mark.parametrize("first,later,named", [
        ([0, 0, 1], [0, 1], "line 2: a lies outside R_q0 (witness k=2)"),
        ([0, 1, 1], [0, 0, 1], "line 2: a lies outside R_q0 (witness k=1)"),
    ], ids=["k2-first", "k1-and-k2"])
    def test_replay_names_the_first_non_member_and_witness(self, tmp_path, capsys,
                                                           first, later, named):
        # x^2 has only a y^2 coordinate (k = 2), x + x^2 has both; the first
        # bad line is named, with its least nonzero witness
        cfg, samples, lines = self._recorded_trace_samples(tmp_path, capsys)
        for index, a in ((1, first), (3, later)):
            doc = json.loads(lines[index])
            doc["a"] = a + [0] * (23 - len(a))
            lines[index] = json.dumps(doc)
        samples.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 2
        assert f"{samples}: {named}" in capsys.readouterr().err

    def test_replay_evaluates_its_batch_once(self, tmp_path, capsys, monkeypatch):
        # the replay's R_{q,0} check is the one in SampleBatch.pairs
        cfg, samples, _ = self._recorded_trace_samples(tmp_path, capsys)
        calls = {"pairs": 0, "rq0_witnesses": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SampleBatch, "pairs", counted("pairs", SampleBatch.pairs))
        witnesses = counted("rq0_witnesses", rings.rq0_witnesses)
        bound = [m for m in list(sys.modules.values())
                 if vars(m).get("rq0_witnesses") is rings.rq0_witnesses]
        assert rings in bound
        for module in bound:
            monkeypatch.setattr(module, "rq0_witnesses", witnesses)
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 0
        capsys.readouterr()
        assert calls == {"pairs": 1, "rq0_witnesses": 0}

    def test_replay_refuses_short_rows(self, tmp_path, capsys):
        cfg, samples, lines = self._recorded_trace_samples(tmp_path, capsys)
        doc = json.loads(lines[1])
        doc["b"] = doc["b"][:-1]
        lines[1] = json.dumps(doc)
        samples.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 2
        err = capsys.readouterr().err
        assert str(samples) in err and "line 2" in err and "N = 23" in err
        # a line is named by its place in the file, blank lines counted
        lines[1:1] = ["", " \t"]
        samples.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 2
        assert f"{samples}: line 4: a and b need N = 23" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [lambda c: c + 0.5, lambda c: True], ids=["half", "true"])
    def test_replay_refuses_non_integer_coefficients(self, tmp_path, capsys, edit):
        # int() would read 2.5 as 2 and true as 1, and the line would replay
        cfg, samples, lines = self._recorded_trace_samples(tmp_path, capsys)
        doc = json.loads(lines[3])
        doc["b"][0] = edit(doc["b"][0])
        lines[3] = json.dumps(doc)
        samples.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", "--config", cfg, str(samples)]) == 2
        err = capsys.readouterr().err
        assert str(samples) in err and "line 4" in err and "must be integers" in err

    def test_analyze_reads_the_point_that_attack_reads(self, tmp_path, capsys):
        # a section with alpha and both n and a names (n, a) in every
        # command, whatever its mode says: x^2 - 3676 is reducible mod 3677
        inst = USVA_INSTANCES[1]
        cfg = _write(tmp_path, "fq.json", {
            "instance": dict(inst["instance"]),
            "attack": {"family": "unbounded_small_values", "mode": "fq", "alpha": 3676,
                       "n": 2, "a": 3676, "ell": 20, "trials": 2},
        })
        for command in ("attack", "analyze", "replay"):
            argv = [command, "--config", cfg] + ([str(tmp_path / "none")] if command == "replay" else [])
            assert cli.main(argv) == 2, command
            assert capsys.readouterr().err == (
                "config error: attack.a: x^2 - 3676 is reducible mod 3677\n"
            ), command

    @pytest.mark.parametrize(
        "attack,message",
        [
            # every command takes n and a when both are given, else alpha,
            # and reads no mode; the ring has no F_q root
            ({"alpha": 5}, "attack.alpha: 5 is not a root of f mod 4099"),
            ({"mode": "trace", "alpha": 5}, "attack.alpha: 5 is not a root of f mod 4099"),
            ({"mode": "Fq", "alpha": 5}, "attack.alpha: 5 is not a root of f mod 4099"),
            ({"mode": None, "alpha": 5}, "attack.alpha: 5 is not a root of f mod 4099"),
            ({"n": 3, "a": 2017}, None),
            ({"mode": "fq", "n": 3, "a": 2017}, None),
            ({"alpha": 5, "n": 3, "a": 2017}, None),
            ({"a": 2017}, "attack.alpha (or attack.n/attack.a): required"),
        ],
    )
    def test_analyze_reads_the_point_whatever_the_mode(self, tmp_path, capsys, attack, message):
        cfg = _write(tmp_path, "mode.json", {
            "instance": dict(TRACE_INSTANCE_B["instance"]),
            "attack": {"family": "small_set", "M": 5, "trials": 1, **attack},
        })
        if message is not None:
            for command in ("attack", "analyze"):
                assert cli.main([command, "--config", cfg]) == 2
                assert capsys.readouterr().err == f"config error: {message}\n"
            return
        assert cli.main(["attack", "--config", cfg]) == 0
        plan = json.loads(capsys.readouterr().out)["plan"]
        assert cli.main(["analyze", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        keys = ("alpha", "n", "a", "order", "sigma_bar")
        assert [doc.get(k) for k in keys] == [plan.get(k) for k in keys]
        assert (plan["mode"], plan["n"], plan["a"]) == ("trace", 3, 2017)

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

    def test_analyze_warns_when_the_oracle_disagrees(self, tmp_path, capsys, monkeypatch):
        inst = USVA_INSTANCES[1]
        cfg = _write(tmp_path, "an.json", {
            "instance": dict(inst["instance"]),
            "attack": {"alpha": inst["alpha"]},
        })
        assert cli.main(["analyze", "--config", cfg]) == 0
        delta = json.loads(capsys.readouterr().out)["delta"]
        monkeypatch.setattr(cli, "mc_delta", lambda q, sbar, seed: delta + 0.01)
        assert cli.main(["analyze", "--config", cfg, "--mc-check"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_mc"] == delta + 0.01
        assert any("disagrees with the Monte Carlo oracle" in w for w in doc["warnings"])

    def test_analyze_mc_check_prints_the_campaign_delta(self, tmp_path, capsys):
        # analyze and a "delta": "mc" plan draw from one stream; analyze's
        # own stream printed -0.001352 here, where the plan's -0.000164
        # gives Delta > 0 and the campaign runs
        inst = USVA_INSTANCES[2]  # 698 mod 2887
        doc = {"instance": dict(inst["instance"]),
               "attack": {"family": "unbounded_small_values", "mode": "fq",
                          "alpha": inst["alpha"], "ell": 5, "delta": "mc", "trials": 1},
               "seed": 5}
        cfg = _write(tmp_path, "mc.json", doc)
        assert cli.main(["analyze", "--config", cfg, "--mc-check"]) == 0
        delta_mc = json.loads(capsys.readouterr().out)["delta_mc"]
        assert delta_mc == run_campaign(config_from_dict(doc)).plan_summary["delta"]

    def test_analyze_at_a_61_bit_safe_prime(self, tmp_path, capsys):
        # q - 1 = 2p with p prime: the order of alpha needs p, and trial
        # division did not find it in 20 s
        q = 2305843009213691579
        cfg = _write(tmp_path, "safe.json", {
            "instance": {"N": 1, "f": [-5, 1], "q": q, "sigma": 1.0, "truncated": False},
            "attack": {"alpha": 5}})
        assert cli.main(["analyze", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == (q - 1) // 2

    def test_analyze_resolves_roots_above_the_int64_range(self, tmp_path, capsys):
        # 1753 is a root of x^256 + 1 mod 8380417 of order 512; the root test
        # sums in Python ints, so analyze needs no int64 bound
        cfg = _write(tmp_path, "d.json", {
            "instance": {**CRYPTO_RINGS["dilithium"], "sigma": 2.0, "truncated": True},
            "attack": {"alpha": 1753}})
        assert cli.main(["analyze", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 512

    def test_analyze_min_m_at_the_root_zero(self, tmp_path, capsys):
        # the root 0 of x^4 + x keeps one coefficient: a one-class table of
        # analytic size 5, whose min_M the scan prints too
        instance = {"N": 4, "f": [0, 1, 0, 0, 1], "q": 4099, "sigma": 1.0, "truncated": False}
        cfg = _write(tmp_path, "z.json", {"instance": instance, "attack": {"alpha": 0}})
        assert cli.main(["analyze", "--config", cfg, "--min-M", "0.99"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["alpha"], doc["order"], doc["case"]) == (0, 0, "general")
        root = scan_instance(load_ring_doc(instance), 1.0, False).roots[0]
        flag = next(f for f in root.flags if f.attack == "small_set")
        assert root.a == 0 and flag.applicable
        assert doc["min_M"]["small_set"] == flag.details["min_M_for_0.99"] == 2

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
    def test_truncated_voting_beats_coin(self):
        # truncated, p0 = 1 and the vote demands every chunk, which genuine
        # input always delivers and uniform input fails with positive
        # probability
        doc = _order6_config(trials=200, M=20)
        doc["attack"].update(family="extended_small_set", M0=2)
        report = run_campaign(config_from_dict(doc))
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
        "mode": draw(st.sampled_from(["fq", "trace"])),
        "alpha": draw(st.integers(-8, 8)),
        "n": draw(st.integers(0, 4)),
        "a": draw(st.integers(-8, 8)),
        # 10**12 samples are refused by the M*N bound before any is drawn
        "M": draw(st.one_of(st.integers(-1, 6), st.just(10**12))),
        "M0": draw(st.integers(-1, 6)),
        "ell": draw(st.one_of(st.integers(-1, 6), st.just(10**12))),
        "delta": draw(
            st.one_of(st.none(), st.sampled_from(["series", "mc", "0.1", True, False]),
                      st.floats(-1, 1))
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


_FIELD_JUNK = st.sampled_from([0, 1, 4, 5, -1, [1, 2], 7.0, 7.5, 3.0, 0.5, 2**64])


@st.composite
def _instance_sections(draw):
    """MIXED_Q7 with a sigma from a log range up to 1e15 or a boolean or
    numeric string, maybe junk in q and in one coefficient of f, and up to
    two fields dropped or replaced by junk."""
    sigma = st.one_of(st.floats(-3, 15).map(lambda e: 10.0**e), st.sampled_from([True, "2.5"]))
    instance = {**MIXED_Q7, "sigma": draw(sigma)}
    if draw(st.booleans()):
        instance["q"] = draw(st.one_of(_JUNK, _FIELD_JUNK))
    if draw(st.booleans()):
        f = list(instance["f"])
        f[draw(st.integers(0, len(f) - 1))] = draw(st.one_of(_JUNK, _FIELD_JUNK))
        instance["f"] = f
    for key in draw(st.lists(st.sampled_from(sorted(instance)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del instance[key]
        else:
            instance[key] = draw(st.one_of(_JUNK, _FIELD_JUNK))
    return instance


@st.composite
def _extra_fields(draw):
    """Junk seed, table_cap or sampling section, and maybe junk in
    sampling.honest."""
    extra = draw(
        st.dictionaries(st.sampled_from(["seed", "table_cap", "sampling"]), _JUNK, max_size=2)
    )
    if draw(st.booleans()):
        extra["sampling"] = {"honest": draw(_JUNK)}
    return extra


@given(
    command=st.sampled_from(["attack", "scan", "analyze"]),
    instance=st.one_of(_instance_sections(), _JUNK),
    attack=st.one_of(_attack_sections(), _JUNK),
    extra=_extra_fields(),
    mc_check=st.booleans(),
)
@settings(max_examples=150, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_configs_exit_cleanly(tmp_path, command, instance, attack, extra, mc_check):
    cfg = _write(tmp_path, "fuzz.json", {"instance": instance, "attack": attack, **extra})
    argv = [command, "--config", cfg] + (["--mc-check"] if command == "analyze" and mc_check else [])
    assert cli.main(argv) in (0, 2, 3)


_FALCON_1024 = {**CRYPTO_RINGS["falcon1024"], "sigma": 2.0, "truncated": False}


@pytest.mark.parametrize(
    "command,doc,field",
    [
        ("scan", {"instance": {**MIXED_Q7, "sigma": None}}, "instance.sigma"),
        ("scan", {"instance": {**MIXED_Q7, "sigma": -1}}, "instance.sigma"),
        ("scan", {"instance": MIXED_Q7, "table_cap": "x"}, "table_cap"),
        ("scan", {"instance": MIXED_Q7, "table_cap": 0}, "table_cap"),
        # analyze used to ignore the cap and exit 0
        ("analyze", {"instance": TRACE_INSTANCE_B["instance"], "attack": {"n": 3, "a": 2017},
                     "table_cap": "x"}, "table_cap"),
        # a cap past the floats crashed the infeasible-table text of scan and analyze
        ("scan", {"instance": _FALCON_1024, "table_cap": 10**400}, "table_cap"),
        ("analyze", {"instance": _FALCON_1024, "attack": {"alpha": 7}, "table_cap": 10**400},
         "table_cap"),
        # the ring reader echoed a huge q or N in full, as the cap once was
        ("scan", {"instance": {**_FALCON_1024, "q": 10**400}}, "instance"),
        ("scan", {"instance": {**_FALCON_1024, "N": 10**400}}, "instance"),
        ("analyze", {"instance": MIXED_Q7, "attack": {"n": "x", "a": 3}}, "attack.n"),
        ("analyze", {"instance": MIXED_Q7, "attack": {"n": 0, "a": 3}}, "attack.n"),
        ("analyze", {"instance": MIXED_Q7, "attack": [1]}, "attack"),
        ("attack", {"instance": 5, "attack": {}}, "instance"),
        ("scan", [MIXED_Q7], "config"),
        ("analyze", [MIXED_Q7], "config"),
        ("attack", [MIXED_Q7], "config"),
        # not points of f: 5 is no root, 2017 has order 3 so x^4 - 2017 is
        # reducible mod 4099, and x^2 - 0 is reducible
        ("analyze", {"instance": TRACE_INSTANCE_B["instance"], "attack": {"alpha": 5}},
         "attack.alpha"),
        ("analyze", {"instance": TRACE_INSTANCE_B["instance"], "attack": {"n": 4, "a": 2017}},
         "attack.a"),
        ("analyze", {"instance": TRACE_INSTANCE_B["instance"], "attack": {"n": 2, "a": 0}},
         "attack.a"),
        # scan and analyze read the instance section as attack does
        ("scan", {}, "config.instance"),
        ("analyze", {}, "config.instance"),
        ("scan", MIXED_Q7, "config.instance"),
        ("analyze", {**MIXED_Q7, "attack": {"alpha": 1}}, "config.instance"),
        ("analyze", {"instance": MIXED_Q7}, "attack.alpha (or attack.n/attack.a)"),
        ("analyze", {"instance": MIXED_Q7, "attack": {"a": 3}},
         "attack.alpha (or attack.n/attack.a)"),
        # a CSV report needs a file: it used to print JSON and exit 0
        ("scan --format csv", {"instance": TRACE_INSTANCE_B["instance"]}, "--format"),
        ("attack --format csv", _order6_config(), "--format"),
    ],
)
def test_malformed_config_names_the_field(tmp_path, capsys, command, doc, field):
    cfg = _write(tmp_path, "bad.json", doc)
    assert cli.main(command.split() + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")
    parts = [doc, doc.get("instance")] if isinstance(doc, dict) else []
    huge = [key for part in parts if isinstance(part, dict)
            for key, value in part.items() if value == 10**400]
    if huge:
        # these used to be echoed with all their 401 digits
        assert err == f"config error: {field}: {_HUGE_ECHOES[huge[0]]}\n"
        assert len(err.encode()) < 120


_HUGE_ECHOES = {
    "table_cap": "must be < 9223372036854775808, got 10^400",
    "q": "q must satisfy 2 < q < 2**62, got 10^400",
    "N": "f must list N+1 = 10^400 coefficients",
}


_TRACE_B_SMALL_SET = {
    "instance": TRACE_INSTANCE_B["instance"],
    "attack": {"family": "small_set", "mode": "trace", "n": 3, "a": 2017, "M": 5},
}
_COMMANDS = ("scan", "analyze", "attack", "replay")
_F_HALF = [0.5] + TRACE_INSTANCE_B["instance"]["f"][1:]


@pytest.mark.parametrize(
    "where,key,value,message,commands",
    [
        # bool() read "false" as true and "no" as honest sampling, and int()
        # read true as 1 and truncated 4099.5 to 4099
        ("instance", "truncated", "false",
         "instance.truncated: expected true or false, got 'false'", _COMMANDS),
        ("instance", "truncated", 0, "instance.truncated: expected true or false, got 0",
         _COMMANDS),
        ("instance", "q", 4099.5, "instance: q: expected an integer, got 4099.5", _COMMANDS),
        ("instance", "N", True, "instance: N: expected an integer, got True", _COMMANDS),
        ("instance", "f", _F_HALF, "instance: f[0]: expected an integer, got 0.5", _COMMANDS),
        ("sampling", "honest", "no", "sampling.honest: expected true or false, got 'no'",
         ("attack", "replay")),
        (None, "seed", True, "seed: expected an integer, got True", ("attack", "replay")),
        ("attack", "trials", True, "attack.trials: expected an integer, got True",
         ("attack", "replay")),
        # float() read true as sigma 1.0 and the strings "2.5" and "0.1"
        ("instance", "sigma", True, "instance.sigma: expected a number, got True", _COMMANDS),
        ("instance", "sigma", "2.5", "instance.sigma: expected a number, got '2.5'",
         _COMMANDS),
        ("attack", "delta", "0.1",
         "attack.delta: expected a number, 'series' or 'mc', got '0.1'", ("attack", "replay")),
        ("attack", "delta", False,
         "attack.delta: expected a number, 'series' or 'mc', got False", ("attack", "replay")),
    ],
    ids=["truncated-str", "truncated-int", "q-fraction", "N-bool", "f-fraction", "honest-str",
         "seed-bool", "trials-bool", "sigma-bool", "sigma-str", "delta-str", "delta-bool"],
)
def test_config_booleans_and_integers_are_exact(
    tmp_path, capsys, where, key, value, message, commands
):
    doc = json.loads(json.dumps(_TRACE_B_SMALL_SET))
    (doc.setdefault(where, {}) if where else doc)[key] = value
    cfg = _write(tmp_path, "exact.json", doc)
    for command in commands:
        argv = [command, "--config", cfg] + ([str(tmp_path / "none")] if command == "replay" else [])
        assert cli.main(argv) == 2, command
        assert capsys.readouterr().err == f"config error: {message}\n", command


def test_integral_floats_read_as_integers(tmp_path, capsys):
    inst = TRACE_INSTANCE_B["instance"]
    floats = {**inst, "N": 23.0, "q": 4099.0, "f": [float(c) for c in inst["f"]]}
    for command in ("scan", "analyze"):
        outputs = []
        for instance in (inst, floats):
            cfg = _write(tmp_path, "ints.json", {**_TRACE_B_SMALL_SET, "instance": instance})
            assert cli.main([command, "--config", cfg]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigma_whose_draws_leave_int64_refuses_the_campaign(tmp_path, capsys):
    # sigma = 1e20 used to cast rounded errors past 2**63 to garbage and
    # exit 0; scan and analyze draw nothing and still answer
    cfg = _write(tmp_path, "sigma.json", {
        "instance": {**TRACE_INSTANCE_B["instance"], "sigma": 1e20},
        "attack": {"family": "unbounded_small_values", "mode": "trace",
                   "n": 3, "a": 2017, "ell": 20, "trials": 2},
    })
    assert cli.main(["attack", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        "refused: 16*sigma + N*q^2 = 1.6e+21 < 2**63 = 9223372036854775808\n"
    )
    for command in ("scan", "analyze"):
        assert cli.main([command, "--config", cfg]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_draw_bound_boundary_is_exact():
    ring = load_ring_doc(TRACE_INSTANCE_B["instance"])
    limit = (1 << 63) - ring.N * ring.q**2
    sigma = limit / 16
    while 16 * sigma >= limit:
        sigma = math.nextafter(sigma, 0)
    above = math.nextafter(sigma, math.inf)
    assert 16 * above >= limit
    check_draws(ring, GaussianSpec(sigma, False), 1)
    with pytest.raises(PreconditionRefused, match=r"16\*sigma \+ N\*q\^2 = .* < 2\*\*63"):
        check_draws(ring, GaussianSpec(above, False), 1)
    # at the largest accepted sigma the errors and B are exact integers
    rng = np.random.default_rng(9)
    secret = rng.integers(0, ring.q, size=ring.N)
    state = rng.bit_generator.state
    ext = ExtFieldCtx(3, 2017, PrimeModulus(ring.q))
    batch, _ = sample_batch(ring, GaussianSpec(sigma, False), ext, 8, rng, secret)
    rng.bit_generator.state = state
    draws = np.rint(rng.normal(0.0, sigma, size=(8, ring.N)))
    assert batch.X.tolist() == [[int(v) for v in row] for row in draws.tolist()]
    s = ring.poly(secret)
    want = [ring_add(ring_mul(ring.poly(a), s), ring.poly(e)).coeffs
            for a, e in zip(batch.A.tolist(), batch.X.tolist())]
    assert [tuple(row) for row in batch.B.tolist()] == want


@pytest.mark.parametrize("command", ["scan", "analyze", "attack"])
@pytest.mark.parametrize(
    "sigma,violated",
    [(1e-200, "sigma*sigma > 0"), (1e200, "sigma*sigma*N*q*q finite")],
)
def test_extreme_sigma_is_a_config_error(tmp_path, capsys, command, sigma, violated):
    # sigma^2 underflows to 0 (sigma_bar = 0) or sigma_bar overflows to inf;
    # either used to end the series for delta in a traceback
    cfg = _write(tmp_path, "sigma.json", {
        "instance": {**USVA_ROOT["instance"], "sigma": sigma},
        "attack": {"family": "unbounded_small_values", "mode": "fq",
                   "alpha": USVA_ROOT["alpha"], "ell": 5},
    })
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: instance.sigma:") and violated in err


@pytest.mark.parametrize("command", ["scan", "analyze", "attack", "replay"])
def test_invalid_json_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text('{"instance": ')
    argv = [command, "--config", str(path)] + ([str(path)] if command == "replay" else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: config:")


@pytest.mark.parametrize("name", ["trace_unbounded_honest", "trace_extended_small_set_direct"])
def test_plan_takes_the_order_once(name, monkeypatch):
    # the point's cached order serves the irreducibility check and the block
    # structure, so a trace plan factors q - 1 once, as an F_q plan does
    calls = []
    mult_order = fields.mult_order
    monkeypatch.setattr(fields, "mult_order", lambda a, q: calls.append(a) or mult_order(a, q))
    plan = build_plan(_golden_config(name))
    assert calls == [plan.point.a]
    calls.clear()
    build_plan(config_from_dict(_order6_config()))
    assert calls == [2018]


@pytest.mark.parametrize("option", ["--output", "--f-of-r-csv", "--record-samples", "replay"])
def test_a_path_that_cannot_be_opened_is_a_config_error(tmp_path, capsys, option):
    # a directory where a file is read or written used to end in a traceback
    cfg = _write(tmp_path, "c.json", _order6_config(trials=1))
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "--output": ["scan", "--config", cfg, "--output", str(folder)],
        "--f-of-r-csv": ["analyze", "--config", cfg, "--f-of-r-csv", str(folder)],
        "--record-samples": ["attack", "--config", cfg, "--record-samples", str(folder)],
        "replay": ["replay", "--config", cfg, str(folder)],
    }[option]
    assert cli.main(argv) == 2
    name = "sample file" if option in ("--record-samples", "replay") else option
    assert capsys.readouterr().err == f"config error: {name} {folder}: Is a directory\n"


@pytest.mark.parametrize("command", ["attack", "scan", "analyze", "replay"])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_output_is_refused_before_the_command_runs(
    tmp_path, capsys, monkeypatch, command, where
):
    # the campaign, scan or analysis used to run, and its report to print,
    # before --output was opened
    calls = []
    for name in ("run_campaign", "scan_instance", "assess_point", "build_plan"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kw: calls.append(name))
    cfg = _write(tmp_path, "c.json", _order6_config(trials=3))
    target = tmp_path / "folder" if where == "directory" else tmp_path / "missing" / "r.json"
    if where == "directory":
        target.mkdir()
    argv = [command, "--config", cfg, "--output", str(target)]
    assert cli.main(argv + ([str(tmp_path / "samples.jsonl")] if command == "replay" else [])) == 2
    out, err = capsys.readouterr()
    reason = "Is a directory" if where == "directory" else "No such file or directory"
    assert (out, err) == ("", f"config error: --output {target}: {reason}\n")
    assert calls == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_refused_or_failed_command_leaves_the_output_unchanged(tmp_path, capsys, fmt):
    refused = _write(tmp_path, "r.json", {
        "instance": dict(USVA_INSTANCES[2]["instance"]),
        "attack": {"family": "small_values", "mode": "fq", "alpha": 698, "M": 10, "trials": 2},
    })
    malformed = _write(tmp_path, "m.json", {**_order6_config(), "seed": -1})
    out = tmp_path / "report.out"
    out.write_text("an earlier report\n")
    for cfg, code in [(refused, 3), (malformed, 2)]:
        argv = ["attack", "--config", cfg, "--format", fmt]
        assert cli.main(argv + ["--output", str(out)]) == code
        assert out.read_text() == "an earlier report\n"
        # and a refused or failed command creates no file
        assert cli.main(argv + ["--output", str(tmp_path / "new.out")]) == code
        assert not (tmp_path / "new.out").exists()
    assert capsys.readouterr().out == ""
    ok = _write(tmp_path, "c.json", _order6_config(trials=2))
    assert cli.main(["attack", "--config", ok, "--format", fmt, "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("key,value" if fmt == "csv" else "{") and "earlier" not in text
    if fmt == "json":
        assert json.loads(text) == json.loads(capsys.readouterr().out)


def test_closed_stdout_keeps_the_output_and_exits_141(tmp_path, capsys):
    # the scan used to print first: a closed pipe raised a BrokenPipeError
    # traceback, exit 1, and the --output file it had created was removed
    cfg = _write(tmp_path, "f.json", {
        "instance": {**instances.CRYPTO_RINGS["falcon512"], "sigma": 1.0, "truncated": False}})
    out = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)  # as `| head -c 10` does once it has its bytes
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "plwe_audit.cli", "scan", "--config", cfg, "--output", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")
    assert cli.EXIT_PIPE == 141  # 128 + SIGPIPE
    assert cli.main(["scan", "--config", cfg]) == 0
    assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "1.5", "1", "0", "-0.5"])
def test_analyze_min_m_outside_the_unit_interval_is_refused(tmp_path, capsys, target):
    cfg = _write(tmp_path, "c.json", _order6_config())
    assert cli.main(["analyze", "--config", cfg, f"--min-M={target}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --min-M: must lie in (0, 1), got ")


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_analyze_min_m_report_is_strict_json(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _order6_config())
    assert cli.main(["analyze", "--config", cfg, "--min-M", "0.99"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["min_M"]["target"] == 0.99 and doc["min_M"]["small_values"] >= 1


# sha256 of the sorted-key JSON of analyze reports without their attacks
# list, taken before analyze read its flags from analysis.assess_point
ANALYZE_PINS = {
    # x^3 - 2017 on ring B: min_M.small_set is 491, then null (no M reaches
    # the target), then absent (the analytic size is above q)
    "ring_b-2.5": ({**TRACE_INSTANCE_B["instance"], "sigma": 2.5}, {"n": 3, "a": 2017},
                   ["--min-M", "0.99"],
                   "e5aefaa42972492c6a50350509b280c98627c0e0733aa0f51bf2f7bd82846a9c"),
    "ring_b-2.6": ({**TRACE_INSTANCE_B["instance"], "sigma": 2.6}, {"n": 3, "a": 2017},
                   ["--min-M", "0.99"],
                   "a6d5752c7488d55aeebb6a48949c184099ff5dacd7ae7e6011598479328f2eb5"),
    "ring_b-3.0": ({**TRACE_INSTANCE_B["instance"], "sigma": 3.0}, {"n": 3, "a": 2017},
                   ["--min-M", "0.99"],
                   "9718d0c52925d10de5855cf3da028e72dc8ef4f10f5e10bd108fd6c7b4b3b9e2"),
    # the root -1 mod 3677, with the small-values warning and delta_mc
    "usva1": (USVA_INSTANCES[1]["instance"], {"alpha": 3676}, ["--mc-check"],
              "3c4823e20515b2e4e43773558b2c08aa0a630bfad3ae6d498f075cc353bb85ca"),
    "root0": ({"N": 4, "f": [0, 1, 0, 0, 1], "q": 13, "sigma": 1.0, "truncated": True},
              {"alpha": 0}, [],
              "7d57834aa061c15a277954f77189fe1b626495fc7a65a1f3fa8bd7975b66d004"),
    # a modulus the scan refuses
    "dilithium": ({**CRYPTO_RINGS["dilithium"], "sigma": 1.0, "truncated": False},
                  {"alpha": 1753}, [],
                  "b3ab2fcceab4d77af4bfe2d36bcd690adaf5fd138ccf4eca64160364e3c02061"),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_PINS))
def test_analyze_reports_are_pinned(tmp_path, capsys, name):
    instance, point, options, digest = ANALYZE_PINS[name]
    cfg = _write(tmp_path, "c.json", {"instance": instance, "attack": point})
    assert cli.main(["analyze", "--config", cfg, *options]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [f["attack"] for f in doc.pop("attacks")] == [
        "small_set", "small_values", "unbounded_small_values"
    ]
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_analyze_reads_the_table_cap(tmp_path, capsys):
    doc = {"instance": TRACE_INSTANCE_B["instance"], "attack": {"n": 3, "a": 2017}}
    cfg = _write(tmp_path, "c.json", {**doc, "table_cap": 5})
    assert cli.main(["analyze", "--config", cfg]) == 0
    small_set = json.loads(capsys.readouterr().out)["attacks"][0]
    assert not small_set["applicable"]
    assert small_set["condition"] == (
        "table infeasible: (15)^3 ~ 10^4 > cap 5.0e+00 (order too large)"
    )


def test_sample_matrices_beyond_the_entry_bound_are_refused(tmp_path, capsys):
    # M = 10**12 at N = 23 used to die allocating the sample rows
    doc = _order6_config(trials=1)
    doc["instance"] = dict(TRACE_INSTANCE_B["instance"])
    doc["attack"].update(mode="trace", n=3, a=2017, M=10**12)
    cfg = _write(tmp_path, "c.json", doc)
    assert cli.main(["attack", "--config", cfg]) == 3
    assert capsys.readouterr().err == "refused: M*N = 23000000000000 <= 2**22 = 4194304\n"


def test_sample_entry_bound_boundary_is_exact():
    ring = load_ring_doc(TRACE_INSTANCE_B["instance"])
    M = campaign.MAX_SAMPLE_ENTRIES // ring.N
    check_draws(ring, GaussianSpec(1.0, False), M)
    with pytest.raises(PreconditionRefused, match=r"M\*N = 4194326 <= 2\*\*22"):
        check_draws(ring, GaussianSpec(1.0, False), M + 1)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the block model undercounts the coefficients of c0(e) and "
    "the table bound is a Gaussian width, so a truncated error can leave Sigma"
))
@pytest.mark.parametrize("inst", [TRACE_INSTANCE_A, TRACE_INSTANCE_B], ids=["ring_a", "ring_b"])
def test_truncated_small_set_keeps_the_true_value(inst):
    # the truncated bound promises success 1 on PLWE batches, but ring A
    # keeps the true value in 126 and ring B in 103 of the 164 PLWE trials
    doc = {
        "instance": {**inst["instance"], "truncated": True},
        "attack": {"family": "small_set", "mode": "trace", **inst["extension"],
                   "M": 40, "trials": 300},
        "seed": 11,
    }
    report = run_campaign(config_from_dict(doc))
    plan = report.plan_summary
    promise = posterior_bounds(doc["instance"]["q"], plan["sigma_table_analytic_bound"],
                               plan["order"], True, 40).success_on_plwe
    assert promise == 1.0
    kept = [t["true_value_survives"] for t in report.trials if t["truth"] == "plwe"]
    assert len(kept) == 164
    assert sum(kept) == 164
