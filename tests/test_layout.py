"""The package ships one arithmetic path and one sample path.  The scalar
algebra that the tests compare the numpy path against, and the per-sample
Sample objects, live in tests/reference.py; no module of src/plwe_audit or
scripts defines, imports or reads them, and the package does not export
them.  The attacks read Pairs only and take no evaluation point.  A Sigma
table is its mask alone, an AttackPlan holds what its trials read and is
built once and frozen, and the analyze command reads and judges a point
through the reader, resolver and analysis functions that plans use.  Roots
and divisors come from the scan's fold alone, and ExtFieldCtx is the one
irreducibility test.  A point is the (n, a) of its binomial y^n - a from the
config reader on, an F_q root alpha being (1, alpha), and ExtFieldCtx(n,
a, modulus) holds it with a as an int; the residue wrapper and the
arithmetic only tests used are gone from src/, and so are the members only
tests read.  A closed form that takes the truncation mode derives p0 from
it, and the series tolerance is a constant.  A campaign runs its trials
through one loop in every process, and no module uses an executor."""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np

import plwe_audit
from plwe_audit import attacks, fields
from plwe_audit.analysis import PointVuln, PosteriorBounds, delta_probability, f_of_r
from plwe_audit.attacks import AttackVerdict
from plwe_audit.campaign import AttackPlan, AttackSpec, resolve_point
from plwe_audit.fields import ExtFieldCtx, PrimeModulus, mult_order
from plwe_audit.rings import RingPoly, RqContext, binomial_logs
from plwe_audit.samplers import SampleBatch

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_ONLY = frozenset({
    # samplers
    "draw_gaussian", "uniform_oracle", "plwe_oracle", "uniform_oracle_rq0",
    "plwe_oracle_rq0", "sample_rq0", "Rq0Draw", "uniform_rq0_poly", "raw_error",
    # rings
    "ring_add", "ring_sub", "ring_mul", "_same_ctx", "eval_poly",
    "rq0_membership", "Rq0Membership",
    # fields
    "ExtFieldElement", "trace",
    # per-sample objects
    "Sample", "from_samples",
})
# the pure-Python gcd(f, x^q - x) root search, for moduli no command accepts
DELETED = frozenset({
    "_poly_trim", "_poly_mod", "_poly_gcd", "_poly_mulmod", "_poly_powmod",
    "_poly_quot", "_roots_by_splitting",
    # the variance-case layer, inlined into analysis.block_structure
    "VarianceCase", "classify_variance_case", "_centered_powers",
    # the F_q table wrapper and the per-sample adaptors of the attacks
    "build_sigma_table_fq", "_as_batch", "_pairs",
    # the precondition formulas outside analysis's flags and small_set_size
    "log_small_set_size", "_evaluation_point", "_small_set_flag", "_small_values_flag",
    "_usva_flag",
    # the wrappers of the fold, the irreducibility test outside ExtFieldCtx,
    # and analysis's PrimeModulus fallback
    "find_fq_roots", "find_binomial_factors", "_fold_points", "is_irreducible_binomial",
    "_q_of",
    # the per-kind scan points and the mode-dependent spec, and the uniform
    # quarter offset, which quarter_count(q)/q - 1/2 gives
    "RootVuln", "FactorVuln", "samples_per_trial", "uniform_offset",
    # the Sigma table wrapper, the plan's sample helper and the end-of-campaign
    # sample writer
    "SigmaTable", "_generate_samples", "save_samples",
    # the residue wrapper and its errors, the test-only quarter and mod-4
    # helpers (in_quarter_value lives in tests/reference.py), and the
    # campaign's verdict dispatch, which AttackVerdict.is_plwe replaced
    "FieldElement", "DivisionByZero", "ContextMismatch", "q_mod4", "in_quarter_interval",
    "in_quarter_value", "_says_plwe",
    # the series grid, which analyze computes with f_of_r
    "f_of_r_table",
    # the executor's worker hooks: a pooled campaign runs the trial loop of
    # a sequential one in each process
    "_init_worker", "_trial_worker", "_worker_plan", "ProcessPoolExecutor",
})
# names too generic for the AST guard, checked on their owners
DELETED_ATTRIBUTES = (
    (PrimeModulus, "element"), (fields, "centered"), (RqContext, "zero"), (RqContext, "one"),
    (RqContext, "monomial"), (RingPoly, "is_zero"),
    # members only tests read
    (AttackVerdict, "guess"), (PointVuln, "sigma_bar"), (SampleBatch, "__getitem__"),
    (RqContext, "_reduction_rows"), (RingPoly, "as_array"),
)
ATTACKS = ("small_set_attack", "small_values_attack", "unbounded_small_values_attack",
           "extended_attack")
EXT_ELEMENT_CONSTRUCTORS = frozenset({"element", "from_base", "zero", "one", "alpha"})


def _names(path: Path) -> set[str]:
    """Every name a module defines, imports, binds, reads or reads as an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_one_arithmetic_path():
    paths = sorted((ROOT / "src" / "plwe_audit").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    )
    assert len(paths) > 10
    for path in paths:
        found = _names(path) & (REFERENCE_ONLY | DELETED)
        assert not found, f"{path.relative_to(ROOT)} uses {sorted(found)}"
    assert not REFERENCE_ONLY & set(vars(plwe_audit))
    assert not {"sigma_bar", "Sample"} & set(vars(plwe_audit))
    assert not EXT_ELEMENT_CONSTRUCTORS & set(vars(ExtFieldCtx))
    assert list(inspect.signature(binomial_logs).parameters) == ["ctx", "n", "G"]
    for owner, name in DELETED_ATTRIBUTES:
        assert not hasattr(owner, name), (owner, name)
    for name in ATTACKS:
        params = inspect.signature(getattr(attacks, name)).parameters
        assert list(params)[0] == "pairs" and "point" not in params, name


def test_one_precondition_path():
    mask = attacks.build_sigma_table_trace(1, 13, 1, 4, 1.0)
    assert type(mask) is np.ndarray and mask.dtype == bool and mask.shape == (13,)
    assert not hasattr(attacks, "SigmaTable")
    cli = ROOT / "src" / "plwe_audit" / "cli.py"
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {"block_structure", "log_small_set_size", "int_field"} & imported
    # the attack section's point fields are read by campaign.point_from_dict
    keys = {
        node.slice.value if isinstance(node, ast.Subscript) else node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get" and node.args and isinstance(node.args[0], ast.Constant)
    }
    assert "attack" in keys and not {"alpha", "n", "a"} & keys


def test_one_point_form():
    assert [f.name for f in dataclasses.fields(AttackSpec)] == [
        "family", "n", "a", "M", "M0", "delta", "trials"
    ]
    assert list(inspect.signature(resolve_point).parameters) == ["ring", "sigma", "n", "a"]
    assert [f.name for f in dataclasses.fields(ExtFieldCtx)] == ["n", "a", "modulus"]
    assert list(inspect.signature(mult_order).parameters) == ["a", "q"]
    assert list(inspect.signature(attacks.build_sigma_table_trace).parameters)[:2] == ["a", "q"]


def test_plan_is_frozen_and_holds_what_trials_read():
    assert AttackPlan.__dataclass_params__.frozen
    assert [f.name for f in dataclasses.fields(AttackPlan)] == [
        "cfg", "point", "blocks", "member", "member_r", "delta", "preconditions"
    ]


def test_closed_forms_take_what_callers_vary():
    """p0 is derived from the truncation mode wherever that mode is passed,
    and no function takes a series tolerance."""
    for path in sorted((ROOT / "src" / "plwe_audit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert not {"truncated", "p0"} <= params, (path.name, node.name)
                assert "tol" not in params, (path.name, node.name)
    assert list(inspect.signature(delta_probability).parameters) == ["q", "sigma_bar_value"]
    assert list(inspect.signature(f_of_r).parameters) == ["ratio"]
    assert [f.name for f in dataclasses.fields(PosteriorBounds)] == [
        "vote_posterior", "not_plwe_posterior", "success_on_plwe", "success_on_uniform"
    ]


def test_one_trial_loop():
    for path in sorted((ROOT / "src" / "plwe_audit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "concurrent" for m in modules), path.name
    tree = ast.parse((ROOT / "src" / "plwe_audit" / "campaign.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # the module functions each function names, called or passed on
    named = {
        name: {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} & set(functions)
        for name, fn in functions.items()
    }
    reached, todo = set(), ["run_campaign"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += named[name]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    sites = []
    for name, fn in functions.items():
        in_loop = {
            id(n) for loop in ast.walk(fn) if isinstance(loop, loops) for n in ast.walk(loop)
        }
        sites += [
            (name, id(n) in in_loop)
            for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "run_trial"
        ]
    assert len(sites) == 1, sites
    (name, in_loop), = sites
    assert in_loop and name in reached and name != "run_campaign", sites
