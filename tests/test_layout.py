"""The package ships one arithmetic path and one sample path.  The scalar
algebra that the tests compare the numpy path against, and the per-sample
Sample objects, live in tests/reference.py; no module of src/plwe_audit or
scripts defines, imports or reads them, and the package does not export
them.  The attacks read Pairs only and take no evaluation point.  A Sigma
table is its mask alone, an AttackPlan holds what its trials read and is
built once and frozen, and the analyze command reads a point through the
reader and resolver that plans use and judges it by the scan's
analysis.assess_point, the one place outside build_plan that builds a
flag; build_plan builds only its own family's.  Roots
and divisors come from the scan's fold alone, and fields states the
irreducibility criterion once, in log form.  The terms of f have one
home, RqContext.support: no other code walks the coefficients of f to pick
out the nonzero ones.  A generator of F_q* is sought, and the table of its
powers built, in rings.generator_powers alone; analysis and attacks take
G from it, and scan_instance, binomial_logs and block_structures take no
tuning knob.  A point is the (n, a) of its
binomial y^n - a from the config reader on, an F_q root alpha being
(1, alpha): the reader takes n and a when both are given, else alpha,
and reads no attack.mode, and ExtFieldCtx(n, a, modulus) holds it with a
as an int; the residue wrapper and the arithmetic only tests used are
gone from src/, and so are the
members only tests read.  A closed form that takes the truncation mode derives p0 from
it, and the series tolerance is a constant.  A campaign runs its trials
through one loop in every process, and no module uses an executor.  A
point's class counts come from analysis.class_counts alone: a block
structure holds them, and the Sigma table and its size take them.  The
posterior closed forms take a filter's mask size and class count, never an
attack family, and each array limit of rings is checked in one place.  The
package root re-exports nothing.  Each result has one route: a replay
checks R_{q,0} through the evaluation of SampleBatch.pairs, p0 comes from
samplers.p0_of, a missing delta is "series", and the small-values attack
is the small-set attack on the quarter mask.  numpy is the one runtime
dependency: no module imports scipy.  A report prints no number that no
verdict reads: the unbounded outcome is no Decision and carries no paper
threshold T, and no plan prints the chunked attacks' extended gate."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import plwe_audit
from plwe_audit import attacks, fields
from plwe_audit.analysis import (
    BlockStructure,
    PointVuln,
    PosteriorBounds,
    ProbabilityReport,
    block_structures,
    delta_probability,
    f_of_r,
    minimal_samples,
    posterior_bounds,
    scan_instance,
    small_set_size,
)
from plwe_audit.attacks import AttackVerdict, Decision, HitCountDecision
from plwe_audit.campaign import (
    AttackPlan,
    AttackSpec,
    PreconditionRefused,
    _check,
    point_from_dict,
    resolve_point,
)
from plwe_audit.fields import ExtFieldCtx, PrimeModulus, mult_order
from plwe_audit.rings import RingPoly, RqContext, binomial_logs
from plwe_audit.samplers import GaussianSpec, SampleBatch

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
    # the int64 guard that named the table limit, which rings'
    # require_table_modulus and require_int64_sums replaced
    "_require_int64_modulus",
    # the small-set attack on the quarter mask under a second name
    "small_values_attack",
    # the point's spelling outside PointVuln.to_dict
    "point_keys",
    # attack.mode, a second spelling of the point
    "MODES",
    # the unpruned fold, which checked every a in F_q* before the
    # irreducibility filter dropped most of them
    "_binomial_fold",
    # the unbounded attack's aggregate threshold T and the chunked attacks'
    # applicability inequality, which no verdict read
    "usva_threshold", "GateReport", "extended_gate",
})
# names too generic for the AST guard, checked on their owners
DELETED_ATTRIBUTES = (
    (PrimeModulus, "element"), (fields, "centered"), (RqContext, "zero"), (RqContext, "one"),
    (RqContext, "monomial"), (RingPoly, "is_zero"),
    # members only tests read
    (AttackVerdict, "guess"), (PointVuln, "sigma_bar"), (SampleBatch, "__getitem__"),
    (RqContext, "_reduction_rows"), (RingPoly, "as_array"),
    # the blocks that class counts replaced
    (BlockStructure, "r_eff"), (BlockStructure, "blocklen"), (BlockStructure, "case_kind"),
    # second spellings of p0_of and of the series' own term counts
    (GaussianSpec, "p0"), (ProbabilityReport, "terms_used"),
    # T, printed in every unbounded trial row and read by no verdict
    (HitCountDecision, "threshold"),
)
ATTACKS = ("small_set_attack", "unbounded_small_values_attack", "extended_attack")
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
    assert not EXT_ELEMENT_CONSTRUCTORS & set(vars(ExtFieldCtx))
    # the irreducibility criterion has one home: fields, in log form
    defined = {
        (path.name, node.name) for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and "irreducible" in node.name
    }
    assert defined == {
        ("fields.py", "binomial_order_irreducible"), ("fields.py", "binomial_log_irreducible")
    }
    for owner, name in DELETED_ATTRIBUTES:
        assert not hasattr(owner, name), (owner, name)
        # a dataclass field without a default is no class attribute
        if dataclasses.is_dataclass(owner):
            assert name not in {f.name for f in dataclasses.fields(owner)}, (owner, name)
    # the unbounded outcome decides by its best candidate alone, not by a
    # Decision's vote count against a threshold
    assert not issubclass(HitCountDecision, Decision)
    for name in ATTACKS:
        params = inspect.signature(getattr(attacks, name)).parameters
        assert list(params)[0] == "pairs" and "point" not in params, name


def test_one_home_for_the_terms_of_f():
    """A loop or comprehension over f_mod or f_int that tests its items
    sits in RqContext.support alone."""
    loops = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    homes = set()
    paths = sorted((ROOT / "src" / "plwe_audit").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    )
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, loops):
                    walks = [(gen.iter, gen.ifs) for gen in node.generators]
                elif isinstance(node, ast.For):
                    walks = [(node.iter, [n for n in ast.walk(node) if isinstance(n, ast.If)])]
                else:
                    continue
                for over, tests in walks:
                    coeffs = {n.attr for n in ast.walk(over) if isinstance(n, ast.Attribute)}
                    if tests and coeffs & {"f_mod", "f_int"}:
                        homes.add((path.name, fn.name))
    assert homes == {("rings.py", "support")}


def _order_cofactor(node: ast.expr) -> bool:
    """Whether node is (m - 1) // p, the exponent of a primitivity test."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and isinstance(node.left.right, ast.Constant) and node.left.right.value == 1)


def test_one_generator_table():
    """A primitivity test pow(g, (q - 1) // p, q) sits in
    rings.generator_powers alone, and analysis and attacks bind G only to
    what it returns; Pollard rho's g in fields is a gcd, never tested so."""
    searches = set()
    for path in sorted((ROOT / "src" / "plwe_audit").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    ):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
                and len(node.args) == 3 and _order_cofactor(node.args[1])
                for node in ast.walk(fn)
            ):
                searches.add((path.name, fn.name))
    assert searches == {("rings.py", "generator_powers")}
    for name in ("analysis.py", "attacks.py"):
        tree = ast.parse((ROOT / "src" / "plwe_audit" / name).read_text(encoding="utf-8"))
        bound = [
            node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "G" for t in node.targets)
        ]
        assert bound, name
        for value in bound:
            calls = {getattr(c.func, "id", None) for c in ast.walk(value) if isinstance(c, ast.Call)}
            assert "generator_powers" in calls, (name, ast.unparse(value))
    assert list(inspect.signature(scan_instance).parameters) == [
        "ctx", "sigma", "truncated", "n_max", "table_cap"
    ]
    assert list(inspect.signature(binomial_logs).parameters) == ["ctx", "n", "G"]
    assert list(inspect.signature(block_structures).parameters) == ["n", "idx", "N", "sigma", "G"]


def test_package_root_exports_nothing():
    """Each name has one import path, its module's: the root holds its
    dunders and the submodules that imports bound on it."""
    for name, value in vars(plwe_audit).items():
        if not (name.startswith("__") and name.endswith("__")):
            assert isinstance(value, types.ModuleType), name
            assert value.__name__ == f"plwe_audit.{name}", name
    # so importing one module does not import the others
    code = "import sys, plwe_audit.rings; print('plwe_audit.analysis' in sys.modules)"
    assert _run_python(code) == "False\n"


def _run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_runtime_needs_no_scipy():
    """numpy is the one runtime dependency: no module of src/plwe_audit
    imports scipy, and importing the CLI or the campaign loads none."""
    for path in sorted((ROOT / "src" / "plwe_audit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path.name, names)
    for module in ("plwe_audit.cli", "plwe_audit.campaign"):
        code = f"import sys, {module}; print('scipy' in sys.modules)"
        assert _run_python(code) == "False\n", module


def test_one_precondition_path():
    mask = attacks.build_sigma_table_trace(1, 13, (4,), 1.0)
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
    # analyze reads a point's flags and margins from analysis.assess_point
    assert not {
        "delta_probability", "small_set_flag", "small_values_flag", "unbounded_flag",
        "small_set_size", "point_keys",
    } & imported
    flags = {"small_set_flag", "small_values_flag", "unbounded_flag"}
    callers = {}
    for path in sorted((ROOT / "src" / "plwe_audit").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            called = {
                node.func.id for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            } & flags
            if called:
                callers[path.stem, top.name] = called
    assert callers == {
        ("analysis", "assess_point"): flags,
        ("campaign", "build_plan"): {"small_values_flag", "unbounded_flag"},
    }
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
    # the reader names the point by its fields alone, and nothing reads attack.mode
    reader = ast.parse(inspect.getsource(point_from_dict))
    assert "mode" not in {node.value for node in ast.walk(reader) if isinstance(node, ast.Constant)}
    paths = sorted((ROOT / "src" / "plwe_audit").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    )
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            key = (
                node.slice if isinstance(node, ast.Subscript)
                else node.args[0] if isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute) and node.func.attr in ("get", "pop")
                else node.left if isinstance(node, ast.Compare)
                else None
            )
            assert not (isinstance(key, ast.Constant) and key.value == "mode"), path.name
    assert [f.name for f in dataclasses.fields(ExtFieldCtx)] == ["n", "a", "modulus"]
    assert list(inspect.signature(mult_order).parameters) == ["a", "q"]
    assert list(inspect.signature(attacks.build_sigma_table_trace).parameters)[:3] == [
        "a", "q", "counts"
    ]
    assert list(inspect.signature(small_set_size).parameters)[0] == "counts"
    assert [f.name for f in dataclasses.fields(BlockStructure)] == [
        "order", "n_terms", "counts", "sigma_bar"
    ]


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


def test_closed_forms_take_a_mask_not_a_family():
    assert list(inspect.signature(posterior_bounds).parameters) == [
        "q", "size", "r", "truncated", "M"
    ]
    assert list(inspect.signature(minimal_samples).parameters) == [
        "q", "size", "r", "truncated", "target"
    ]
    for fn in (posterior_bounds, minimal_samples):
        assert all(p.default is p.empty for p in inspect.signature(fn).parameters.values())
    tree = ast.parse((ROOT / "src" / "plwe_audit" / "analysis.py").read_text(encoding="utf-8"))
    forms = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in ("_per_sample_mass", "posterior_bounds", "minimal_samples")]
    assert len(forms) == 3
    families = {
        node.value for fn in forms for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and node.value in ("small_set", "small_values")
    }
    assert not families


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


def test_one_route_each():
    """A replay's R_{q,0} check is the one in SampleBatch.pairs, a missing
    delta is "series" from the config reader on, and a precondition report
    holds only the lines that held."""
    campaign = ROOT / "src" / "plwe_audit" / "campaign.py"
    assert "rq0_witnesses" not in _names(campaign)
    tree = ast.parse(campaign.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert ast.unparse(functions["load_samples"].returns) == "Pairs"
    none_tests = [
        node for node in ast.walk(functions["build_plan"]) if isinstance(node, ast.Compare)
        and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)
    ]
    assert not none_tests
    assert {f.name: f.default for f in dataclasses.fields(AttackSpec)}["delta"] == "series"
    lines: list[str] = []
    _check(lines, True, "held")
    with pytest.raises(PreconditionRefused, match="^failed$"):
        _check(lines, False, "failed")
    assert lines == ["ok: held"]
