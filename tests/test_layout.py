"""The package ships one arithmetic path and one sample path.  The scalar
algebra that the tests compare the numpy path against, and the per-sample
Sample objects, live in tests/reference.py; no module of src/plwe_audit or
scripts defines, imports or reads them, and the package does not export
them.  The attacks read Pairs only and take no evaluation point.  A Sigma
table is its mask alone, and the analyze command reads and judges a point
through the reader, resolver and analysis functions that plans use.  Roots
and divisors come from the scan's fold alone, and ExtFieldCtx is the one
irreducibility test.  A point is the (n, a) of its binomial y^n - a from the
config reader on, an F_q root alpha being (1, alpha)."""

import ast
import dataclasses
import inspect
from pathlib import Path

import plwe_audit
from plwe_audit import attacks
from plwe_audit.attacks import SigmaTable
from plwe_audit.campaign import AttackSpec, resolve_point
from plwe_audit.fields import ExtFieldCtx
from plwe_audit.rings import binomial_logs

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
})
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
    for name in ATTACKS:
        params = inspect.signature(getattr(attacks, name)).parameters
        assert list(params)[0] == "pairs" and "point" not in params, name


def test_one_precondition_path():
    assert "values" not in {f.name for f in dataclasses.fields(SigmaTable)}
    assert not hasattr(SigmaTable, "values")
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
