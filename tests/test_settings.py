"""Inventory of the package's settings and reach: every default-valued
parameter, the parser's global options, the exported names that no module
of the package references, the functions that scale coefficients by
roots._unit_scaled, and the caches that live as long as the process,
against committed lists.

A new knob, or one removed, fails here and names itself, so that it shows
up in review as an edit to these lists; so does a new export that only the
tests reach, a caller that scales for a callee that should own its range,
and a new cache with what it is keyed on.
"""

import argparse
import ast
from pathlib import Path

import polyconv
from polyconv import cli

#: module.function(param), with enclosing classes and functions in the name
DEFAULT_PARAMS = {
    "classes.in_T(closed)",
    "classes._route_roots(roots)",
    "classes.in_D_third(closed)",
    "classes.in_D_first(closed)",
    "classes.in_D_second(closed)",
    "classes.eq8_oracle(closed)",
    "classes.in_D(closed)",
    "classes.in_D(method)",
    "classes.hermite_biehler(strict)",
    "classes.hermite_kakeya(strict)",
    "classes.pre_class_test(which)",
    "classes.pre_class_test(method)",
    "cli.main(argv)",
    "domains.omega(closed)",
    "domains.limacon_inner(closed)",
    "domains.limacon_outer(closed)",
    "domains.contains(tol)",
    "domains.root_set_in(tol)",
    "harness.TrialReport.record(witness)",
    "harness.sample_D(strategy)",
    "harness._sample_region(allow_boundary)",
    "harness.sample_inner_limacon(closed)",
    "harness.sample_outer_limacon(closed)",
    "harness._judge(indeterminate)",
    "poly.Polynomial.__init__(nominal_degree)",
    "poly.Polynomial.from_roots(leading)",
    "poly.Polynomial.approx_eq(tol)",
    "poly._expand(leading)",
    "roots.interspersed(strict)",
}

#: module.function that call roots._unit_scaled: each owns its range
SCALING_SITES = {
    "classes.eq8_oracle",
    "qconv.delta",
    "roots._circle_sign",
    "roots._inclusion_radii",
    "roots.find_roots",
}

#: every cache that lives as long as the process, and what its entries are
#: keyed on: the functions functools memoizes, the slots that an object
#: sets to None in __init__ and fills on first use, and module-level names
#: that a function stores into
CACHES = {
    "classes._oracle_grid": "closed",
    "cli._build_parser": "nothing: the one parser",
    "herglotz._kernel_nodes": "m",
    "qconv._table": "(n, lam)",
    "roots._circle_nodes": "size, the number of coefficients",
    "poly.Polynomial._degree": "the object, whose coefficients are read-only",
    "poly.Polynomial._roots": "the object, whose coefficients are read-only; "
                              "roots.find_roots fills it",
}

GLOBAL_OPTIONS = {"--out", "--rng-seed", "--output-format"}

#: exported names no module of the package references, and why each stays
UNREACHED_EXPORTS = {
    "QCoefficientTable": "the benchmark's warm-up builds its rows",
    "build_char_polys": "the benchmark's per-layer figures name it",
    "is_lambda_extremal": "the benchmark's per-layer figures name it",
    "gauss_product": "the paper's R_n(q; z)",
    "hermite_biehler": "the Hermite-Biehler interspersion lemma",
    "hermite_kakeya": "the Hermite-Kakeya interspersion lemma",
    "disk_limit_check": "the half-plane check for the n-inverse",
    "folded_polynomial": "criterion 9a's self-inversive polynomial",
}


def _default_params(tree, module):
    """module.function(param) for each parameter with a default."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):] if a.defaults else []
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out.update(f"{module}.{prefix}{child.name}({p.arg})" for p in named)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _diff(found, committed):
    return (f"added: {sorted(found - committed)}; removed: {sorted(committed - found)}; "
            "edit the committed list in tests/test_settings.py if this is meant")


def test_default_valued_parameters():
    found = set()
    for module, tree in _package_trees().items():
        found |= _default_params(tree, module)
    assert found == DEFAULT_PARAMS, _diff(found, DEFAULT_PARAMS)


def _package_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(polyconv.__file__).parent.glob("*.py"))}


def test_unreached_exports():
    trees = _package_trees()
    exported = {a.asname or a.name for node in ast.walk(trees.pop("__init__"))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = exported - used
    assert found == set(UNREACHED_EXPORTS), _diff(found, set(UNREACHED_EXPORTS))


def test_scaling_sites():
    found = set()
    for module, tree in _package_trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Name) and node.id == "_unit_scaled"
                    and isinstance(node.ctx, ast.Load) for node in ast.walk(fn)):
                found.add(f"{module}.{fn.name}")
    assert found == SCALING_SITES, _diff(found, SCALING_SITES)


def test_global_options():
    found = {s for a in cli._build_parser()._actions
             if not isinstance(a, argparse._HelpAction) for s in a.option_strings}
    assert found == GLOBAL_OPTIONS, _diff(found, GLOBAL_OPTIONS)


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _caches(tree, module):
    """module.function for memoized functions, module.Class.slot for slots
    that __init__ sets to None, and module.name for module-level names
    stored into from inside a function."""
    found = set()
    top = {t.id for node in tree.body if isinstance(node, ast.Assign)
           for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_decorator_name(d) in ("cache", "lru_cache") for d in node.decorator_list):
                found.add(f"{module}.{node.name}")
            for sub in ast.walk(node):
                if isinstance(sub, ast.Global):
                    found.update(f"{module}.{name}" for name in sub.names)
                elif (isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store)
                      and isinstance(sub.value, ast.Name) and sub.value.id in top):
                    found.add(f"{module}.{sub.value.id}")
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    found.update(
                        f"{module}.{node.name}.{t.attr}" for a in ast.walk(fn)
                        if isinstance(a, ast.Assign) and isinstance(a.value, ast.Constant)
                        and a.value.value is None
                        for t in a.targets if isinstance(t, ast.Attribute))
    return found


def test_caches():
    found = set()
    for module, tree in _package_trees().items():
        found |= _caches(tree, module)
    assert found == set(CACHES), _diff(found, set(CACHES))
