import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import initsyn
from initsyn.languages import get_language, list_builtins
from initsyn.objtypes import ObjType
from initsyn.signatures import (
    ArgSpec,
    TVar,
    TermArity,
    TypeSignature,
    TypedSignature,
    min_degree,
    validate_signature,
)


def arr(a, b):
    return ObjType("arr", (a, b))


def test_builtin_signatures_validate():
    for name in list_builtins()[0]:
        report = validate_signature(get_language(name))
        assert report.ok, f"{name}: {report}"


def test_variable_exceeding_degree_is_reported():
    sig = TypedSignature(
        types=TypeSignature("L", {"arr": 2, "Nat": 0}),
        terms=(TermArity("bad", 2, (ArgSpec((), TVar(3)),), TVar(1)),),
    )
    report = validate_signature(sig)
    assert any("variable 3 exceeds degree 2" in e for e in report.entries)


def test_wrong_argument_count_is_reported():
    sig = TypedSignature(
        types=TypeSignature("L", {"arr": 2, "Nat": 0}),
        terms=(TermArity("c", 0, (), ObjType("arr", (ObjType("Nat"),))),),
    )
    report = validate_signature(sig)
    assert any("arr expects 2 arguments" in e for e in report.entries)


def test_unknown_constructor_and_duplicates():
    sig = TypedSignature(
        types=TypeSignature("L", {"Nat": 0}),
        terms=(
            TermArity("c", 0, (), ObjType("Mystery")),
            TermArity("c", 0, (), ObjType("Nat")),
        ),
        atoms=("Nat",),
    )
    entries = validate_signature(sig).entries
    assert any("unknown type constructor 'Mystery'" in e for e in entries)
    assert any("duplicate arity name" in e for e in entries)
    assert any("duplicate type constructor" in e for e in entries)


def test_reserved_names_rejected():
    sig = TypedSignature(
        types=TypeSignature("L", {"__x": 0}),
        terms=(TermArity("__iter", 0, (), ObjType("__x")),),
    )
    entries = validate_signature(sig).entries
    assert any("'__x': name is reserved" in e for e in entries)
    assert any("'__iter': name is reserved" in e for e in entries)


def test_min_degree():
    assert min_degree(arr(TVar(1), TVar(2))) == 2
    assert min_degree(ObjType("Nat")) == 0
    assert min_degree(arr(arr(TVar(1), TVar(1)), TVar(2))) == 2


def test_min_degree_at_depth_10000_under_the_default_recursion_limit():
    """The walk keeps its own stack: a 10 000-deep ``arr($1,Nat)`` chain
    has degree 1, and a non-expression at its bottom is still named."""
    deep, bad = TVar(1), "junk"
    for _ in range(10_000):
        deep, bad = arr(deep, ObjType("Nat")), arr(bad, ObjType("Nat"))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert min_degree(deep) == 1
        assert min_degree(arr(ObjType("Nat"), deep)) == 1
        with pytest.raises(TypeError, match="^not a type expression: 'junk'$"):
            min_degree(bad)
    finally:
        sys.setrecursionlimit(saved)


def test_min_degree_bounded_by_declared_degree_on_builtins():
    for name in list_builtins()[0]:
        sig = get_language(name)
        for ar in sig.terms:
            exprs = [ar.result]
            for spec in ar.args:
                exprs.append(spec.body)
                exprs.extend(spec.binders)
            assert all(min_degree(e) <= ar.degree for e in exprs)


def test_validation_is_deterministic():
    sig = get_language("PCF")
    assert validate_signature(sig) == validate_signature(sig)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(initsyn.__path__)])
def test_each_module_imports_first(module):
    """Each ``initsyn`` module loads as the package's first, ``__init__``
    not run, in a fresh interpreter: no two modules import each other."""
    code = (
        "import importlib, importlib.machinery, importlib.util, sys\n"
        f"spec = importlib.machinery.PathFinder.find_spec('initsyn', [{str(Path(initsyn.__path__[0]).parent)!r}])\n"
        "sys.modules['initsyn'] = importlib.util.module_from_spec(spec)\n"
        f"importlib.import_module('initsyn.{module}')\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
