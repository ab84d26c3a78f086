"""The value-class contract: every immutable value class of the package
behaves as the frozen dataclass with the same fields would, and importing
the package stays free of the modules such dataclasses pull in and of the
law checker, while keeping every public name, each the only name of its
thing."""

import ast
import copy
import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import initsyn
from initsyn.laws import GenConfig, LawReport
from initsyn.objtypes import Frozen, ObjType, TVar, TypeTranslation
from initsyn.signatures import ArgSpec, TermArity, TypedSignature, TypeSignature, ValidationReport
from initsyn.terms import Con, Substitution, Var
from initsyn.translate import OpaqueRepresentation, TplMacro, TplMeta, Translation

A, B = ObjType("A"), ObjType("B")
TS = TypeSignature("X", {"A": 0, "B": 0})
ARITY = TermArity("c", 0, (), A)
SIG = TypedSignature(TS, (ARITY,))
TT = TypeTranslation(TS, TS, {})
C = Con("c", None, (), ())

# class -> (its fields as the reference dataclass declares them, a
# positional value for each field, ending in the defaults, and another
# value differing in some field)
CASES = {
    TVar: (["index"], (1,), (2,)),
    TypeTranslation: (["source", "target", "templates"], (TS, TS, {}), (TS, TS, {"A": A})),
    TypeSignature: (["name", "constructors"], ("X", {"A": 0}), ("Y", {"A": 0})),
    ArgSpec: (["binders", "body"], ((A,), B), ((), B)),
    TermArity: (
        ["name", "degree", "args", "result", ("family_index", bool, False)],
        ("c", 0, (), A, False),
        ("c", 0, (), A, True),
    ),
    TypedSignature: (["types", "terms", ("atoms", tuple, ())], (TS, (ARITY,), ()), (TS, ())),
    ValidationReport: (["entries"], (("x",),), ((),)),
    Substitution: (
        ["domain", "codomain", "images"],
        ((A,), (A,), (Var(0),)),
        ((A,), (A, A), (Var(1),)),
    ),
    TplMeta: (["index"], (1,), (2,)),
    TplMacro: (["name"], ("M",), ("N",)),
    Translation: (
        [
            "name",
            "source",
            "target",
            "type_map",
            "term_map",
            ("macros", dict, dataclasses.field(default_factory=dict)),
        ],
        ("x", SIG, SIG, TT, {}, {}),
        ("x", SIG, SIG, TT, {"c": C}),
    ),
    OpaqueRepresentation: (
        ["name", "source", "target", "type_map", "ops"],
        ("o", SIG, SIG, TT, {}),
        ("p", SIG, SIG, TT, {}),
    ),
    GenConfig: (
        ["seed", ("max_depth", int, 6), ("cases", int, 1000), ("retries", int, 16)],
        (1, 6, 1000, 16),
        (2,),
    ),
    LawReport: (
        ["law", "cases_run", "cases_skipped", "counterexample", "seed"],
        ("l", 3, 0, None, 5),
        ("l", 3, 0, "x", 5),
    ),
}


def _reference(cls):
    fields, _, _ = CASES[cls]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _raises(make):
    try:
        make()
    except TypeError:
        return TypeError
    return None


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_class_behaves_as_the_frozen_dataclass(cls):
    ref_cls = _reference(cls)
    _, values, other_values = CASES[cls]
    names = [f.name for f in dataclasses.fields(ref_cls)]
    required = sum(
        f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        for f in dataclasses.fields(ref_cls)
    )
    assert cls.__match_args__ == ref_cls.__match_args__ == tuple(names)

    obj, ref = cls(*values), ref_cls(*values)
    assert repr(obj) == repr(ref)
    assert cls(**dict(zip(names, values))) == obj
    assert repr(cls(*values[:required])) == repr(ref_cls(*values[:required]))
    assert cls(*values[:required]) == obj
    for bad in (
        lambda c: c(*values[: required - 1]),
        lambda c: c(*values, None),
        lambda c: c(*values, bogus=1),
        lambda c: c(*values, **{names[0]: values[0]}),
    ):
        assert _raises(lambda: bad(cls)) is _raises(lambda: bad(ref_cls)) is TypeError

    other = cls(*other_values)
    assert (obj == cls(*values)) is True and (obj != cls(*values)) is False
    assert (obj == other) is (ref == ref_cls(*other_values)) is False
    assert obj != other and obj != ref and ref != obj and obj != values
    twin_cls = type("Twin", (Frozen,), {"__slots__": tuple(names), "__match_args__": tuple(names)})
    assert obj != twin_cls(*values) and twin_cls(*values) != obj
    try:
        expected = hash(ref)
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected == hash(values)

    for name in (*names, "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert tuple(getattr(obj, f) for f in names) == values

    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls and twin == obj and repr(twin) == repr(obj)


def test_derived_caches_stay_out_of_equality_hash_and_repr():
    sig = TypedSignature(TS, (ARITY,))
    sig._arities["d"] = ARITY
    sig.binder_counts["d"] = (1,)
    assert sig == SIG and repr(sig) == repr(SIG)
    assert repr(sig) == repr(_reference(TypedSignature)(TS, (ARITY,)))
    assert weakref.ref(sig)() is sig

    x = Translation("x", SIG, SIG, TT, {})
    x._compiled["c"] = (C, ARITY, None)
    assert x == Translation("x", SIG, SIG, TT, {})
    assert repr(x) == repr(_reference(Translation)("x", SIG, SIG, TT, {}))
    assert x.macros == {} and x.macros is not Translation("x", SIG, SIG, TT, {}).macros


def test_construction_time_checks_still_run():
    with pytest.raises(ValueError):
        GenConfig(1, cases=0)
    assert pickle.loads(pickle.dumps(SIG)).arity("c") == ARITY


def test_types_keep_identity_equality_and_the_builtin_hash():
    assert ObjType.__eq__ is object.__eq__ and ObjType.__hash__ is object.__hash__
    t = ObjType("arr", (A, B))
    assert hash(t) == object.__hash__(t) and t == ObjType("arr", (A, B))
    assert Var.__eq__ is not object.__eq__ and Con.__hash__ is not object.__hash__


def _fresh(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter, from source."""
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_brings_in_no_heavy_module():
    """``import initsyn, initsyn.cli`` in a fresh interpreter adds none of
    the modules that ``dataclasses`` would bring to start-up, and not the
    law checker, which loads on first use."""

    def modules(code: str) -> set[str]:
        return set(_fresh(f"{code}import sys; print(' '.join(sys.modules))").split())

    added = modules("import initsyn, initsyn.cli; ") - modules("")
    assert "initsyn.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "initsyn.laws"}


def test_import_builds_at_most_512_shared_variables():
    """``import initsyn`` makes at most 512 variables for the kernel's
    shared table, counted as the table's length and as the live ``Var``
    objects; the table holds ``Var(i)`` at ``i`` once it is used."""
    out = _fresh(
        "import gc, json, initsyn\n"
        "from initsyn import terms\n"
        "built = [len(terms._var_table), terms.VAR_TABLE_SIZE,\n"
        "         sum(type(o) is terms.Var for o in gc.get_objects())]\n"
        "table = terms.var_table()\n"
        "right = all(v == terms.Var(i) for i, v in enumerate(table))\n"
        "print(json.dumps(built + [len(table), right, table is terms.var_table()]))\n"
    )
    at_import, size, live, used, right, once = json.loads(out)
    assert at_import <= 512 and live <= 512 and size <= 512
    assert (used, right, once) == (size, True, True)


# ``sorted(initsyn.__all__)`` when every module was imported eagerly
PUBLIC_NAMES = [
    "ArgSpec", "Con", "Context", "GenConfig", "GenFailure", "LawReport", "ObjType",
    "OpaqueRepresentation", "SourceError", "Substitution", "TVar", "Template", "Term",
    "TermArity", "TplMacro", "TplMeta", "Translation", "TypeCheckError", "TypeExpr",
    "TypeSignature", "TypeTranslation", "TypedSignature", "ValidationReport", "Var",
    "check", "check_agreement", "check_monad_laws", "check_translation_laws",
    "context_extend", "eta", "eval_type_expr", "gen_context", "gen_substitution",
    "gen_term", "get_language", "get_translation", "ground_types",
    "identity_substitution", "identity_translation", "infer", "instantiate_template",
    "languages", "laws", "list_builtins", "load_translation", "min_degree", "objtypes",
    "parse_signature", "parse_term", "parse_translation", "print_signature",
    "print_term", "print_termfile", "print_translation", "rename", "retype_context",
    "signatures", "substitute", "surface", "terms", "translate",
    "translate_term", "translate_type", "translation_header", "validate_signature",
    "validate_translation", "weaken",
]


def test_the_law_checker_loads_on_first_use():
    """In a fresh interpreter the package keeps every public name: reading a
    name of ``laws`` imports it and gives that module's object, every name
    in ``__all__`` is listed by ``dir`` before that and can be read, and an
    unknown name is still an ``AttributeError`` that names it."""
    out = _fresh(
        "import json, sys, initsyn\n"
        "listed = set(initsyn.__all__) <= set(dir(initsyn))\n"
        "before = 'initsyn.laws' in sys.modules\n"
        "same = initsyn.gen_term is initsyn.laws.gen_term\n"
        "missing = [n for n in initsyn.__all__ if not hasattr(initsyn, n)]\n"
        "try:\n"
        "    initsyn.nope\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([listed, before, same, sorted(initsyn.__all__), missing, error]))\n"
    )
    listed, before, same, names, missing, error = json.loads(out)
    assert (listed, before, same, missing) == (True, False, True, [])
    assert names == PUBLIC_NAMES
    assert error is not None and "'nope'" in error


def test_no_public_name_is_a_second_name():
    """No module binds a public name to another bare name (``X = Y``): each
    thing has one name.  Private bindings and imports are not checked."""
    aliases = []
    for path in sorted(Path(initsyn.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, ast.Name):
                aliases += [
                    f"{path.name}:{node.lineno}: {t.id} = {node.value.id}"
                    for t in targets
                    if isinstance(t, ast.Name) and not t.id.startswith("_")
                ]
    assert aliases == []


def _library_names() -> set[str]:
    """The identifiers inside backticks in README's Library section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`\n]+)`", section)
    return {word for span in spans for word in re.findall(r"\w+", span)}


def test_every_public_name_is_used_or_documented():
    """Each public module-level function and class of ``src/initsyn/*.py``
    and each name in ``initsyn.__all__`` is referred to in ``src/initsyn``
    outside its own definition and ``__init__.py``, or named in backticks in
    README's Library section, which says what it is kept for."""
    defined, used = set(), set()
    for path in sorted(Path(initsyn.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)  # a reference inside it to itself is none
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs = [node.id]
                elif isinstance(node, ast.Attribute):
                    refs = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    refs = [node.module or "", *(a.name for a in node.names)]
                else:
                    continue
                used.update(ref for ref in refs if ref != own)
    unused = sorted((defined | set(initsyn.__all__)) - used - _library_names())
    assert unused == [], unused
