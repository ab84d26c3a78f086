import importlib.resources
import random
from pathlib import Path

import pytest

from initsyn.languages import get_language, get_translation, list_builtins
from initsyn.laws import GenConfig, _case_term
from initsyn.objtypes import ObjType, translate_type
from initsyn.signatures import TVar, TypedSignature, TypeSignature, validate_signature
from initsyn.surface import (
    parse_signature,
    parse_translation,
    print_signature,
    print_term,
    print_translation,
    translation_header,
)
from initsyn.terms import Con, Var, infer
from initsyn.translate import retype_context, translate_term, validate_translation

THETA_PAPER = "Abs (Abs (1 @ (2 @ 2 @ 1))) @ Abs (Abs (1 @ (2 @ 2 @ 1)))"
Y_PAPER = "Abs (Abs (2 @ (1 @ 1)) @ Abs (2 @ (1 @ 1)))"


def test_pcf_rec_arity_shape():
    rec = get_language("PCF").arity("rec")
    assert rec.degree == 1
    assert rec.result == TVar(1)
    assert len(rec.args) == 1
    assert rec.args[0].binders == ()
    assert rec.args[0].body == ObjType("arr", (TVar(1), TVar(1)))


def test_ipc_is_cpc_without_excluded_middle():
    cpc, ipc = get_language("CPC"), get_language("IPC")
    assert len(ipc.terms) == len(cpc.terms) - 1
    assert ipc.arity("EM") is None and cpc.arity("EM") is not None


def test_cpc_or_elimination_shape():
    ore = get_language("CPC").arity("orE")
    assert ore.degree == 3
    assert len(ore.args) == 3
    assert [len(s.binders) for s in ore.args] == [0, 1, 1]


def test_ulc_shape():
    ulc = get_language("ULC")
    assert ulc.types.constructors == {"*": 0}
    assert [ar.name for ar in ulc.terms] == ["abs", "app"]
    assert all(ar.degree == 0 for ar in ulc.terms)


def test_every_builtin_validates():
    languages, translations = list_builtins()
    for name in languages:
        assert validate_signature(get_language(name)).ok
    for name in translations:
        assert validate_translation(get_translation(name)).ok


def test_combinators_print_like_the_paper():
    ulc = get_language("ULC")
    theta = get_translation("pcf2ulc-turing").macros["Theta"]
    y = get_translation("pcf2ulc-curry").macros["Y"]
    assert print_term(ulc, (), theta, style="paper") == THETA_PAPER
    assert print_term(ulc, (), y, style="paper") == Y_PAPER


def test_em_template_typechecks_at_strict_image():
    gg = get_translation("cpc2ipc-godel-gentzen")
    cpc, ipc = gg.source, gg.target
    for atom in ("p", "q"):
        a = ObjType(atom)
        term = Con("EM", None, (a,), ())
        out = translate_term(gg, (), term)
        want = translate_type(gg.type_map, infer(cpc, (), term))
        assert infer(ipc, (), out) == want


def test_list_builtins_contents_and_determinism():
    languages, translations = list_builtins()
    assert languages == ("CPC", "IPC", "PCF", "STLC", "ULC")
    assert translations == (
        "cpc2ipc-godel-gentzen",
        "pcf2ulc-curry",
        "pcf2ulc-turing",
    )
    assert list_builtins() == (languages, translations)


def test_unknown_names_raise():
    # a name is looked up among the data files, never joined onto a path
    for name in ("XYZ", "../data/PCF", "data/PCF", "PCF.sig", "./PCF", "pcf"):
        with pytest.raises(KeyError, match="unknown language"):
            get_language(name)
    for name in ("XYZ", "../data/pcf2ulc-turing"):
        with pytest.raises(KeyError, match="unknown translation"):
            get_translation(name)


def _pcf_without_rec() -> TypedSignature:
    pcf = get_language("PCF")
    return TypedSignature(
        types=pcf.types,
        terms=tuple(ar for ar in pcf.terms if ar.name != "rec"),
        atoms=pcf.atoms,
    )


def test_turing_and_curry_agree_away_from_rec():
    turing = get_translation("pcf2ulc-turing")
    curry = get_translation("pcf2ulc-curry")
    norec = _pcf_without_rec()
    cfg = GenConfig(seed=8, cases=1)
    rng = random.Random(8)
    for _ in range(300):
        ctx, term = _case_term(norec, cfg, rng)
        assert translate_term(turing, ctx, term) == translate_term(curry, ctx, term)


def test_turing_and_curry_differ_on_rec():
    turing = get_translation("pcf2ulc-turing")
    curry = get_translation("pcf2ulc-curry")
    nat = ObjType("Nat")
    term = Con("rec", None, (nat,), (Con("abs", None, (nat, nat), (Var(0),)),))
    assert translate_term(turing, (), term) != translate_term(curry, (), term)


DATA = importlib.resources.files("initsyn") / "data"
ROOT = Path(__file__).resolve().parent.parent


def test_data_files_print_as_they_parse():
    """The builtins are the data files, so printing a parsed file gives the
    file back, and ``lang show`` prints each signature file as it is."""
    languages, translations = list_builtins()
    for name in languages:
        text = (DATA / f"{name}.sig").read_text(encoding="utf-8")
        assert print_signature(parse_signature(text)) == text
        assert print_signature(get_language(name)) == text
    for name in translations:
        text = (DATA / f"{name}.xlat").read_text(encoding="utf-8")
        _, source, target = translation_header(text)
        x = parse_translation(text, get_language(source), get_language(target))
        assert print_translation(x) == text
        assert get_translation(name) == x


def test_package_data_ships_every_data_file():
    """The builtins load from package data at run time, so an installed
    package must carry every data file."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as handle:
        patterns = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["initsyn"]
    package = ROOT / "src" / "initsyn"
    matched = [{p.relative_to(package) for p in package.glob(pat)} for pat in patterns]
    assert all(matched)
    assert set().union(*matched) == {p.relative_to(package) for p in (package / "data").iterdir()}
