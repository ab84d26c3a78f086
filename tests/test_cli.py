import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import initsyn
from initsyn.cli import main
from initsyn.languages import get_language, get_translation, list_builtins
from initsyn.objtypes import ObjType
from initsyn.surface import parse_signature, print_termfile, print_translation
from initsyn.terms import Con, Var, weaken
from initsyn.translate import identity_translation

from oracles import cpc_to_ipc, pcf_to_ulc, theta_term
from test_closed_pieces import BOOL, NAT, NN, pcf_nat
from test_cpc_truth_tables import conjunction_proof, tautologies

NEG_TERM = """context ; (abs [Bool, Bool]
  (app [Bool, Bool]
    (app [Bool, arr(Bool,Bool)]
      (app [Bool, arr(Bool,arr(Bool,Bool))] (CondB) #0)
      (ffff))
    (tttt)))
"""

GOLDEN = "Abs (Abs (Abs (Abs (3 @ 2 @ 1))) @ 1 @ Abs (Abs 1) @ Abs (Abs 2))"


def xlat_file(name: str) -> str:
    """The ``.xlat`` file a builtin translation is loaded from: ``--xlat``
    of it translates as ``--using name`` does, and rechecks the output."""
    return str(Path(initsyn.__file__).parent / "data" / f"{name}.xlat")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_lang_list():
    code, out, _ = run(["lang", "list"])
    assert code == 0
    assert "CPC IPC PCF STLC ULC" in out
    assert "cpc2ipc-godel-gentzen pcf2ulc-curry pcf2ulc-turing" in out


def test_lang_show_round_trips():
    code, out, _ = run(["lang", "show", "PCF"])
    assert code == 0
    assert parse_signature(out) == get_language("PCF")


def test_lang_show_unknown():
    code, _, err = run(["lang", "show", "XYZ"])
    assert code == 2 and "unknown language" in err


def test_check_success(tmp_path):
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    code, out, _ = run(["check", "--lang", "PCF", str(path)])
    assert code == 0
    assert out.strip() == ": arr(Bool,Bool)"


def test_check_type_error(tmp_path):
    path = tmp_path / "bad.term"
    path.write_text("context ; (app [Bool, Nat] (Succ) (tttt))")
    code, _, err = run(["check", "--lang", "PCF", str(path)])
    assert code == 1
    assert "expected arr(Bool,Nat), found arr(Nat,Nat)" in err


def test_check_missing_file():
    code, _, err = run(["check", "--lang", "PCF", "/nonexistent/x.term"])
    assert code == 2


def test_check_with_signature_file(tmp_path):
    sig_path = tmp_path / "mini.sig"
    sig_path.write_text("language Mini types { A : 0 } terms { c [0] : () -> A }")
    term_path = tmp_path / "t.term"
    term_path.write_text("context ; (c)")
    code, out, _ = run(["check", "--sig", str(sig_path), str(term_path)])
    assert code == 0 and out.strip() == ": A"


def test_translate_golden_paper_style(tmp_path):
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    code, out, _ = run(
        ["translate", "--using", "pcf2ulc-turing", str(path), "--style", "paper"]
    )
    assert code == 0
    assert out.strip() == GOLDEN


def test_translate_curry_same_output_without_rec(tmp_path):
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    _, turing_out, _ = run(["translate", "--using", "pcf2ulc-turing", str(path)])
    code, curry_out, _ = run(["translate", "--using", "pcf2ulc-curry", str(path)])
    assert code == 0 and turing_out == curry_out


def test_translate_with_identity_xlat_file(tmp_path):
    ident = identity_translation(get_language("ULC"))
    xlat = tmp_path / "id.xlat"
    xlat.write_text(print_translation(ident))
    term = tmp_path / "v.term"
    term.write_text("context * ; #0")
    code, out, _ = run(["translate", "--xlat", str(xlat), str(term)])
    assert code == 0 and out.strip() == "#0"


def test_translate_rejects_type_template_outside_target(tmp_path):
    gg = get_translation("cpc2ipc-godel-gentzen")
    xlat = tmp_path / "bad.xlat"
    xlat.write_text(
        print_translation(gg).replace(
            "p -> impl(impl(p,bot),bot)", "p -> impl(impl(Foo(bot,bot,bot),bot),bot)"
        )
    )
    term = tmp_path / "p.term"
    term.write_text("context p ; #0")
    code, out, err = run(["translate", "--xlat", str(xlat), str(term)])
    assert (code, out) == (1, "")
    assert "unknown type constructor 'Foo'" in err


def test_translate_xlat_naming_an_unknown_language_exits_2(tmp_path):
    ident = identity_translation(get_language("ULC"))
    xlat = tmp_path / "id.xlat"
    xlat.write_text(print_translation(ident).replace("to ULC", "to NOPE", 1))
    term = tmp_path / "v.term"
    term.write_text("context * ; #0")
    code, out, err = run(["translate", "--xlat", str(xlat), str(term)])
    assert (code, out) == (2, "")
    assert "translation file references unknown language" in err
    assert "'NOPE'" in err


def test_builtin_names_are_not_paths(tmp_path):
    path = tmp_path / "f.term"
    path.write_text("context ; (tttt)")
    code, _, err = run(["check", "--lang", "../x", str(path)])
    assert code == 2 and "unknown language '../x'" in err
    code, _, err = run(["check", "--lang", "../data/PCF", str(path)])
    assert code == 2 and "unknown language" in err


def test_translate_unknown_translation(tmp_path):
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    code, _, err = run(["translate", "--using", "nope", str(path)])
    assert code == 2 and "unknown translation" in err


def test_laws_lang_and_determinism():
    code1, out1, _ = run(["laws", "--lang", "PCF", "--seed", "1", "--cases", "100"])
    code2, out2, _ = run(["laws", "--lang", "PCF", "--seed", "1", "--cases", "100"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_laws_translation():
    code, out, _ = run(
        ["laws", "--translation", "cpc2ipc-godel-gentzen", "--seed", "1", "--cases", "60"]
    )
    assert code == 0 and "pass" in out


def test_laws_unknown_names():
    code, _, err = run(["laws", "--lang", "Nope"])
    assert code == 2
    code, _, err = run(["laws", "--translation", "Nope"])
    assert code == 2


def test_laws_rejects_zero_cases_and_depth():
    for option, message in (("--cases", "cases"), ("--depth", "max_depth")):
        code, out, err = run(["laws", "--lang", "PCF", option, "0"])
        assert (code, out, err) == (2, "", f"error: {message} must be at least 1\n")


def test_translate_rechecks_what_it_prints(tmp_path, monkeypatch):
    """A translation of the wrong type is an error, not a printed term."""
    import initsyn.cli

    def of_the_wrong_type(x, ctx, term):
        return Con("topI", None, (), ())

    monkeypatch.setattr(initsyn.cli, "translate_term", of_the_wrong_type)
    path = tmp_path / "p.term"
    path.write_text("context p ; #0")
    code, out, err = run(["translate", "--xlat", xlat_file("cpc2ipc-godel-gentzen"), str(path)])
    assert (code, out) == (1, "")
    assert err == "error: translated term has type top, expected impl(impl(p,bot),bot)\n"


def test_translate_using_a_builtin_prints_without_a_recheck(tmp_path, monkeypatch):
    """A builtin translation's output is printed as the engine built it:
    its type is held by the tests of the engine, not by a recheck."""
    import initsyn.cli

    def of_the_wrong_type(x, ctx, term):
        return Con("topI", None, (), ())

    monkeypatch.setattr(initsyn.cli, "translate_term", of_the_wrong_type)
    path = tmp_path / "p.term"
    path.write_text("context p ; #0")
    code, out, err = run(["translate", "--using", "cpc2ipc-godel-gentzen", str(path)])
    assert (code, out, err) == (0, "(topI)\n", "")


def _count_infer_calls(monkeypatch) -> list[str]:
    """The names of the signatures that ``infer`` is called with, through
    the names the CLI and the term parser call it by, from now on."""
    import initsyn.cli
    import initsyn.surface

    calls = []
    for module in (initsyn.cli, initsyn.surface):
        original = module.infer

        def counted(sig, ctx, term, _original=original, **kwargs):
            calls.append(sig.name)
            return _original(sig, ctx, term, **kwargs)

        monkeypatch.setattr(module, "infer", counted)
    return calls


def test_translate_typechecks_source_once(tmp_path, monkeypatch):
    calls = _count_infer_calls(monkeypatch)
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    code, out, _ = run(["translate", "--xlat", xlat_file("pcf2ulc-turing"), str(path)])
    assert code == 0
    # one check of the source while parsing, one recheck of the output
    assert calls == ["PCF", "ULC"]
    code, out, _ = run(["check", "--lang", "PCF", str(path)])
    assert code == 0 and out.strip() == ": arr(Bool,Bool)"
    assert calls == ["PCF", "ULC", "PCF"]


def test_translate_using_a_builtin_typechecks_only_the_source(tmp_path, monkeypatch):
    calls = _count_infer_calls(monkeypatch)
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    code, out, _ = run(["translate", "--using", "pcf2ulc-turing", str(path)])
    assert (code, out) == (0, run(["translate", "--xlat", xlat_file("pcf2ulc-turing"), str(path)])[1])
    # one check of the source while parsing; the --xlat run above rechecked
    assert calls == ["PCF", "PCF", "ULC"]
    code, out, _ = run(["check", "--lang", "PCF", str(path)])
    assert code == 0 and out.strip() == ": arr(Bool,Bool)"
    assert calls == ["PCF", "PCF", "ULC", "PCF"]


def _files_of(language: str) -> list[str]:
    """README's ``neg.term`` for PCF, and for PCF and CPC seeded files of
    several hundred nodes, in an empty context and in a longer one."""
    sig = get_language(language)
    if language == "PCF":
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        neg = readme.split("the boolean negation program\n\n```\n", 1)[1].split("```", 1)[0]
        ctx = (NAT, NN, BOOL)
        seeded = [print_termfile(sig, ctx, pcf_nat(random.Random(seed), ctx, 400)) for seed in (7, 8)]
        return [neg, *seeded]
    proofs = [conjunction_proof(tautologies(seed, 5, height=5))[0] for seed in (41, 42)]
    ctx = (ObjType("p"), ObjType("or", (ObjType("q"), ObjType("r"))))
    return [print_termfile(sig, (), proofs[0]), print_termfile(sig, ctx, weaken(sig, proofs[1], 0, 2))]


@pytest.mark.parametrize("name", list_builtins()[1])
def test_using_and_xlat_print_the_same_bytes(tmp_path, name):
    """``--using NAME`` and ``--xlat`` of NAME's own file differ only in
    the recheck, which passes here: stdout, stderr and exit code agree,
    and the canonical style prints the term."""
    x = get_translation(name)
    for k, text in enumerate(_files_of(x.source.name)):
        path = tmp_path / f"{k}.term"
        path.write_text(text)
        for style in ("canonical", "paper"):
            using = run(["translate", "--using", name, "--style", style, str(path)])
            if style == "canonical":  # paper style is for ULC only: exit 1 on IPC
                assert using[0] == 0 and using[1] and using[2] == ""
            assert run(["translate", "--xlat", xlat_file(name), "--style", style, str(path)]) == using


def _at_the_default_recursion_limit(argv):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return run(argv)
    finally:
        sys.setrecursionlimit(saved)


def test_using_translates_nats_10000(tmp_path):
    """The recheck's recursive ``infer`` used to end this with exit 2."""
    path = tmp_path / "nats10000.term"
    path.write_text("context ; (nats{10000})")
    code, out, err = _at_the_default_recursion_limit(["translate", "--using", "pcf2ulc-turing", str(path)])
    assert (code, err) == (0, "")
    assert out == f"{pcf_to_ulc(theta_term())((), Con('nats', 10000, (), ()))}\n"


def test_using_translates_an_or_elimination_at_a_480_deep_implication(tmp_path):
    """``orE`` whose result is a right-nested ``impl`` 480 levels deep: its
    witness nests as deep, which the recheck's ``infer`` could not follow."""
    p, t = ObjType("p"), ObjType("q")
    for _ in range(480):
        t = ObjType("impl", (p, t))
    ctx = (ObjType("or", (p, p)), ObjType("impl", (p, t)))
    branch = Con("implE", None, (p, t), (Var(2), Var(0)))
    term = Con("orE", None, (p, p, t), (Var(0), branch, branch))
    path = tmp_path / "deep-orE.term"
    path.write_text(print_termfile(get_language("CPC"), ctx, term))
    argv = ["translate", "--using", "cpc2ipc-godel-gentzen", str(path)]
    code, out, err = _at_the_default_recursion_limit(argv)
    assert (code, err) == (0, "")
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)  # the oracle recurses on the type
    try:
        assert out == f"{cpc_to_ipc(ctx, term)}\n"
    finally:
        sys.setrecursionlimit(saved)


def test_translate_nats_250(tmp_path):
    """A 20-byte file whose output nests 250 applications deep prints at the
    default recursion limit."""
    path = tmp_path / "nats250.term"
    path.write_text("context ; (nats{250})")
    code, out, err = run(["translate", "--using", "pcf2ulc-turing", str(path)])
    assert (code, err) == (0, "")
    expected = pcf_to_ulc(theta_term())((), Con("nats", 250, (), ()))
    assert out == f"{expected}\n"


def test_translate_rejects_a_hole_with_a_payload(tmp_path):
    """``(__hole)`` takes nothing; a payload used to be accepted and then
    ignored."""
    text = print_translation(get_translation("pcf2ulc-turing"))
    line = next(i for i, l in enumerate(text.splitlines(), 1) if l.strip().startswith("nats ->"))
    xlat = tmp_path / "hole.xlat"
    xlat.write_text(text.replace("(__hole)", "(__hole{7} [Foo] (abs #0) #3)"))
    term = tmp_path / "nats2.term"
    term.write_text("context ; (nats{2})")
    code, out, err = run(["translate", "--xlat", str(xlat), str(term)])
    assert (code, out) == (1, "")
    assert err == (
        f"error: line {line}, column 3: invalid translation: arity 'nats': "
        "__hole takes no literal, type parameters or sub-templates\n"
    )


def _fresh_env():
    """The environment of a new interpreter that imports this tree's ``initsyn``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _fresh_run(argv):
    """``main`` in a new interpreter, as a user runs it."""
    done = subprocess.run(
        [sys.executable, "-m", "initsyn.cli", *argv],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_consecutive_calls_print_what_fresh_runs_print(tmp_path):
    """The argument parser is built once per process; no flag of one call
    leaks into the next."""
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    calls = [
        ["translate", "--using", "pcf2ulc-turing", "--style", "paper", str(path)],
        ["translate", "--using", "pcf2ulc-turing", str(path)],
        ["laws", "--lang", "PCF", "--seed", "3", "--cases", "50"],
        ["translate", "--using", "pcf2ulc-turing", str(path)],
    ]
    in_process = [run(argv) for argv in calls]
    assert in_process[0][1] == GOLDEN + "\n"
    assert in_process[1][1] != in_process[0][1]
    assert in_process == [_fresh_run(argv) for argv in calls]


def test_laws_runs_as_a_fresh_command():
    """``laws`` imports the law checker itself, since ``initsyn.cli`` no
    longer loads it at import."""
    argv = ["laws", "--lang", "ULC", "--seed", "5", "--cases", "20"]
    code, out, _ = _fresh_run(argv)
    assert code == 0
    assert out == run(argv)[1]


def test_too_deep_input_exits_2_without_traceback(tmp_path):
    """``nats{1000}`` parses, but its translation nests deeper than the
    recursive recheck follows at the default recursion limit; the CLI
    reports that instead of crashing."""
    path = tmp_path / "nats1000.term"
    path.write_text("context ; (nats{1000})")
    argv = ["translate", "--xlat", xlat_file("pcf2ulc-turing"), str(path)]
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run(argv)
    finally:
        sys.setrecursionlimit(saved)
    assert (code, out) == (2, "")
    assert err == "error: input too deep or too large (RecursionError)\n"
    assert _fresh_run(argv) == (2, out, err)


def test_deep_output_of_a_builtin_prints_at_the_default_recursion_limit(tmp_path):
    """Without the recheck, nothing recursive walks ``nats{1000}``'s
    translation: the CLI prints it, in-process and in a fresh run."""
    path = tmp_path / "nats1000.term"
    path.write_text("context ; (nats{1000})")
    argv = ["translate", "--using", "pcf2ulc-turing", str(path)]
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run(argv)
    finally:
        sys.setrecursionlimit(saved)
    assert (code, err) == (0, "")
    assert out == f"{pcf_to_ulc(theta_term())((), Con('nats', 1000, (), ()))}\n"
    assert _fresh_run(argv) == (0, out, err)


def test_a_family_literal_above_the_iter_bound_exits_1(tmp_path):
    """``check`` accepts any literal; ``translate`` refuses one that its
    ``__iter`` template would expand more than ``MAX_ITER_LITERAL`` times
    before building a node, instead of running for as long as it is large."""
    path = tmp_path / "huge.term"
    path.write_text("context ; (nats{99999999999999999999})")
    assert _fresh_run(["check", "--lang", "PCF", str(path)]) == (0, ": Nat\n", "")
    start = time.perf_counter()
    code, out, err = _fresh_run(["translate", "--using", "pcf2ulc-turing", str(path)])
    assert time.perf_counter() - start < 30
    assert (code, out) == (1, "")
    literal = "literal 99999999999999999999"
    assert err == f"error: arity 'nats': {literal} is above __iter's bound 10000\n"


@pytest.mark.parametrize("depth", [500, 501])
def test_templates_and_macros_nest_as_deep_as_terms(tmp_path, depth):
    """A ``.xlat`` file whose ``rec`` template and first macro each nest
    500 levels loads and translates at the default recursion limit; one
    level more is an error at the first node too deep."""
    text = print_translation(get_translation("pcf2ulc-turing")).replace(
        "\n\nmacros {\n", "\nmacros { M = " + "(abs " * (depth - 1) + "#0" + ")" * (depth - 1) + "\n"
    )
    deep = "(app " + "(abs " * (depth - 2) + "#0" + ")" * (depth - 2)
    xlat = tmp_path / "deep.xlat"
    xlat.write_text(text.replace("rec -> (app <Theta> ?1)", f"rec -> {deep} ?1)"))
    term = tmp_path / "rec.term"
    term.write_text("context ; (rec [Nat] (abs [Nat, Nat] #0))")
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = run(["translate", "--xlat", str(xlat), str(term)])
    finally:
        sys.setrecursionlimit(saved)
    if depth == 500:
        assert got == (0, f"{deep} (abs #0))\n", "")
    else:
        assert got == (1, "", "error: line 2, column 2514: nesting too deep\n")


def test_memory_error_exits_2(tmp_path, monkeypatch):
    import initsyn.cli

    def exhausted(*_):
        raise MemoryError()

    monkeypatch.setattr(initsyn.cli, "translate_term", exhausted)
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    code, out, err = run(["translate", "--using", "pcf2ulc-turing", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: input too deep or too large (MemoryError)\n"


@pytest.mark.parametrize("which", ["term", "xlat", "sig"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, which):
    texts = {
        "term": "context ; (c)",
        "xlat": print_translation(identity_translation(get_language("ULC"))),
        "sig": "language Mini types { A : 0 } terms { c [0] : () -> A }",
    }
    paths = {name: tmp_path / f"f.{name}" for name in texts}
    for name, text in texts.items():
        data = text.encode()
        paths[name].write_bytes(data[:11] + b"\xff" + data[11:] if name == which else data)
    argv = {
        "term": ["check", "--lang", "PCF", paths["term"]],
        "xlat": ["translate", "--xlat", paths["xlat"], paths["term"]],
        "sig": ["check", "--sig", paths["sig"], paths["term"]],
    }[which]
    code, out, err = run([str(a) for a in argv])
    assert code == 2 and out == ""
    assert err == f"error: cannot read {paths[which]}: not UTF-8 at byte offset 11\n"


def test_output_pipe_closed_early_exits_2_without_traceback(tmp_path):
    """A reader that stops after one byte, as ``| head -c 1`` does, ends the
    command with exit 2 ("I/O trouble") and no traceback on stderr: neither
    for the ``BrokenPipeError`` of the print nor for the flush at exit."""
    term = "(nats{3})"
    for _ in range(12):  # 4 096 leaves: the output is larger than a pipe buffer
        term = (
            "(app [Nat, Nat] (app [Nat, arr(Nat,Nat)] "
            f"(app [Bool, arr(Nat,arr(Nat,Nat))] (CondN) (tttt)) {term}) {term})"
        )
    path = tmp_path / "wide.term"
    path.write_text(f"context ; {term}\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "initsyn.cli", "translate", "--using", "pcf2ulc-turing", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(),
    )
    assert proc.stdout.read(1) == b"("
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


def _at_the_default_limit(argv):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return run(argv)
    finally:
        sys.setrecursionlimit(saved)


def test_check_with_an_arity_type_499_levels_deep(tmp_path):
    """An arity whose result type nests 499 levels, which the signature
    parser accepts, types a term at the default recursion limit."""
    depth = 499
    sig = tmp_path / "deep.sig"
    sig.write_text(
        "language Deep\n\ntypes {\n  Nat : 0\n  arr : 2\n}\n\n"
        f"terms {{\n  f [1] : () -> {'arr(' * depth}$1{',Nat)' * depth}\n}}\n"
    )
    term = tmp_path / "f.term"
    term.write_text("context ; (f [Nat])\n")
    want = (0, f": {'arr(' * depth}Nat{',Nat)' * depth}\n", "")
    assert _at_the_default_limit(["check", "--sig", str(sig), str(term)]) == want
    assert _fresh_run(["check", "--sig", str(sig), str(term)]) == want


def test_translate_a_context_type_499_levels_deep(tmp_path):
    """A CPC context type nested 499 levels, which the term parser accepts,
    translates at the default recursion limit."""
    t = "q"
    for _ in range(499):
        t = f"impl({t},q)"
    term = tmp_path / "deep.term"
    term.write_text(f"context {t} ; #0\n")
    argv = ["translate", "--using", "cpc2ipc-godel-gentzen", str(term)]
    assert _at_the_default_limit(argv) == (0, "#0\n", "")
    assert _fresh_run(argv) == (0, "#0\n", "")


def test_number_past_the_int_limit_exits_1_with_its_position(tmp_path):
    path = tmp_path / "long.term"
    path.write_text("context Nat ; #" + "7" * (sys.get_int_max_str_digits() + 1) + "\n")
    code, out, err = _fresh_run(["check", "--lang", "PCF", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, column 15: number too long") and "Traceback" not in err
