import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from initsyn.cli import main
from initsyn.languages import get_language, get_translation
from initsyn.surface import parse_signature, print_translation
from initsyn.terms import Con
from initsyn.translate import identity_translation

from oracles import pcf_to_ulc, theta_term

NEG_TERM = """context ; (abs [Bool, Bool]
  (app [Bool, Bool]
    (app [Bool, arr(Bool,Bool)]
      (app [Bool, arr(Bool,arr(Bool,Bool))] (CondB) #0)
      (ffff))
    (tttt)))
"""

GOLDEN = "Abs (Abs (Abs (Abs (3 @ 2 @ 1))) @ 1 @ Abs (Abs 1) @ Abs (Abs 2))"


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


def test_translate_typechecks_source_once(tmp_path, monkeypatch):
    import initsyn.cli
    import initsyn.surface

    calls = []
    for module in (initsyn.cli, initsyn.surface):
        original = module.infer

        def counted(sig, ctx, term, _original=original):
            calls.append(sig.name)
            return _original(sig, ctx, term)

        monkeypatch.setattr(module, "infer", counted)
    path = tmp_path / "neg.term"
    path.write_text(NEG_TERM)
    code, out, _ = run(["translate", "--using", "pcf2ulc-turing", str(path)])
    assert code == 0
    # one check of the source while parsing, one recheck of the output
    assert calls == ["PCF", "ULC"]
    code, out, _ = run(["check", "--lang", "PCF", str(path)])
    assert code == 0 and out.strip() == ": arr(Bool,Bool)"
    assert calls == ["PCF", "ULC", "PCF"]


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


def _fresh_run(argv):
    """``main`` in a new interpreter, as a user runs it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-m", "initsyn.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
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


def test_too_deep_input_exits_2_without_traceback(tmp_path):
    """``nats{1000}`` parses, but its translation nests deeper than the
    recursive kernel follows at the default recursion limit; the CLI
    reports that instead of crashing."""
    path = tmp_path / "nats1000.term"
    path.write_text("context ; (nats{1000})")
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run(["translate", "--using", "pcf2ulc-turing", str(path)])
    finally:
        sys.setrecursionlimit(saved)
    assert (code, out) == (2, "")
    assert err == "error: input too deep or too large (RecursionError)\n"
    assert _fresh_run(["translate", "--using", "pcf2ulc-turing", str(path)]) == (2, out, err)


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
