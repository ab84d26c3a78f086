import io
from contextlib import redirect_stderr, redirect_stdout

from initsyn.cli import main
from initsyn.languages import get_language
from initsyn.surface import parse_signature, print_translation
from initsyn.translate import identity_translation

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
