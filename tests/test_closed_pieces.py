"""The closed template pieces that ``initsyn translate --xlat``'s recheck
looks up.

Compiling a translation builds each closed subtemplate once, and every
output shares that one object; ``_compile`` types each maximal one with
``infer`` and keeps it in the translation's table, and ``infer(...,
closed=)`` takes a piece's type from there when it meets the very object.
These tests hold the recheck to plain ``infer``: same types, same errors,
only fewer frames."""

import random
import sys
from pathlib import Path

import pytest

from initsyn import cli, languages, terms, translate
from initsyn.languages import _read, get_language, get_translation, load_translation
from initsyn.laws import GenConfig, GenFailure, gen_term
from initsyn.objtypes import ObjType, ground_types, translate_type
from initsyn.surface import parse_signature, parse_term, parse_translation, print_termfile
from initsyn.terms import Con, TypeCheckError, Var, infer
from initsyn.translate import (
    instantiate_template,
    retype_context,
    translate_term,
    validate_translation,
)

BUILTINS = ["pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen"]
NAT, BOOL = ObjType("Nat"), ObjType("Bool")
NN = ObjType("arr", (NAT, NAT))


def _app(a, b, f, x):
    return Con("app", None, (a, b), (f, x))


def _abs(a, b, body):
    return Con("abs", None, (a, b), (body,))


def _const(name, lit=None):
    return Con(name, lit, (), ())


def pcf_nat(rng, ctx, size):
    """A seeded PCF term of type Nat over ``ctx`` of about ``size`` nodes,
    built mostly from ``rec``, ``nats{k}``, ``Succ``, ``Pred`` and ``CondN``."""
    if size <= 2:
        nats = [i for i, t in enumerate(ctx) if t == NAT]
        if nats and rng.random() < 0.5:
            return Var(rng.choice(nats))
        return _const("nats", rng.randint(0, 2))
    funs = [Var(i) for i, t in enumerate(ctx) if t == NN]
    k = rng.randrange(4)
    if k == 0:
        f = rng.choice(funs + [_const("Succ"), _const("Pred")])
        return _app(NAT, NAT, f, pcf_nat(rng, ctx, size - 2))
    half = (size - 4) // 2
    if k == 1:  # rec applied: its step sees itself (an arr(Nat,Nat)) and a Nat
        body = pcf_nat(rng, (NAT, NN) + ctx, half)
        step = _abs(NN, NN, _abs(NAT, NAT, body))
        return _app(NAT, NAT, Con("rec", None, (NN,), (step,)), pcf_nat(rng, ctx, half))
    if k == 2:
        test = _app(NAT, BOOL, _const("Zero"), pcf_nat(rng, ctx, half // 2))
        cond = _app(BOOL, ObjType("arr", (NAT, NN)), _const("CondN"), test)
        then = _app(NAT, NN, cond, pcf_nat(rng, ctx, half))
        return _app(NAT, NAT, then, pcf_nat(rng, ctx, half // 2))
    return _app(NAT, NAT, _abs(NAT, NAT, pcf_nat(rng, (NAT,) + ctx, half)), pcf_nat(rng, ctx, half))


def _generated(sig, seed, count):
    """(context, term) pairs from ``gen_term`` at a fixed seed."""
    pool = ground_types(sig.all_types, 1)
    rng = random.Random(seed)
    cfg = GenConfig(seed=1, max_depth=6, cases=1)
    out = []
    while len(out) < count:
        ctx = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        try:
            out.append((ctx, gen_term(sig, ctx, None, cfg, rng=rng)))
        except GenFailure:
            continue
    return out


def _cases(name):
    x = get_translation(name)
    cases = _generated(x.source, 11, 150)
    if x.source.name == "PCF":
        rng = random.Random(12)
        for _ in range(40):
            ctx = tuple(rng.choice((NAT, BOOL, NN)) for _ in range(rng.randint(0, 3)))
            cases.append((ctx, pcf_nat(rng, ctx, rng.randint(3, 120))))
    return x, cases


def _infer_frames(fn):
    """``fn()`` and the number of ``terms._infer`` frames it entered."""
    code, count = terms._infer.__code__, [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            count[0] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, count[0]


@pytest.mark.parametrize("name", BUILTINS)
def test_recheck_with_the_table_agrees_with_plain_infer(name):
    """On seeded ``gen_term`` cases, and on ``rec``/``nats{k}``-heavy PCF
    terms, the recheck's type is the very object plain ``infer`` returns."""
    x, cases = _cases(name)
    assert x._closed
    for ctx, term in cases:
        out = translate_term(x, ctx, term)
        ctx_t = retype_context(x.type_map, ctx)
        plain = infer(x.target, ctx_t, out)
        assert infer(x.target, ctx_t, out, closed=x._closed) is plain
        assert plain is translate_type(x.type_map, infer(x.source, ctx, term))


def _fresh_args(ar, base):
    return tuple(Var(base + k) for k in range(len(ar.args)))


def _topmost_shared(t, others):
    """The nodes of ``t`` that are also nodes of ``others`` (by identity),
    without descending into them."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if type(u) is not Con:
            continue
        if id(u) in others:
            out.append(u)
            continue
        stack.extend(u.args)
    return out


def _ids(t):
    seen, stack = set(), [t]
    while stack:
        u = stack.pop()
        if type(u) is Con:
            seen.add(id(u))
            stack.extend(u.args)
    return seen


_TALLY = """
language Tally
types { * : 0 }
terms {
  family tally [0] : () -> *
  family flag [0] : () -> *
}
"""

# __iter with a closed base, and with a closed step and base
_TALLY_TO_PCF = """
translation tally2pcf from Tally to PCF
types { * -> Nat }
terms {
  tally -> (__iter (app [Nat, Nat] (Succ) (__hole)) (nats{0}))
  flag -> (__iter (nats{1}) (nats{2}))
}
"""


def _fresh(name):
    """A new copy of a builtin translation, or of tally2pcf, validated
    once more after loading."""
    if name == "tally2pcf":
        x = parse_translation(_TALLY_TO_PCF, parse_signature(_TALLY), get_language("PCF"))
    else:
        x = load_translation(_read(name, ".xlat", "translation"))
    assert validate_translation(x).ok
    return x


@pytest.mark.parametrize("name", BUILTINS + ["tally2pcf"])
def test_every_entry_is_closed_typed_by_infer_and_maximal(name):
    """Each entry is a closed term whose type is plain ``infer``'s in the
    empty context.  The entries are exactly the closed nodes that two
    instantiations of a template share and whose parent they do not: every
    such node is an entry, and every entry is one, also after validating
    the translation again."""
    x = _fresh(name)
    for piece, ty in x._closed.values():
        assert infer(x.target, (), piece) is ty
    found = set()
    pool = [translate_type(x.type_map, t) for t in ground_types(x.source.all_types, 1)]
    for ar in x.source.terms:
        inst = tuple(pool[k % len(pool)] for k in range(ar.degree))
        for lit in ((0, 1, 3) if ar.family_index else (None,)):
            one = instantiate_template(x, ar, inst, _fresh_args(ar, 100), lit)
            two = instantiate_template(x, ar, inst, _fresh_args(ar, 200), lit)
            for node in _topmost_shared(one, _ids(two)):
                try:
                    infer(x.target, (), node)
                except TypeCheckError:
                    continue  # not closed: not an entry
                assert x._closed[id(node)][0] is node
                found.add(id(node))
    assert found == set(x._closed)


@pytest.mark.parametrize("name", BUILTINS)
def test_a_structurally_equal_copy_is_walked(name):
    """A piece parsed back from its own text equals the piece but is
    another object: as an argument it is typed by a walk, even when the
    table holds another object under its id.  The piece itself is taken
    from the table unwalked, so a table that lied about it would be
    believed: the table is trusted by identity only."""
    x = get_translation(name)
    nope = ObjType("nope")
    for piece, ty in x._closed.values():
        _, copy = parse_term(print_termfile(x.target, (), piece), x.target)
        assert copy == piece and copy is not piece

        def held(t):  # one node whose argument is ``t``
            if name.startswith("cpc"):
                return Con("implI", None, (ty, ty), (t,))
            return Con("abs", None, (), (t,))

        expected = infer(x.target, (), held(piece))
        found, frames = _infer_frames(lambda: infer(x.target, (), held(piece), closed=x._closed))
        assert found is expected and frames == 1  # the root's frame only
        for table in (x._closed, {id(piece): (piece, nope)}, {id(copy): (piece, nope)}):
            found, frames = _infer_frames(lambda: infer(x.target, (), held(copy), closed=table))
            assert found is expected and frames > 1
        with pytest.raises(TypeCheckError) as err:
            infer(x.target, (), held(piece), closed={id(piece): (piece, nope)})
        assert str(err.value) == f"at argument path 0: expected {ty}, found nope"


def test_a_piece_is_typed_by_identity_in_a_three_argument_node():
    """``infer``'s path for nodes of more than two arguments takes the type
    of a registered piece by identity too: in an IPC ``orE`` whose second
    and third arguments are each piece, the piece enters no ``_infer``
    frame of its own, and a structurally equal copy in either place is
    walked, as plain ``infer`` walks it."""
    x = get_translation("cpc2ipc-godel-gentzen")
    p, q = ObjType("p"), ObjType("q")
    ctx = (ObjType("or", (p, q)),)
    assert x._closed
    for piece, ty in x._closed.values():
        _, copy = parse_term(print_termfile(x.target, (), piece), x.target)
        assert copy == piece and copy is not piece
        _, walk = _infer_frames(lambda: infer(x.target, (), copy))

        def or_e(second, third):
            return Con("orE", None, (p, q, ty), (Var(0), second, third))

        for second, third, frames in (
            (piece, piece, 1),
            (copy, piece, 1 + walk),
            (piece, copy, 1 + walk),
            (copy, copy, 1 + 2 * walk),
        ):
            term = or_e(second, third)
            found, entered = _infer_frames(lambda: infer(x.target, ctx, term, closed=x._closed))
            assert found is infer(x.target, ctx, term) is ty
            assert entered == frames


def test_a_misplaced_piece_fails_with_plain_infers_error(tmp_path, monkeypatch, capsys):
    """An engine that puts a registered piece where another type belongs
    fails the recheck with the message and path plain ``infer`` gives, at
    the piece's parent, and ``initsyn translate --xlat`` exits 1 with it."""
    x = get_translation("cpc2ipc-godel-gentzen")
    top_t = translate_type(x.type_map, ObjType("top"))
    wrong = next(p for p, ty in x._closed.values() if ty is not top_t)
    original = translate.translate_term

    def misplacing(x_, ctx, t):  # the second conjunct of andI's image becomes the wrong piece
        out = original(x_, ctx, t)
        pair = out.args[0]
        assert pair.name == "andI"
        misplaced = Con(pair.name, pair.lit, pair.inst, (pair.args[0], wrong))
        return Con(out.name, out.lit, out.inst, (misplaced,))

    top = ObjType("top")
    and_tt = ObjType("and", (top, top))
    term = Con(
        "implI", None, (top, and_tt),
        (Con("andI", None, (top, top), (Var(0), Con("topI", None, (), ()))),),
    )
    path = tmp_path / "misplaced.term"
    path.write_text(print_termfile(get_language("CPC"), (), term))
    monkeypatch.setattr(cli, "translate_term", misplacing)
    monkeypatch.setitem(globals(), "translate_term", misplacing)
    out = translate_term(x, (), term)
    assert out.args[0].args[1] is wrong and id(wrong) in x._closed
    with pytest.raises(TypeCheckError) as plain:
        infer(x.target, (), out)
    with pytest.raises(TypeCheckError) as looked_up:
        infer(x.target, (), out, closed=x._closed)
    assert (looked_up.value.message, looked_up.value.path) == (
        plain.value.message, plain.value.path
    )
    assert plain.value.path == (0, 1)
    assert str(plain.value) == (
        f"at argument path 0.1: expected {top_t}, found {x._closed[id(wrong)][1]}"
    )
    capsys.readouterr()
    xlat = Path(languages.__file__).parent / "data" / "cpc2ipc-godel-gentzen.xlat"
    code = cli.main(["translate", "--xlat", str(xlat), str(path)])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {plain.value}\n"))
    # a builtin's output is not rechecked: the engine's tests hold it
    code = cli.main(["translate", "--using", "cpc2ipc-godel-gentzen", str(path)])
    assert (code, capsys.readouterr().err) == (0, "")


def test_the_recheck_enters_at_most_half_the_frames_on_a_pcf_file():
    """On a seeded 2 000-node PCF file, the recheck with the table enters
    at most half the ``_infer`` frames that plain ``infer`` enters."""
    x = get_translation("pcf2ulc-turing")
    rng = random.Random(960)
    ctx = (NAT, NN, BOOL)
    term = pcf_nat(rng, ctx, 2000)
    out = translate_term(x, ctx, term)
    ctx_t = retype_context(x.type_map, ctx)
    plain, before = _infer_frames(lambda: infer(x.target, ctx_t, out))
    looked_up, after = _infer_frames(lambda: infer(x.target, ctx_t, out, closed=x._closed))
    assert looked_up is plain
    assert 2 * after <= before, (before, after)
