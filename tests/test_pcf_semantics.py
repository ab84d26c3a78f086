"""What the PCF images compute.

Each closed PCF program of type ``Nat`` or ``Bool`` is translated by both
``pcf2ulc-*`` translations, reduced by ``oracles.ulc_normalise`` (normal
order, at most ``FUEL`` beta steps) and its normal form decoded as a
Church numeral or boolean.  A program without ``rec`` and ``bottom`` must
decode to the value that ``oracles.pcf_eval`` computes on the source; a
program with ``rec`` is checked against its known value; ``bottom``'s
image must run out of fuel.  Unlike the agreement checks, which compare
the engine with oracles that write out the same Church encodings, this
checks what the encodings compute.  The module runs in about 2.5 s on a
2-core x86-64 VM with CPython 3.11.
"""

import random

import pytest

from initsyn.languages import get_language, get_translation
from initsyn.laws import GenConfig, GenFailure, gen_term
from initsyn.objtypes import ObjType
from initsyn.surface import parse_term
from initsyn.translate import translate_term

from oracles import OutOfFuel, church_bool, church_nat, pcf_eval, ulc_normalise

PCF = get_language("PCF")
NAT, BOOL = ObjType("Nat"), ObjType("Bool")
TRANSLATIONS = ("pcf2ulc-turing", "pcf2ulc-curry")
FUEL = 2000

N, B = "Nat", "Bool"


def arr(a: str, b: str) -> str:
    return f"arr({a},{b})"


def app(a: str, b: str, f: str, x: str) -> str:
    """``f x`` for ``f : arr(a,b)``."""
    return f"(app [{a}, {b}] {f} {x})"


def cond(ty: str, c: str, x: str, y: str) -> str:
    k = "(CondN)" if ty == N else "(CondB)"
    inner = arr(ty, arr(ty, ty))
    return app(ty, ty, app(ty, arr(ty, ty), app(B, inner, k, c), x), y)


def nat(k: int) -> str:
    return f"(nats{{{k}}})"


def succ(x: str) -> str:
    return app(N, N, "(Succ)", x)


def pred(x: str) -> str:
    return app(N, N, "(Pred)", x)


def zero(x: str) -> str:
    return app(N, B, "(Zero)", x)


# add = rec (λadd. λm. λn. CondN (Zero m) n (Succ (add (Pred m) n)))
NN, NNN = arr(N, N), arr(N, arr(N, N))
ADD = (
    f"(rec [{NNN}] (abs [{NNN}, {NNN}] (abs [{N}, {NN}] (abs [{N}, {N}] "
    + cond(N, zero("#1"), "#0", succ(app(N, N, app(N, NN, "#2", pred("#1")), "#0")))
    + "))))"
)


def add(x: str, y: str) -> str:
    return app(N, N, app(N, NN, ADD, x), y)


# twice = λf. λx. f (f x)
TWICE = f"(abs [{NN}, {NN}] (abs [{N}, {N}] " + app(N, N, "#1", app(N, N, "#1", "#0")) + "))"

# (program, its value)
HAND = [
    (nat(0), 0),
    (nat(3), 3),
    ("(tttt)", True),
    ("(ffff)", False),
    (succ(nat(3)), 4),
    (pred(nat(3)), 2),
    (pred(nat(0)), 0),
    (pred(succ(nat(0))), 0),
    (zero(nat(0)), True),
    (zero(nat(2)), False),
    (zero(pred(nat(1))), True),
    (cond(N, "(tttt)", nat(1), nat(2)), 1),
    (cond(N, "(ffff)", nat(1), nat(2)), 2),
    (cond(N, zero(nat(0)), succ(nat(2)), pred(nat(2))), 3),
    (cond(B, zero(pred(nat(2))), "(tttt)", "(ffff)"), False),
    (cond(B, "(ffff)", "(ffff)", zero(nat(0))), True),
    (app(N, N, app(NN, NN, TWICE, "(Succ)"), nat(1)), 3),
    (app(N, N, f"(abs [{N}, {N}] " + succ(succ("#0")) + ")", nat(2)), 4),
]
REC = [
    (add(nat(2), nat(3)), 5),
    (add(nat(0), nat(4)), 4),
    (add(nat(3), nat(0)), 3),
    (zero(add(nat(0), nat(0))), True),
    (cond(N, zero(add(nat(1), nat(0))), nat(7), add(nat(1), nat(1))), 2),
]


def program(text: str):
    ctx, term = parse_term(f"context ; {text}", PCF)
    assert ctx == ()
    return term


def _type(value) -> ObjType:
    return BOOL if type(value) is bool else NAT


def computes(name: str, term, ty):
    """What the ULC image of ``term`` decodes to, and its beta steps."""
    normal, steps = ulc_normalise(translate_term(get_translation(name), (), term), FUEL)
    return (church_nat if ty is NAT else church_bool)(normal), steps


@pytest.mark.parametrize("name", TRANSLATIONS)
def test_hand_programs_compute_their_values(name):
    for text, value in HAND:
        term = program(text)
        assert pcf_eval(term) == value, text
        got, _ = computes(name, term, _type(value))
        assert got == value and type(got) is type(value), text


@pytest.mark.parametrize("name", TRANSLATIONS)
def test_addition_by_rec_computes_its_value(name):
    for text, value in REC:
        with pytest.raises(ValueError):
            pcf_eval(program(text))  # the evaluator has no rec
        got, steps = computes(name, program(text), _type(value))
        assert got == value and type(got) is type(value), text
        assert steps > 10


@pytest.mark.parametrize("name", TRANSLATIONS)
def test_bottom_exhausts_the_fuel(name):
    for text, ty in (("(bottom [Nat])", NAT), ("(bottom [Bool])", BOOL),
                     (succ("(bottom [Nat])"), NAT), (zero("(bottom [Nat])"), BOOL),
                     (cond(N, "(bottom [Bool])", nat(0), nat(1)), NAT)):
        with pytest.raises(OutOfFuel):
            computes(name, program(text), ty)
    # a branch that normal order never takes may diverge
    assert computes(name, program(cond(N, "(tttt)", nat(1), "(bottom [Nat])")), NAT)[0] == 1


def _generated(seed: int, n: int):
    """``n`` seeded draws of closed programs, half of type ``Nat`` and half
    of type ``Bool``; a draw that fails is left out."""
    rng, cfg = random.Random(seed), GenConfig(seed=seed, max_depth=5)
    out = []
    for k in range(n):
        goal = NAT if k % 2 == 0 else BOOL
        try:
            out.append((gen_term(PCF, (), goal, cfg, rng=rng), goal))
        except GenFailure:
            pass
    return out


def _uses(term, names) -> bool:
    stack = [term]
    while stack:
        t = stack.pop()
        if hasattr(t, "args"):
            if t.name in names:
                return True
            stack.extend(t.args)
    return False


# per translation: (drawn, without rec and bottom and agreeing with
# pcf_eval, with rec or bottom and decoded, with rec or bottom and out of
# fuel), pinned for seed 9.  Of the 198 out of fuel, 20 (all with rec)
# reached the depth bound and the rest the step bound.
GENERATED_COUNTS = {
    "pcf2ulc-turing": (300, 97, 5, 198),
    "pcf2ulc-curry": (300, 97, 5, 198),
}


@pytest.mark.parametrize("name", TRANSLATIONS)
def test_generated_programs_compute_what_pcf_computes(name):
    programs = _generated(9, 300)
    agree = decoded = out_of_fuel = 0
    for term, ty in programs:
        plain = not _uses(term, ("rec", "bottom"))
        try:
            got, _ = computes(name, term, ty)
        except OutOfFuel:
            assert not plain, term  # a program without rec and bottom stops
            out_of_fuel += 1
            continue
        assert got is not None, term  # every normal form is a value
        if plain:
            assert got == pcf_eval(term), term
            agree += 1
        else:
            decoded += 1
    assert (len(programs), agree, decoded, out_of_fuel) == GENERATED_COUNTS[name]
