"""What the Goedel-Gentzen images prove, by truth tables.

Every closed CPC proof proves a classical tautology, and its image under
``cpc2ipc-godel-gentzen`` proves the translated proposition in IPC.  By
truth tables over ``p``, ``q`` and ``r``, the image's type must again be a
tautology, and classically equivalent to the source type: the double
negations the translation adds are classically void.

The proofs are built by cases on every atom: ``orE`` over ``EM`` splits on
``p``, ``q`` and ``r`` in turn, and under each valuation the goal, which is
a tautology, is proved from the atoms' hypotheses by structural recursion
(each part proved if it is true and refuted if it is false).  Together the
proofs use every CPC arity; ``andI`` over several goals' proofs gives a
proof of several hundred nodes.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from initsyn.languages import get_language, get_translation
from initsyn.objtypes import ObjType, translate_type
from initsyn.terms import Con, Var, infer
from initsyn.translate import translate_term

ATOMS = ("p", "q", "r")
TOP, BOT = ObjType("top"), ObjType("bot")
VALUATIONS = [dict(zip(ATOMS, bits)) for bits in product((False, True), repeat=len(ATOMS))]


def imp(a: ObjType, b: ObjType) -> ObjType:
    return ObjType("impl", (a, b))


def value(t: ObjType, v: dict[str, bool]) -> bool:
    if t.name in v:
        return v[t.name]
    if t.name in ("top", "bot"):
        return t.name == "top"
    a, b = (value(s, v) for s in t.args)
    return {"and": a and b, "or": a or b, "impl": not a or b}[t.name]


def is_tautology(t: ObjType) -> bool:
    return all(value(t, v) for v in VALUATIONS)


def _con(name, inst, *args):
    return Con(name, None, inst, args)


def tautology_proof(goal: ObjType) -> Con:
    """A closed CPC proof of ``goal``, which must be a tautology."""

    def proof(t: ObjType, depth: int, hyps: dict) -> Con | Var:
        """Of ``t`` if it is true under ``hyps``, else of ``impl(t,bot)``;
        ``hyps`` maps each atom to its hypothesis's binder level and value."""
        v = {a: pos for a, (_, pos) in hyps.items()}
        if t.name in hyps:
            return Var(depth - 1 - hyps[t.name][0])
        if t is TOP:
            return _con("topI", ())
        if t is BOT:
            return _con("implI", (BOT, BOT), Var(0))
        a, b = t.args
        if value(t, v):
            if t.name == "and":
                return _con("andI", (a, b), proof(a, depth, hyps), proof(b, depth, hyps))
            if t.name == "or":
                left = value(a, v)
                return _con("orI1" if left else "orI2", (a, b), proof(a if left else b, depth, hyps))
            if value(b, v):
                return _con("implI", (a, b), proof(b, depth + 1, hyps))
            absurd = _con("implE", (a, BOT), proof(a, depth + 1, hyps), Var(0))
            return _con("implI", (a, b), _con("botI", (b,), absurd))
        if t.name == "and":
            x, proj = (a, "andE1") if not value(a, v) else (b, "andE2")
            body = _con("implE", (x, BOT), proof(x, depth + 1, hyps), _con(proj, (a, b), Var(0)))
        elif t.name == "or":
            branches = [_con("implE", (x, BOT), proof(x, depth + 2, hyps), Var(0)) for x in (a, b)]
            body = _con("orE", (a, b, BOT), Var(0), *branches)
        else:
            applied = _con("implE", (a, b), Var(0), proof(a, depth + 1, hyps))
            body = _con("implE", (b, BOT), proof(b, depth + 1, hyps), applied)
        return _con("implI", (t, BOT), body)

    def split(k: int, depth: int, hyps: dict) -> Con:
        if k == len(ATOMS):
            return proof(goal, depth, hyps)
        atom = ObjType(ATOMS[k])
        no, yes = ({**hyps, ATOMS[k]: (depth, pos)} for pos in (False, True))
        cases = (split(k + 1, depth + 1, no), split(k + 1, depth + 1, yes))
        return _con("orE", (imp(atom, BOT), atom, goal), _con("EM", (atom,)), *cases)

    return split(0, 0, {})


def random_prop(rng: random.Random, height: int) -> ObjType:
    if height == 0 or rng.random() < 0.2:
        return ObjType(rng.choice(ATOMS + ("top", "bot")))
    name = rng.choice(("and", "or", "impl", "impl"))
    return ObjType(name, (random_prop(rng, height - 1), random_prop(rng, height - 1)))


def tautologies(seed: int, count: int, height: int = 4) -> list[ObjType]:
    """``count`` distinct seeded tautologies over p, q and r."""
    rng, out = random.Random(seed), {}
    while len(out) < count:
        t = random_prop(rng, height)
        if is_tautology(t) and any(a in str(t) for a in ATOMS):
            out[t] = None
    return list(out)


def conjunction_proof(goals: list[ObjType]) -> tuple[Con, ObjType]:
    """A proof of ``and(g1, and(g2, ...))`` by ``andI`` over each goal's
    own proof, and that conjunction.  (A case split at the conjunction
    itself would make the image exponential in the splits: ``__stab`` at a
    type of several landings copies its argument once per landing.)"""
    proof, goal = tautology_proof(goals[-1]), goals[-1]
    for g in reversed(goals[:-1]):
        proof = _con("andI", (g, goal), tautology_proof(g), proof)
        goal = ObjType("and", (g, goal))
    return proof, goal


def count_nodes(t) -> int:
    return 1 + sum(count_nodes(a) for a in t.args) if type(t) is Con else 1


CPC = get_language("CPC")
GG = get_translation("cpc2ipc-godel-gentzen")


def test_the_proofs_prove_their_goals_and_use_every_arity():
    names, sizes = set(), []
    for goal in tautologies(31, 40):
        term = tautology_proof(goal)
        assert infer(CPC, (), term) is goal
        sizes.append(count_nodes(term))
        todo = [term]
        while todo:
            t = todo.pop()
            if type(t) is Con:
                names.add(t.name)
                todo += t.args
    assert names == {ar.name for ar in CPC.terms}
    # the case split alone is 22 nodes: 7 orE, 7 EM and a leaf per valuation
    assert min(sizes) == 22 and max(sizes) > 100
    big, goal = conjunction_proof(tautologies(31, 6, height=5))
    assert infer(CPC, (), big) is goal and count_nodes(big) > 300


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_translated_closed_proofs_prove_equivalent_tautologies(seed):
    cases = [(tautology_proof(goal), goal) for goal in tautologies(seed, 40)]
    for proof, goal in cases + [conjunction_proof(tautologies(seed, 6, height=5))]:
        assert infer(CPC, (), proof) is goal
        image = translate_term(GG, (), proof)
        ty = infer(GG.target, (), image)
        assert is_tautology(ty), (str(goal), str(ty))
        assert all(value(ty, v) == value(goal, v) for v in VALUATIONS), (str(goal), str(ty))


def test_the_type_map_keeps_every_subformula_classically_equivalent():
    """Between tautologies, equivalence is implied; the subformulas of the
    goals are mostly not tautologies, so there the tables tell apart."""
    subformulas = set()
    for goal in tautologies(31, 40):
        todo = [goal]
        while todo:
            t = todo.pop()
            subformulas.add(t)
            todo += t.args
    assert sum(not is_tautology(t) for t in subformulas) > len(subformulas) // 3
    for t in subformulas:
        image = translate_type(GG.type_map, t)
        assert all(value(image, v) == value(t, v) for v in VALUATIONS), str(t)
