"""Seeded benchmark inputs, built directly from term constructors.

Nothing here calls ``initsyn.laws.gen_term``: the law generator is due to
change what it returns for a seed, and that must not change the inputs of
the translate and substitution workloads.  Every builder is a pure function
of its ``random.Random``, so one seed always gives the same inputs; the
digest of their printed form lets two runs check that.

Printing, node counting and nesting are iterative, so they work on the deep
probe inputs at the default recursion limit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from initsyn.objtypes import ObjType
from initsyn.terms import Con, Term, Var

NAT, BOOL = ObjType("Nat"), ObjType("Bool")
STAR = ObjType("*")
BOT, TOP = ObjType("bot"), ObjType("top")
ATOMS = (ObjType("p"), ObjType("q"), ObjType("r"))


def arr(a: ObjType, b: ObjType) -> ObjType:
    return ObjType("arr", (a, b))


NN = arr(NAT, NAT)
PCF_TYPES = (NAT, BOOL, NN)


def con(name: str, inst: tuple = (), args: tuple = (), lit: int | None = None) -> Con:
    return Con(name, lit, inst, args)


def app(a: ObjType, b: ObjType, f: Term, x: Term) -> Con:
    return con("app", (a, b), (f, x))


def _split(rng: random.Random, size: int, parts: int) -> list[int]:
    """Cut ``size`` into ``parts`` positive shares of similar magnitude, so
    trees stay balanced and their nesting grows with log(size)."""
    weights = [rng.uniform(0.6, 1.4) for _ in range(parts)]
    total = sum(weights)
    shares = [max(1, int(size * w / total)) for w in weights]
    return shares


def sized(build, target: int, tolerance: float = 0.08) -> Term:
    """``build(budget)`` retried with a corrected budget until the term has
    ``target`` nodes within ``tolerance``, so every seed gives inputs of the
    same sizes and only their shapes differ."""
    budget = target
    best = None
    for _ in range(30):
        term = build(budget)
        n = count_nodes(term)
        if best is None or abs(n - target) < abs(best[0] - target):
            best = (n, term)
        if abs(n - target) <= tolerance * target:
            break
        budget = max(2, round(budget * min(4.0, target / n)))
    return best[1]


# ---------------------------------------------------------------------------
# Properties, printing and digests


def show_type(t: ObjType) -> str:
    if not t.args:
        return t.name
    return f"{t.name}({','.join(show_type(a) for a in t.args)})"


def show_term(term: Term) -> str:
    """The canonical ``.term`` rendering, written independently of
    ``initsyn.surface`` and without recursion."""
    out: list[str] = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
        elif type(t) is Var:
            out.append(f"#{t.index}")
        else:
            head = t.name if t.lit is None else f"{t.name}{{{t.lit}}}"
            if t.inst:
                head += " [" + ", ".join(show_type(a) for a in t.inst) + "]"
            out.append("(" + head)
            stack.append(")")
            for a in reversed(t.args):
                stack.append(a)
                stack.append(" ")
    return "".join(out)


def term_file(ctx: tuple[ObjType, ...], term: Term) -> str:
    types = " ".join(show_type(t) for t in ctx)
    head = f"context {types} ;" if ctx else "context ;"
    return f"{head} {show_term(term)}\n"


def shape(term: Term) -> tuple[int, int, int]:
    """(nodes, maximum nesting, largest family literal)."""
    nodes = nesting = lit = 0
    stack = [(term, 1)]
    while stack:
        t, depth = stack.pop()
        nodes += 1
        nesting = max(nesting, depth)
        if type(t) is Con:
            if t.lit is not None:
                lit = max(lit, t.lit)
            stack.extend((a, depth + 1) for a in t.args)
    return nodes, nesting, lit


def count_nodes(term: Term) -> int:
    nodes = 0
    stack = [term]
    while stack:
        t = stack.pop()
        nodes += 1
        if type(t) is Con:
            stack.extend(t.args)
    return nodes


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# PCF


class PcfBuilder:
    """Well-typed PCF terms of a requested size over a scope (innermost
    first).  Types stay within Nat, Bool and arr(Nat,Nat), so a per-type
    memo sees the same few types over and over."""

    def __init__(self, rng: random.Random, binder_rate: float = 1.0):
        self.rng = rng
        self.binder_rate = binder_rate

    def _var(self, goal: ObjType, scope: tuple) -> Var | None:
        for _ in range(6):
            if not scope:
                return None
            i = self.rng.randrange(len(scope))
            if scope[i] == goal:
                return Var(i)
        return None

    def term(self, goal: ObjType, scope: tuple, size: int) -> Term:
        if goal == NAT:
            return self.nat(scope, size)
        if goal == BOOL:
            return self.bool(scope, size)
        return self.fn(scope, size)

    def nat(self, scope: tuple, size: int) -> Term:
        rng = self.rng
        if size <= 2:
            v = self._var(NAT, scope) if rng.random() < 0.7 else None
            return v or con("nats", lit=rng.randint(0, 4))
        r = rng.random()
        if r < 0.2:
            op = con(rng.choice(("Succ", "Pred")))
            return app(NAT, NAT, op, self.nat(scope, size - 2))
        if r < 0.45:
            b, x, y = _split(rng, size - 4, 3)
            cond = app(BOOL, arr(NAT, NN), con("CondN"), self.bool(scope, b))
            return app(NAT, NAT, app(NAT, NN, cond, self.nat(scope, x)), self.nat(scope, y))
        if rng.random() >= self.binder_rate:
            return app(NAT, NAT, self.fn(scope, 1), self.nat(scope, size - 2))
        if r < 0.9:
            f, x = _split(rng, size - 1, 2)
            return app(NAT, NAT, self.fn(scope, f), self.nat(scope, x))
        return con("rec", (NAT,), (self.fn(scope, size - 1),))

    def bool(self, scope: tuple, size: int) -> Term:
        rng = self.rng
        if size <= 2:
            v = self._var(BOOL, scope) if rng.random() < 0.7 else None
            return v or con(rng.choice(("tttt", "ffff")))
        if rng.random() < 0.5:
            return app(NAT, BOOL, con("Zero"), self.nat(scope, size - 2))
        a, b, c = _split(rng, size - 4, 3)
        bb = arr(BOOL, BOOL)
        cond = app(BOOL, arr(BOOL, bb), con("CondB"), self.bool(scope, a))
        return app(BOOL, BOOL, app(BOOL, bb, cond, self.bool(scope, b)), self.bool(scope, c))

    def fn(self, scope: tuple, size: int) -> Term:
        rng = self.rng
        if size <= 2:
            v = self._var(NN, scope) if rng.random() < 0.5 else None
            return v or con(rng.choice(("Succ", "Pred")))
        return con("abs", (NAT, NAT), (self.nat((NAT,) + scope, size - 1),))

    def redex_spine(self, scope: tuple, depth: int, size: int) -> Term:
        """``depth`` nested beta-redexes around a Nat body, so binder depth
        along the spine is exactly ``depth`` while the type stays Nat."""
        body_scope = (NAT,) * depth + scope
        term = self.nat(body_scope, max(1, size - 3 * depth))
        for k in range(depth):
            arg = self.nat(body_scope[k + 1 :], 2)
            term = app(NAT, NAT, con("abs", (NAT, NAT), (term,)), arg)
        return term


# ---------------------------------------------------------------------------
# ULC


class UlcBuilder:
    def __init__(self, rng: random.Random, binder_rate: float):
        self.rng = rng
        self.binder_rate = binder_rate

    def term(self, scope_len: int, size: int) -> Term:
        rng = self.rng
        if size <= 1:
            return Var(rng.randrange(scope_len))
        if rng.random() < self.binder_rate:
            return con("abs", (), (self.term(scope_len + 1, size - 1),))
        f, x = _split(rng, size - 1, 2)
        return con("app", (), (self.term(scope_len, f), self.term(scope_len, x)))

    def abs_spine(self, scope_len: int, depth: int, size: int) -> Term:
        term = self.term(scope_len + depth, max(1, size - depth))
        for _ in range(depth):
            term = con("abs", (), (term,))
        return term


# ---------------------------------------------------------------------------
# CPC


def _imp(a: ObjType, b: ObjType) -> ObjType:
    return ObjType("impl", (a, b))


def _copies(t: ObjType) -> int:
    """How many copies of an ``orE`` refutation the double-negation
    stability witness for ``t`` makes.  Each ``and`` on the right spine
    doubles them, so nested eliminations into such goals grow the output
    exponentially; proofs only eliminate into goals with one copy."""
    if t.name == "and":
        return _copies(t.args[0]) + _copies(t.args[1])
    if t.name == "impl":
        return _copies(t.args[1])
    return 1


class CpcBuilder:
    """Classical proofs of a requested size.  Eliminations instantiate
    freshly drawn propositions, so proofs carry many distinct types.  The
    last context entry is a ``bot`` hypothesis, which makes every goal
    provable by ``botI`` at the leaves."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def prop(self, height: int = 3) -> ObjType:
        """A complete tree of the given height, so that type sizes, and with
        them the cost of translating a type, do not vary from seed to seed."""
        rng = self.rng
        if height == 0:
            return rng.choice(ATOMS + ATOMS + (TOP, BOT))
        return ObjType(
            rng.choice(("and", "or", "impl")),
            (self.prop(height - 1), self.prop(height - 1)),
        )

    def _var(self, goal: ObjType, scope: tuple) -> Var | None:
        for _ in range(4):
            i = self.rng.randrange(len(scope))
            if scope[i] == goal:
                return Var(i)
        return None

    def leaf(self, goal: ObjType, scope: tuple) -> Term:
        v = self._var(goal, scope)
        if v is not None:
            return v
        if goal == TOP:
            return con("topI")
        if goal.name == "or" and goal.args[0] == _imp(goal.args[1], BOT):
            return con("EM", (goal.args[1],))
        return con("botI", (goal,), (Var(len(scope) - 1),))

    def proof(self, goal: ObjType, scope: tuple, size: int) -> Term:
        rng = self.rng
        if size <= 2:
            return self.leaf(goal, scope)
        structural = rng.random() < 0.4
        if structural and goal.name == "and":
            a, b = goal.args
            x, y = _split(rng, size - 1, 2)
            return con("andI", (a, b), (self.proof(a, scope, x), self.proof(b, scope, y)))
        if structural and goal.name == "impl":
            a, b = goal.args
            return con("implI", (a, b), (self.proof(b, (a,) + scope, size - 1),))
        if structural and goal.name == "or":
            a, b = goal.args
            if rng.random() < 0.5:
                return con("orI1", (a, b), (self.proof(a, scope, size - 1),))
            return con("orI2", (a, b), (self.proof(b, scope, size - 1),))
        r = rng.random()
        if r < 0.4:
            a = self.prop()
            f, x = _split(rng, size - 1, 2)
            return con(
                "implE",
                (a, goal),
                (self.proof(_imp(a, goal), scope, f), self.proof(a, scope, x)),
            )
        if r < 0.65 and _copies(goal) == 1:
            a, b = self.prop(2), self.prop(2)
            s, l, rr = _split(rng, size - 1, 3)
            return con(
                "orE",
                (a, b, goal),
                (
                    self.proof(ObjType("or", (a, b)), scope, s),
                    self.proof(goal, (a,) + scope, l),
                    self.proof(goal, (b,) + scope, rr),
                ),
            )
        if r < 0.85:
            other = self.prop()
            x, y = _split(rng, size - 1, 2)
            pair = con(
                "andI", (goal, other), (self.proof(goal, scope, x), self.proof(other, scope, y))
            )
            return con("andE1", (goal, other), (pair,))
        if r < 0.93:
            return con("botI", (goal,), (self.proof(BOT, scope, size - 1),))
        return self.leaf(goal, scope)


# ---------------------------------------------------------------------------
# Input records


@dataclass(frozen=True)
class Props:
    """The properties an input is chosen and bucketed by."""

    nodes: int
    ctx_len: int
    nesting: int
    width: int = 0
    literal: int = 0
    binder_depth: int = 0
