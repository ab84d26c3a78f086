"""Hand-written reference translators, independent of the template engine.

These implement the same per-constructor clauses as the shipped
translations, but by direct structural recursion with explicitly spelled
out target terms.  The agreement checks compare the engine against them
node for node.
"""

from initsyn.objtypes import ObjType
from initsyn.terms import Con, Term, Var, weaken


# ---------------------------------------------------------------------------
# Goedel-Gentzen on propositions


def _o_imp(a: ObjType, b: ObjType) -> ObjType:
    return ObjType("impl", (a, b))


_O_BOT = ObjType("bot")
_O_TOP = ObjType("top")


def _o_neg(a: ObjType) -> ObjType:
    return _o_imp(a, _O_BOT)


def _o_nn(a: ObjType) -> ObjType:
    return _o_neg(_o_neg(a))


def gg_prop(t: ObjType) -> ObjType:
    """Double negation translation on propositions, clause by clause."""
    if t.name == "and":
        return ObjType("and", (gg_prop(t.args[0]), gg_prop(t.args[1])))
    if t.name == "impl":
        return _o_imp(gg_prop(t.args[0]), gg_prop(t.args[1]))
    if t.name == "or":
        a, b = gg_prop(t.args[0]), gg_prop(t.args[1])
        return _o_neg(ObjType("and", (_o_neg(a), _o_neg(b))))
    # atoms, top and bot are doubly negated
    return _o_nn(t)


# ---------------------------------------------------------------------------
# PCF to ULC


def _abs(body: Term) -> Term:
    return Con("abs", None, (), (body,))


def _app(f: Term, a: Term) -> Term:
    return Con("app", None, (), (f, a))


def _apps(f: Term, *rest: Term) -> Term:
    for a in rest:
        f = _app(f, a)
    return f


def church(m: int) -> Term:
    body = Var(0)
    for _ in range(m):
        body = _app(Var(1), body)
    return _abs(_abs(body))


def theta_term() -> Term:
    w = _abs(_abs(_app(Var(0), _apps(Var(1), Var(1), Var(0)))))
    return _app(w, w)


def y_term() -> Term:
    half = _abs(_app(Var(1), _app(Var(0), Var(0))))
    return _abs(_app(half, half))


_TRUE = _abs(_abs(Var(1)))
_FALSE = _abs(_abs(Var(0)))
_COND = _abs(_abs(_abs(_apps(Var(2), Var(1), Var(0)))))
_SUCC = _abs(_abs(_abs(_app(Var(1), _apps(Var(2), Var(1), Var(0))))))
_PRED = _abs(
    _abs(
        _abs(
            _apps(
                Var(2),
                _abs(_abs(_app(Var(0), _app(Var(1), Var(3))))),
                _abs(Var(1)),
                _abs(Var(0)),
            )
        )
    )
)
_ZEROP = _abs(_apps(Var(0), _abs(_abs(_abs(Var(0)))), _abs(_abs(Var(1)))))
_OMEGA = _app(_abs(_app(Var(0), Var(0))), _abs(_app(Var(0), Var(0))))


def pcf_to_ulc(fix: Term):
    """Direct recursor for the PCF-to-ULC translation with combinator
    ``fix`` standing in for the recursion operator."""

    def go(ctx, term: Term) -> Term:
        if isinstance(term, Var):
            return Var(term.index)
        name, args = term.name, term.args
        if name == "app":
            return _app(go(ctx, args[0]), go(ctx, args[1]))
        if name == "abs":
            return _abs(go(ctx, args[0]))
        if name == "rec":
            return _app(fix, go(ctx, args[0]))
        if name == "tttt":
            return _TRUE
        if name == "ffff":
            return _FALSE
        if name == "nats":
            return church(term.lit)
        if name == "Succ":
            return _SUCC
        if name == "Pred":
            return _PRED
        if name == "Zero":
            return _ZEROP
        if name in ("CondN", "CondB"):
            return _COND
        if name == "bottom":
            return _OMEGA
        raise AssertionError(f"unknown PCF constructor {name}")

    return go


# ---------------------------------------------------------------------------
# CPC to IPC on proofs

_IPC = None


def _ipc():
    global _IPC
    if _IPC is None:
        from initsyn.languages import get_language

        _IPC = get_language("IPC")
    return _IPC


def _implI(a: ObjType, b: ObjType, body: Term) -> Term:
    return Con("implI", None, (a, b), (body,))


def _implE(a: ObjType, b: ObjType, f: Term, x: Term) -> Term:
    return Con("implE", None, (a, b), (f, x))


def _andI(a: ObjType, b: ObjType, l: Term, r: Term) -> Term:
    return Con("andI", None, (a, b), (l, r))


def _up(t: Term, cutoff: int, amount: int) -> Term:
    return weaken(_ipc(), t, cutoff, amount)


def stable(ty: ObjType, d: Term) -> Term:
    """From d : not not ty, a proof of ty, by recursion on ty."""
    if ty == _O_BOT:
        return _implE(_o_imp(_O_BOT, _O_BOT), _O_BOT, d, _implI(_O_BOT, _O_BOT, Var(0)))
    if ty == _O_TOP:
        return Con("topI", None, (), ())
    if ty.name == "and":
        a, b = ty.args
        da = _implI(
            _o_neg(a),
            _O_BOT,
            _implE(
                _o_neg(ty),
                _O_BOT,
                _up(d, 0, 1),
                _implI(
                    ty,
                    _O_BOT,
                    _implE(a, _O_BOT, Var(1), Con("andE1", None, (a, b), (Var(0),))),
                ),
            ),
        )
        db = _implI(
            _o_neg(b),
            _O_BOT,
            _implE(
                _o_neg(ty),
                _O_BOT,
                _up(d, 0, 1),
                _implI(
                    ty,
                    _O_BOT,
                    _implE(b, _O_BOT, Var(1), Con("andE2", None, (a, b), (Var(0),))),
                ),
            ),
        )
        return _andI(a, b, stable(a, da), stable(b, db))
    if ty.name == "impl":
        a, b = ty.args
        db = _implI(
            _o_neg(b),
            _O_BOT,
            _implE(
                _o_neg(ty),
                _O_BOT,
                _up(d, 0, 2),
                _implI(
                    ty,
                    _O_BOT,
                    _implE(b, _O_BOT, Var(1), _implE(a, b, Var(0), Var(2))),
                ),
            ),
        )
        return _implI(a, b, stable(b, db))
    raise AssertionError(f"type {ty} is not stable")


def gg_or_elim(a: ObjType, b: ObjType, c: ObjType, major: Term, left: Term, right: Term) -> Term:
    """The image of ``orE`` at the translated types ``a``, ``b`` and ``c``,
    from the images of its three arguments, each in its own context."""
    hyp = ObjType("and", (_o_neg(a), _o_neg(b)))
    refutation = _implI(
        _o_neg(c),
        _O_BOT,
        _implE(
            hyp,
            _O_BOT,
            _up(major, 0, 1),
            _andI(
                _o_neg(a),
                _o_neg(b),
                _implI(a, _O_BOT, _implE(c, _O_BOT, Var(1), _up(left, 1, 1))),
                _implI(b, _O_BOT, _implE(c, _O_BOT, Var(1), _up(right, 1, 1))),
            ),
        ),
    )
    return stable(c, refutation)


def cpc_to_ipc(ctx, term: Term) -> Term:
    if isinstance(term, Var):
        return Var(term.index)
    name, inst, args = term.name, term.inst, term.args
    gi = tuple(gg_prop(t) for t in inst)

    def sub(j: int, binders) -> Term:
        extended = tuple(binders) + tuple(ctx)
        return cpc_to_ipc(extended, args[j])

    if name == "topI":
        return _implI(
            _o_neg(_O_TOP),
            _O_BOT,
            _implE(_O_TOP, _O_BOT, Var(0), Con("topI", None, (), ())),
        )
    if name == "botI":
        (a,) = gi
        return Con(
            "botI",
            None,
            (a,),
            (
                _implE(
                    _o_imp(_O_BOT, _O_BOT),
                    _O_BOT,
                    sub(0, ()),
                    _implI(_O_BOT, _O_BOT, Var(0)),
                ),
            ),
        )
    if name == "andI":
        a, b = gi
        return _andI(a, b, sub(0, ()), sub(1, ()))
    if name == "andE1":
        return Con("andE1", None, gi, (sub(0, ()),))
    if name == "andE2":
        return Con("andE2", None, gi, (sub(0, ()),))
    if name == "implI":
        a, b = gi
        return _implI(a, b, sub(0, (inst[0],)))
    if name == "implE":
        a, b = gi
        return _implE(a, b, sub(0, ()), sub(1, ()))
    if name in ("orI1", "orI2"):
        a, b = gi
        this, proj = (a, "andE1") if name == "orI1" else (b, "andE2")
        hyp = ObjType("and", (_o_neg(a), _o_neg(b)))
        return _implI(
            hyp,
            _O_BOT,
            _implE(
                this,
                _O_BOT,
                Con(proj, None, (_o_neg(a), _o_neg(b)), (Var(0),)),
                _up(sub(0, ()), 0, 1),
            ),
        )
    if name == "orE":
        a, b, c = gi
        return gg_or_elim(a, b, c, sub(0, ()), sub(1, (inst[0],)), sub(2, (inst[1],)))
    if name == "EM":
        (a,) = gi
        neg_a_img = _o_imp(a, _o_nn(_O_BOT))
        hyp = ObjType("and", (_o_neg(neg_a_img), _o_neg(a)))
        return _implI(
            hyp,
            _O_BOT,
            _implE(
                neg_a_img,
                _O_BOT,
                Con("andE1", None, (_o_neg(neg_a_img), _o_neg(a)), (Var(0),)),
                _implI(
                    a,
                    _o_nn(_O_BOT),
                    _implI(
                        _o_imp(_O_BOT, _O_BOT),
                        _O_BOT,
                        _implE(
                            a,
                            _O_BOT,
                            Con(
                                "andE2",
                                None,
                                (_o_neg(neg_a_img), _o_neg(a)),
                                (Var(2),),
                            ),
                            Var(1),
                        ),
                    ),
                ),
            ),
        )
    raise AssertionError(f"unknown CPC constructor {name}")


# ---------------------------------------------------------------------------
# What PCF programs compute


def pcf_eval(term: Term):
    """The value of a closed PCF program without ``rec`` and ``bottom``,
    by big-step call-by-value evaluation: an int of type ``Nat``, a bool of
    type ``Bool`` and a Python function of an arrow type.  ``Pred`` of 0 is
    0, as the Church predecessor makes it.  Such programs always stop."""
    consts = {
        "tttt": True,
        "ffff": False,
        "Succ": lambda n: n + 1,
        "Pred": lambda n: max(n - 1, 0),
        "Zero": lambda n: n == 0,
        "CondN": lambda b: lambda x: lambda y: x if b else y,
    }
    consts["CondB"] = consts["CondN"]

    def ev(t: Term, env: tuple):
        if type(t) is Var:
            return env[t.index]
        if t.name == "app":
            return ev(t.args[0], env)(ev(t.args[1], env))
        if t.name == "abs":
            body = t.args[0]
            return lambda v: ev(body, (v,) + env)
        if t.name == "nats":
            return t.lit
        if t.name in consts:
            return consts[t.name]
        raise ValueError(f"pcf_eval does not evaluate {t.name}")

    return ev(term, ())


class OutOfFuel(Exception):
    """``ulc_normalise`` ran out of beta steps or of depth."""


def ulc_normalise(term: Term, fuel: int = 2000, max_depth: int = 300) -> tuple[Term, int]:
    """The beta normal form of a ULC term by normal-order (leftmost
    outermost) reduction, and the number of beta steps it took.  Raises
    ``OutOfFuel`` on the step after ``fuel`` steps, or when the normaliser
    would nest deeper than ``max_depth`` calls, which bounds the depth of
    every term it builds, so that it stays within the default recursion
    limit.  Terms are worked on as tuples: ``("v", i)``, ``("l", body)``
    and ``("a", f, x)``."""
    steps = 0

    def check(depth: int) -> None:
        if depth > max_depth:
            raise OutOfFuel(f"deeper than {max_depth}")

    def shift(t: tuple, cutoff: int, by: int, depth: int) -> tuple:
        check(depth)
        if t[0] == "v":
            return ("v", t[1] + by) if t[1] >= cutoff else t
        if t[0] == "l":
            return ("l", shift(t[1], cutoff + 1, by, depth + 1))
        return ("a", shift(t[1], cutoff, by, depth + 1), shift(t[2], cutoff, by, depth + 1))

    def subst(t: tuple, j: int, s: tuple, depth: int) -> tuple:
        # index j becomes s shifted past the j binders above it; free
        # indices above j lose the binder that is contracted
        check(depth)
        if t[0] == "v":
            i = t[1]
            if i == j:
                return shift(s, 0, j, depth + 1) if j else s
            return ("v", i - 1) if i > j else t
        if t[0] == "l":
            return ("l", subst(t[1], j + 1, s, depth + 1))
        return ("a", subst(t[1], j, s, depth + 1), subst(t[2], j, s, depth + 1))

    def nf(t: tuple, depth: int) -> tuple:
        nonlocal steps
        check(depth)
        if t[0] == "l":
            return ("l", nf(t[1], depth + 1))
        args = []  # the spine's arguments, the first one last
        while t[0] == "a":
            args.append(t[2])
            t = t[1]
        while t[0] == "l" and args:  # contract the head redex
            steps += 1
            if steps > fuel:
                raise OutOfFuel(f"more than {fuel} beta steps")
            t = subst(t[1], 0, args.pop(), depth + 1)
            while t[0] == "a":
                args.append(t[2])
                t = t[1]
        if t[0] == "l":
            return ("l", nf(t[1], depth + 1))
        for a in reversed(args):
            t = ("a", t, nf(a, depth + 1))
        return t

    def tuples(t: Term, depth: int) -> tuple:
        check(depth)
        if type(t) is Var:
            return ("v", t.index)
        return ("l" if t.name == "abs" else "a",) + tuple([tuples(a, depth + 1) for a in t.args])

    def terms(t: tuple) -> Term:
        if t[0] == "v":
            return Var(t[1])
        if t[0] == "l":
            return _abs(terms(t[1]))
        return _app(terms(t[1]), terms(t[2]))

    return terms(nf(tuples(term, 0), 0)), steps


def church_nat(term: Term) -> int | None:
    """``m`` when ``term`` is the Church numeral ``church(m)``, else None."""
    match term:
        case Con("abs", None, (), (Con("abs", None, (), (body,)),)):
            m = 0
            while body != Var(0):
                match body:
                    case Con("app", None, (), (Var(1), body)):
                        m += 1
                    case _:
                        return None
            return m
    return None


def church_bool(term: Term) -> bool | None:
    """The boolean that ``term`` encodes as ``tttt``'s or ``ffff``'s image,
    else None."""
    if term == _TRUE:
        return True
    if term == _FALSE:
        return False
    return None
