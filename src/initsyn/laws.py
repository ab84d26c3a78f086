"""Seeded random generation of well-typed terms and executable law checks.

Generation is type-directed: at every step the generator chooses uniformly
among context variables of the goal type and arities whose declared result
matches the goal under some instantiation; type parameters not fixed by
matching are drawn from a finite pool (ground types of bounded height plus
subterms of the context and goal).  Runs are pure functions of the inputs
and the seed: each case derives its own generator state by mixing the seed
with the case index, so reports are reproducible bit for bit.  Which values
are drawn from that state, and in which order, is part of this contract
(see ``gen_term``): a change to it changes every report's cases.  A node's
candidates, draws and argument goals are handled in one frame, each draw
by the ``getrandbits`` calls of CPython's ``Random._randbelow``, which
``random.sample``, ``choice`` and ``randint`` use: the values are theirs.

Everything about a signature that does not depend on the goal is compiled
once per signature, on first use, into tables that live as long as the
signature: for every arity, a matcher of its result against a goal and its
argument goal and binder types as functions of the instantiation
(``objtypes.compile_type_expr``), and for every type constructor the
arities that can produce a goal with that root, with the constants split
out for the last level of depth.  Nothing is cached by goal or by
instantiation.

At the last level of depth only constants and context variables fit, so an
argument goal whose root no constant produces can only be a context
variable of exactly that type.  Types are hash-consed, and a type that is
not live is in no context: such an argument is decided by looking its type
up in the intern table (``objtypes.interned``), after building its binder
types, which may hold it.  A dead end found this way ends the node just
where, and after just the draws, that generating the argument would.

A case that fails to generate (an unreachable goal within the depth and
retry budget) counts as skipped, never as a silent pass; a report with
more than half of its cases skipped does not pass.  A checked operation
that raises ``TypeCheckError`` or ``ValueError`` on a case makes that case
a counterexample, which names the law being checked and the exception.
"""

from __future__ import annotations

import random
import weakref
from operator import itemgetter
from typing import Callable

from .objtypes import (
    Frozen,
    ObjType,
    TVar,
    TypeExpr,
    compile_type_expr,
    ground_types,
    interned,
    subterms,
    translate_type,
    type_function,
)
from .signatures import TermArity, TypedSignature
from .terms import (
    Context,
    Substitution,
    VAR_TABLE_SIZE,
    Term,
    TypeCheckError,
    Var,
    _con,
    identity_substitution,
    infer,
    paused_gc,
    substitute,
    var_table,
)
from .translate import Representation, retype_context, translate_term

_MASK = (1 << 64) - 1


def _mix(seed: int, index: int) -> int:
    """splitmix64 finalizer; platform-independent case seeds."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class GenConfig(Frozen):
    __slots__ = __match_args__ = ("seed", "max_depth", "cases", "retries")
    _defaults = {"max_depth": 6, "cases": 1000, "retries": 16}
    seed: int
    max_depth: int
    cases: int
    retries: int

    def __post_init__(self) -> None:
        if self.cases < 1:
            raise ValueError("cases must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.retries < 0:
            raise ValueError("retries must not be negative")


class GenFailure(Exception):
    """The goal was not reached within the depth and retry budget."""


class _Exhausted(Exception):
    pass


_DEADEND_BUDGET = 40


class _Candidate:
    """An arity compiled for generation.

    ``bind(goal)`` is ``None`` when the result does not match ``goal``, and
    otherwise the instantiation that matching fixes: a tuple when it fixes
    every parameter, else a list with ``None`` for each free one (which
    callers must not change).
    ``args`` holds, per argument, its goal type and its binder types as
    functions of the instantiation, and ``probe``: ``None`` when a constant
    may have the argument's goal type, else a function of the
    instantiation returning that type if it is live and ``None`` if not,
    without building it (see ``_Generator.gen``).
    """

    # a plain slotted record, not a value: it is never compared or hashed
    __slots__ = ("name", "family", "bind", "args")

    def __init__(self, name: str, family: bool, bind: Callable, args: tuple):
        self.name, self.family, self.bind, self.args = name, family, bind, args


# Candidates for goals with one root, for any depth and for depth at most 1
# (constants alone): the arities whose result has that root, which must be
# matched, then those whose result is a type variable, which match any
# goal, each paired with None (``gen`` pairs a matched one with its
# binding; these bind only when drawn); each in signature order.
_Split = tuple[tuple[tuple[_Candidate, ...], tuple[tuple[_Candidate, None], ...]], ...]


class _SigTables:
    """What generation needs of one signature, compiled once: the
    ground-type pool (closed under subterms), the candidates by goal root,
    ``var_rooted`` being those of a root no arity has, and ``leaf_roots``,
    the roots of the constants' results."""

    __slots__ = ("pool", "by_root", "var_rooted", "leaf_roots")

    def __init__(
        self,
        pool: list[ObjType],
        by_root: dict[str, _Split],
        var_rooted: _Split,
        leaf_roots: frozenset[str],
    ):
        self.pool, self.by_root, self.var_rooted = pool, by_root, var_rooted
        self.leaf_roots = leaf_roots


# id(signature) -> its tables; an entry leaves with its signature
_sig_cache: dict[int, _SigTables] = {}


def _sig_data(sig: TypedSignature) -> _SigTables:
    """The generation tables of ``sig``, compiled on first use.

    The entry holds no reference to ``sig``, and a finalizer removes it
    when ``sig`` is freed, so the cache keeps no signature alive and no id
    is reused while its entry is still there.
    """
    data = _sig_cache.get(id(sig))
    if data is not None:
        return data
    constants = [ar for ar in sig.terms if not ar.args]
    leaf_roots = frozenset(ar.result.name for ar in constants if type(ar.result) is not TVar)
    # a constant of any type makes no root leafless, so nothing is probed
    probed = None if any(type(ar.result) is TVar for ar in constants) else leaf_roots
    var_rooted = [_compile_arity(ar, probed) for ar in sig.terms if type(ar.result) is TVar]
    roots: dict[str, list[_Candidate]] = {}
    for ar in sig.terms:
        if type(ar.result) is not TVar:
            roots.setdefault(ar.result.name, []).append(_compile_arity(ar, probed))
    data = _SigTables(
        ground_types(sig.all_types, 2),
        {root: _split(cands, var_rooted) for root, cands in roots.items()},
        _split([], var_rooted),
        leaf_roots,
    )
    _sig_cache[id(sig)] = data
    weakref.finalize(sig, _sig_cache.pop, id(sig), None)
    return data


def _split(matched: list[_Candidate], var_rooted: list[_Candidate]) -> _Split:
    def leaves(cands):
        return tuple(c for c in cands if not c.args)

    return (
        (tuple(matched), tuple((c, None) for c in var_rooted)),
        (leaves(matched), tuple((c, None) for c in leaves(var_rooted))),
    )


def _compile_arity(ar: TermArity, leaf_roots: frozenset[str] | None) -> _Candidate:
    """``ar`` compiled; an argument gets a probe when ``leaf_roots`` (the
    roots a constant can produce, ``None`` for all) lacks its goal's root,
    or when that root is a parameter's and so known only per node."""
    args = tuple(
        (
            type_function(compile_type_expr(spec.body, ar.degree)),
            tuple(type_function(compile_type_expr(b, ar.degree)) for b in spec.binders),
            None
            if leaf_roots is None
            or (type(spec.body) is not TVar and spec.body.name in leaf_roots)
            else _compile_probe(spec.body, ar.degree),
        )
        for spec in ar.args
    )
    return _Candidate(ar.name, ar.family_index, _compile_bind(ar.result, ar.degree), args)


def _compile_probe(e: TypeExpr, degree: int) -> Callable | None:
    """A function of instantiations returning the live type that ``e``
    evaluates to, or ``None`` when that type is not live; it builds no
    type.  ``None`` for an expression ``compile_type_expr`` would compile
    to an error."""
    if type(e) is TVar:
        return itemgetter(e.index - 1) if 1 <= e.index <= degree else None
    fixed, _ = compile_type_expr(e, degree)
    if fixed is not None:
        return lambda inst: fixed
    parts = [_compile_probe(a, degree) for a in e.args]
    if None in parts:
        return None
    name = e.name
    if len(parts) > 1 and all(type(a) is TVar for a in e.args):
        # C($i,$j,...): the children are parameters, so live; one tuple
        children = itemgetter(*[a.index - 1 for a in e.args])
        return lambda inst: interned(name, children(inst))

    def probe(inst):
        args = []
        for part in parts:
            arg = part(inst)
            if arg is None:
                return None
            args.append(arg)
        return interned(name, tuple(args))

    return probe


def _compile_bind(result: TypeExpr, degree: int) -> Callable:
    """``_Candidate.bind`` for a result expression: the common shapes get
    their own matcher, any other goes through ``_match``."""
    if type(result) is TVar:
        if degree == 1:
            return lambda goal: (goal,)
        k = result.index - 1

        def bind_var(goal):
            binding = [None] * degree
            binding[k] = goal
            return binding

        return bind_var
    if list(result.args) == [TVar(i + 1) for i in range(degree)]:
        # C($1,...,$n): the goal's children are the instantiation
        name, n = result.name, degree
        return lambda goal: goal.args if goal.name == name and len(goal.args) == n else None
    fixed, _ = compile_type_expr(result, degree)
    if fixed is not None:
        # closed: interned, so equal ground types are the same object
        unbound = [None] * degree if degree else ()
        return lambda goal: unbound if goal is fixed else None

    def bind(goal):
        binding = [None] * degree
        if not _match(result, goal, binding):
            return None
        return binding if None in binding else tuple(binding)

    return bind


def _match(expr, goal: ObjType, binding: list) -> bool:
    """First-order matching of a result expression against a ground goal."""
    if type(expr) is TVar:
        k = expr.index - 1
        if binding[k] is None:
            binding[k] = goal
            return True
        return binding[k] is goal
    if expr.name != goal.name or len(expr.args) != len(goal.args):
        return False
    return all(_match(e, g, binding) for e, g in zip(expr.args, goal.args))


class _Generator:
    """The search of one ``gen_term`` call.  Every table it reads is
    compiled per signature, so a node costs its candidate matches, its
    draws and its argument goals, handled in one frame with the
    ``getrandbits`` calls of ``random.sample``, ``choice`` and ``randint``."""

    def __init__(self, sig: TypedSignature, rng: random.Random, pool: list[ObjType]):
        tables = _sig_data(sig)
        self.by_root = tables.by_root
        self.var_rooted = tables.var_rooted
        self.leaf_roots = tables.leaf_roots
        self.getrandbits = rng.getrandbits
        self.pool = pool
        self.pool_bits = len(pool), len(pool).bit_length()
        self.budget = _DEADEND_BUDGET
        self.vars = var_table()

    def gen(self, goal: ObjType, ctx: Context, depth: int) -> Term | None:
        """Uniform choice among fitting candidates, falling back to the
        remaining ones when a dive dead-ends (within a global budget);
        ``None`` when every candidate dead-ends."""
        candidates: list = [i for i, t in enumerate(ctx) if t is goal] if goal in ctx else []
        matched, var_rooted = self.by_root.get(goal.name, self.var_rooted)[depth <= 1]
        for cand in matched:
            inst = cand.bind(goal)
            if inst is not None:
                candidates.append((cand, inst))
        candidates += var_rooted
        getrandbits = self.getrandbits
        order = []  # the whole permutation first, as random.sample draws it
        for i in range(len(candidates), 0, -1):
            k = i.bit_length()
            j = getrandbits(k)
            while j >= i:
                j = getrandbits(k)
            order.append(candidates[j])
            candidates[j] = candidates[i - 1]
        # the arguments get constants and context variables only
        leaf_level = depth <= 2
        for cand in order:
            if type(cand) is int:  # a context index
                return self.vars[cand] if 0 <= cand < VAR_TABLE_SIZE else Var(cand)
            cand, inst = cand
            if inst is None:
                inst = cand.bind(goal)
            if type(inst) is list and self.pool:  # random.choice(pool) for each None
                n, k = self.pool_bits
                fill = []
                for b in inst:
                    if b is None:
                        j = getrandbits(k)
                        while j >= n:
                            j = getrandbits(k)
                        b = self.pool[j]
                    fill.append(b)
                inst = tuple(fill)
            if type(inst) is tuple:  # else a free parameter and no pool to draw it from
                lit = None
                while cand.family and (lit is None or lit > 3):
                    lit = getrandbits(3)  # randint(0, 3): 3 bits, drawn again above 3
                args = []
                for body, binders, probe in cand.args:
                    inner = tuple([b(inst) for b in binders]) + ctx if binders else ctx
                    if leaf_level and probe is not None:
                        # Only a variable can have this goal unless a constant
                        # has its root; a type that is not live is in no context.
                        # The binders are built first, as they may hold the goal.
                        arg_goal = probe(inst)
                        if arg_goal is None or (
                            arg_goal not in inner and arg_goal.name not in self.leaf_roots
                        ):
                            break  # as generating it would, without drawing
                    else:
                        arg_goal = body(inst)
                    arg = self.gen(arg_goal, inner, depth - 1)
                    if arg is None:
                        break
                    args.append(arg)
                else:
                    return _con(cand.name, lit, inst, tuple(args))
            self.budget -= 1
            if self.budget <= 0:
                raise _Exhausted()
        return None


@paused_gc
def gen_term(
    sig: TypedSignature,
    ctx: Context,
    goal: ObjType | None,
    cfg: GenConfig,
    rng: random.Random | None = None,
    pool: list[ObjType] | None = None,
) -> Term:
    """One well-typed term, of type ``goal`` when given.

    Deterministic in (signature, context, goal, config, generator state);
    raises GenFailure after the configured number of dead ends.

    The draws from ``rng`` and their order are part of the reproducibility
    contract: at each node the generator draws a permutation of its
    candidates exactly as ``random.sample`` does, then, for the candidate
    it expands, each free type parameter as ``random.choice`` of the pool
    and a family literal as ``random.randint(0, 3)``.  It makes these draws
    itself, with the ``rng.getrandbits`` calls that ``Random._randbelow``
    makes (``k = n.bit_length()`` bits, drawn again while not below ``n``),
    so ``rng`` must draw its indexes that way, as ``random.Random`` does.
    A node's candidates, draws and argument goals are handled in one frame;
    result matchers, argument and binder types and the candidates of each
    goal root are compiled once per signature.  A dead end is found without
    a draw when the pool is empty and a candidate has a free type parameter,
    and without building the type when an argument at the last level of
    depth has a goal that no constant can have and no context holds.

    The default pool is the signature's pool plus every distinct subtree
    of the context and goal types, collected without recursion.
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    if pool is None:
        pool = sorted(
            set(_sig_data(sig).pool)
            | {s for t in ctx for s in subterms(t)}
            | ({s for s in subterms(goal)} if goal is not None else set()),
            key=str,
        )
    if not pool and goal is None:
        raise GenFailure("signature has no ground types")
    g = _Generator(sig, rng, pool)
    ctx = tuple(ctx)
    for _ in range(cfg.retries + 1):
        target = goal if goal is not None else rng.choice(pool)
        g.budget = _DEADEND_BUDGET
        try:
            term = g.gen(target, ctx, cfg.max_depth)
        except _Exhausted:
            if goal is not None:
                break  # a fixed goal will not get easier; fall back now
            continue
        if term is not None:
            return term
    if goal is not None:
        hits = [i for i, t in enumerate(ctx) if t is goal]
        if hits:
            # the goal is trivially inhabited by a context variable, so
            # failing would be wrong; search just ran out of budget
            return Var(rng.choice(hits))
    raise GenFailure(f"no term of type {goal} found in context {list(map(str, ctx))}")


def gen_context(
    sig: TypedSignature,
    cfg: GenConfig,
    rng: random.Random,
    max_len: int = 2,
) -> Context:
    pool = _sig_data(sig).pool
    if not pool:
        return ()
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def gen_substitution(
    sig: TypedSignature,
    domain: Context,
    cfg: GenConfig,
    rng: random.Random,
    extension: int = 2,
) -> Substitution:
    """A substitution out of ``domain`` into a fresh codomain.

    The codomain always extends the domain, so an image can in the worst
    case fall back to a variable; this keeps the skip rate low even for
    sparse languages such as the logics.
    """
    codomain = gen_context(sig, cfg, rng, max_len=extension) + tuple(domain)
    pool = _sig_data(sig).pool
    images = tuple(
        gen_term(sig, codomain, ty, cfg, rng=rng, pool=pool) for ty in domain
    )
    return Substitution(tuple(domain), codomain, images)


def _case_term(
    sig: TypedSignature, cfg: GenConfig, rng: random.Random
) -> tuple[Context, Term]:
    """A random context and term for one law-check case.

    The picked goal type is planted into the context so that a variable of
    the goal type always exists; generation then never starves even for
    sparse languages (random logic goals are mostly unprovable otherwise),
    while uniform candidate choice keeps the terms themselves varied.
    """
    pool = _sig_data(sig).pool
    if not pool:
        raise GenFailure("signature has no ground types")
    goal = rng.choice(pool)
    base = gen_context(sig, cfg, rng)
    pos = rng.randint(0, len(base))
    ctx = base[:pos] + (goal,) + base[pos:]
    return ctx, gen_term(sig, ctx, goal, cfg, rng=rng, pool=pool)


# ---------------------------------------------------------------------------
# Reports


class LawReport(Frozen):
    __slots__ = __match_args__ = ("law", "cases_run", "cases_skipped", "counterexample", "seed")
    law: str
    cases_run: int
    cases_skipped: int
    counterexample: str | None
    seed: int

    @property
    def passed(self) -> bool:
        total = self.cases_run + self.cases_skipped
        return self.counterexample is None and self.cases_skipped * 2 <= total

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        head = (
            f"{self.law}: {status} ({self.cases_run} cases, "
            f"{self.cases_skipped} skipped, seed {self.seed})"
        )
        if self.counterexample is not None:
            head += f"\n  counterexample: {self.counterexample}"
        elif self.cases_skipped * 2 > self.cases_run + self.cases_skipped:
            head += "\n  too many skipped cases"
        return head


def _show_case(ctx: Context, term: Term) -> str:
    types = " ".join(str(t) for t in ctx)
    return f"context {types} ; {term}"


def _show_sub(sub: Substitution) -> str:
    cod = " ".join(str(t) for t in sub.codomain)
    images = ", ".join(f"#{i} -> {img}" for i, img in enumerate(sub.images))
    return f"into [{cod}]: {images}"


# ---------------------------------------------------------------------------
# Law checks


# What a checked operation may raise on a case: the case is then a
# counterexample to the law being checked, not a crash of the check.
_CHECKED_ERRORS = (TypeCheckError, ValueError)


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _run_cases(
    law: str,
    cfg: GenConfig,
    draw: Callable[[random.Random], tuple],
    check: Callable[..., str | None],
) -> LawReport:
    """Run ``cfg.cases`` cases of ``law``: seed case ``i``'s generator from
    ``cfg.seed`` and ``i``, ``draw`` the case from it (a ``GenFailure``
    skips the case), and stop at the first case for which
    ``check(i, *case)`` returns a counterexample.  Collection is paused per
    case, and runs when due as the next case's generator is allocated."""
    run = skipped = 0
    counterexample: str | None = None
    for case in range(cfg.cases):
        rng = random.Random(_mix(cfg.seed, case))
        drawn, counterexample = _run_case(case, rng, draw, check)
        if not drawn:
            skipped += 1
            continue
        run += 1
        if counterexample is not None:
            break
    return LawReport(law, run, skipped, counterexample, cfg.seed)


@paused_gc
def _run_case(
    case: int, rng: random.Random, draw: Callable, check: Callable
) -> tuple[bool, str | None]:
    """Whether case ``case`` was drawn from ``rng``, and its counterexample."""
    try:
        drawn = draw(rng)
    except GenFailure:
        return False, None
    return True, check(case, *drawn)


def check_monad_laws(
    sig: TypedSignature, cfg: GenConfig, substitute_fn=substitute
) -> LawReport:
    """Left unit, right unit, associativity, and type preservation of
    substitution, on generated (term, substitution, substitution) cases.

    ``substitute_fn`` exists so tests can inject a broken substitution and
    watch the check fail.
    """

    def draw(rng: random.Random) -> tuple:
        ctx, term = _case_term(sig, cfg, rng)
        sub = gen_substitution(sig, ctx, cfg, rng)
        return ctx, term, sub, gen_substitution(sig, sub.codomain, cfg, rng, extension=1)

    def check(case: int, ctx: Context, term: Term, sub: Substitution, sub2: Substitution):
        def fail(law: str, detail: str = "") -> str:
            return (
                f"case {case} ({law}): {_show_case(ctx, term)}"
                f" | sigma {_show_sub(sub)} | rho {_show_sub(sub2)}"
                + (f" | {detail}" if detail else "")
            )

        law = "left unit"
        try:
            for i in range(len(ctx)):
                if substitute_fn(sig, Var(i), sub) != sub.images[i]:
                    return fail(law, f"at #{i}")
            law = "right unit"
            if substitute_fn(sig, term, identity_substitution(ctx)) != term:
                return fail(law)
            law = "associativity"
            lhs = substitute_fn(sig, substitute_fn(sig, term, sub), sub2)
            composed = Substitution(
                ctx,
                sub2.codomain,
                tuple(substitute_fn(sig, img, sub2) for img in sub.images),
            )
            if lhs != substitute_fn(sig, term, composed):
                return fail(law)
            law = "type preservation"
            if infer(sig, sub.codomain, substitute_fn(sig, term, sub)) != infer(
                sig, ctx, term
            ):
                return fail(law)
        except _CHECKED_ERRORS as exc:
            return fail(law, _raised(exc))
        return None

    return _run_cases(f"monad-laws({sig.name})", cfg, draw, check)


def check_translation_laws(x: Representation, cfg: GenConfig) -> LawReport:
    """Substitution commutation, type preservation, and the variable clause
    for a translation, on generated source terms and substitutions."""
    src = x.source

    def draw(rng: random.Random) -> tuple:
        ctx, term = _case_term(src, cfg, rng)
        return ctx, term, gen_substitution(src, ctx, cfg, rng)

    def check(case: int, ctx: Context, term: Term, sub: Substitution):
        def fail(law: str, detail: str = "") -> str:
            return (
                f"case {case} ({law}): {_show_case(ctx, term)}"
                f" | sigma {_show_sub(sub)}" + (f" | {detail}" if detail else "")
            )

        law = "variable clause"
        try:
            for i in range(len(ctx)):
                if translate_term(x, ctx, Var(i)) != Var(i):
                    return fail(law, f"at #{i}")
            law = "type preservation"
            translated = translate_term(x, ctx, term)
            expected_ty = translate_type(x.type_map, infer(src, ctx, term))
            actual_ty = infer(x.target, retype_context(x.type_map, ctx), translated)
            if actual_ty != expected_ty:
                return fail(law, f"expected {expected_ty}, found {actual_ty}")
            law = "substitution commutation"
            lhs = translate_term(x, sub.codomain, substitute(src, term, sub))
            sub_t = Substitution(
                retype_context(x.type_map, ctx),
                retype_context(x.type_map, sub.codomain),
                tuple(translate_term(x, sub.codomain, img) for img in sub.images),
            )
            if lhs != substitute(x.target, translated, sub_t):
                return fail(law)
        except _CHECKED_ERRORS as exc:
            return fail(law, _raised(exc))
        return None

    return _run_cases(f"translation-laws({x.name})", cfg, draw, check)


def check_agreement(x: Representation, oracle, cfg: GenConfig) -> LawReport:
    """The engine against an independently written translator."""

    def check(case: int, ctx: Context, term: Term):
        try:
            out = translate_term(x, ctx, term)
        except _CHECKED_ERRORS as exc:
            return f"case {case}: {_show_case(ctx, term)} | {_raised(exc)}"
        if out != oracle(ctx, term):
            return f"case {case}: {_show_case(ctx, term)}"
        return None

    return _run_cases(
        f"agreement({x.name})", cfg, lambda rng: _case_term(x.source, cfg, rng), check
    )
