"""Seeded random generation of well-typed terms and executable law checks.

Generation is type-directed: at every step the generator chooses uniformly
among context variables of the goal type and arities whose declared result
matches the goal under some instantiation; type parameters not fixed by
matching are drawn from a finite pool (ground types of bounded height plus
subterms of the context and goal).  Runs are pure functions of the inputs
and the seed: each case derives its own generator state by mixing the seed
with the case index, so reports are reproducible bit for bit.

A case that fails to generate (an unreachable goal within the depth and
retry budget) counts as skipped, never as a silent pass; a report with
more than half of its cases skipped does not pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .objtypes import ObjType, eval_type_expr, ground_types, subterms, translate_type
from .signatures import TVar, TypedSignature
from .terms import (
    Con,
    Context,
    Substitution,
    Term,
    Var,
    context_extend,
    identity_substitution,
    infer,
    substitute,
)
from .translate import Representation, retype_context, translate_term

_MASK = (1 << 64) - 1


def _mix(seed: int, index: int) -> int:
    """splitmix64 finalizer; platform-independent case seeds."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True, slots=True)
class GenConfig:
    seed: int
    max_depth: int = 6
    cases: int = 1000
    retries: int = 16

    def __post_init__(self) -> None:
        if self.cases < 1:
            raise ValueError("cases must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.retries < 0:
            raise ValueError("retries must not be negative")


class GenFailure(Exception):
    """The goal was not reached within the depth and retry budget."""


class _DeadEnd(Exception):
    pass


class _Exhausted(Exception):
    pass


_DEADEND_BUDGET = 40


_sig_cache: dict[int, tuple] = {}


def _sig_data(sig: TypedSignature):
    """Per-signature generation tables: the ground-type pool (closed under
    subterms) and arities indexed by the root of their result type."""
    data = _sig_cache.get(id(sig))
    if data is not None and data[0] is sig:
        return data
    pool = ground_types(sig.all_types, 2)
    by_root: dict[str, tuple] = {}
    var_rooted = tuple(ar for ar in sig.terms if isinstance(ar.result, TVar))
    for ar in sig.terms:
        if not isinstance(ar.result, TVar):
            by_root[ar.result.name] = by_root.get(ar.result.name, ()) + (ar,)
    data = (sig, pool, by_root, var_rooted)
    _sig_cache[id(sig)] = data
    return data


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
    def __init__(self, sig: TypedSignature, rng: random.Random, pool: list[ObjType]):
        self.sig = sig
        self.rng = rng
        self.pool = pool
        self.budget = _DEADEND_BUDGET
        _, _, self.by_root, self.var_rooted = _sig_data(sig)

    def gen(self, goal: ObjType, ctx: Context, depth: int) -> Term:
        """Uniform choice among fitting candidates, falling back to the
        remaining ones when a dive dead-ends (within a global budget)."""
        candidates: list = [i for i, t in enumerate(ctx) if t is goal]
        leaves_only = depth <= 1
        for ar in self.by_root.get(goal.name, ()) + self.var_rooted:
            if leaves_only and ar.args:
                continue
            binding = [None] * ar.degree
            if _match(ar.result, goal, binding):
                candidates.append((ar, binding))
        if not candidates:
            raise _DeadEnd()
        order = self.rng.sample(range(len(candidates)), len(candidates))
        for which in order:
            pick = candidates[which]
            try:
                return self._expand(pick, ctx, depth)
            except _DeadEnd:
                self.budget -= 1
                if self.budget <= 0:
                    raise _Exhausted()
        raise _DeadEnd()

    def _expand(self, pick, ctx: Context, depth: int) -> Term:
        if isinstance(pick, int):
            return Var(pick)
        ar, binding = pick
        inst = tuple(
            b if b is not None else self.rng.choice(self.pool) for b in binding
        )
        lit = self.rng.randint(0, 3) if ar.family_index else None
        args = tuple(
            self.gen(
                eval_type_expr(inst, spec.body),
                context_extend(ctx, inst, spec.binders),
                depth - 1,
            )
            for spec in ar.args
        )
        return Con(ar.name, lit, inst, args)


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
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    if pool is None:
        pool = sorted(
            set(_sig_data(sig)[1])
            | {s for t in ctx for s in subterms(t)}
            | ({s for s in subterms(goal)} if goal is not None else set()),
            key=str,
        )
    if not pool and goal is None:
        raise GenFailure("signature has no ground types")
    g = _Generator(sig, rng, pool)
    for _ in range(cfg.retries + 1):
        target = goal if goal is not None else rng.choice(pool)
        g.budget = _DEADEND_BUDGET
        try:
            return g.gen(target, ctx, cfg.max_depth)
        except _DeadEnd:
            continue
        except _Exhausted:
            if goal is not None:
                break  # a fixed goal will not get easier; fall back now
            continue
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
    pool = _sig_data(sig)[1]
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
    pool = _sig_data(sig)[1]
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
    pool = _sig_data(sig)[1]
    if not pool:
        raise GenFailure("signature has no ground types")
    goal = rng.choice(pool)
    base = gen_context(sig, cfg, rng)
    pos = rng.randint(0, len(base))
    ctx = base[:pos] + (goal,) + base[pos:]
    return ctx, gen_term(sig, ctx, goal, cfg, rng=rng, pool=pool)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True, slots=True)
class LawReport:
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


def _show_case(sig: TypedSignature, ctx: Context, term: Term, extra: str = "") -> str:
    types = " ".join(str(t) for t in ctx)
    out = f"context {types} ; {term}"
    return out + (f" | {extra}" if extra else "")


def _show_sub(sub: Substitution) -> str:
    cod = " ".join(str(t) for t in sub.codomain)
    images = ", ".join(f"#{i} -> {img}" for i, img in enumerate(sub.images))
    return f"into [{cod}]: {images}"


# ---------------------------------------------------------------------------
# Law checks


def check_monad_laws(
    sig: TypedSignature, cfg: GenConfig, substitute_fn=substitute
) -> LawReport:
    """Left unit, right unit, associativity, and type preservation of
    substitution, on generated (term, substitution, substitution) cases.

    ``substitute_fn`` exists so tests can inject a broken substitution and
    watch the check fail.
    """
    run = skipped = 0
    counterexample: str | None = None
    for case in range(cfg.cases):
        rng = random.Random(_mix(cfg.seed, case))
        try:
            ctx, term = _case_term(sig, cfg, rng)
            sub = gen_substitution(sig, ctx, cfg, rng)
            sub2 = gen_substitution(sig, sub.codomain, cfg, rng, extension=1)
        except GenFailure:
            skipped += 1
            continue
        run += 1

        def fail(law: str, detail: str = "") -> str:
            return (
                f"case {case} ({law}): {_show_case(sig, ctx, term)}"
                f" | sigma {_show_sub(sub)} | rho {_show_sub(sub2)}"
                + (f" | {detail}" if detail else "")
            )

        for i in range(len(ctx)):
            if substitute_fn(sig, Var(i), sub) != sub.images[i]:
                counterexample = fail("left unit", f"at #{i}")
                break
        if counterexample:
            break
        if substitute_fn(sig, term, identity_substitution(ctx)) != term:
            counterexample = fail("right unit")
            break
        lhs = substitute_fn(sig, substitute_fn(sig, term, sub), sub2)
        composed = Substitution(
            ctx,
            sub2.codomain,
            tuple(substitute_fn(sig, img, sub2) for img in sub.images),
        )
        if lhs != substitute_fn(sig, term, composed):
            counterexample = fail("associativity")
            break
        if infer(sig, sub.codomain, substitute_fn(sig, term, sub)) != infer(
            sig, ctx, term
        ):
            counterexample = fail("type preservation")
            break
    return LawReport(f"monad-laws({sig.name})", run, skipped, counterexample, cfg.seed)


def check_translation_laws(x: Representation, cfg: GenConfig) -> LawReport:
    """Substitution commutation, type preservation, and the variable clause
    for a translation, on generated source terms and substitutions."""
    src = x.source
    run = skipped = 0
    counterexample: str | None = None
    for case in range(cfg.cases):
        rng = random.Random(_mix(cfg.seed, case))
        try:
            ctx, term = _case_term(src, cfg, rng)
            sub = gen_substitution(src, ctx, cfg, rng)
        except GenFailure:
            skipped += 1
            continue
        run += 1

        def fail(law: str, detail: str = "") -> str:
            return (
                f"case {case} ({law}): {_show_case(src, ctx, term)}"
                f" | sigma {_show_sub(sub)}" + (f" | {detail}" if detail else "")
            )

        for i in range(len(ctx)):
            if translate_term(x, ctx, Var(i)) != Var(i):
                counterexample = fail("variable clause", f"at #{i}")
                break
        if counterexample:
            break
        translated = translate_term(x, ctx, term)
        expected_ty = translate_type(x.type_map, infer(src, ctx, term))
        actual_ty = infer(x.target, retype_context(x.type_map, ctx), translated)
        if actual_ty != expected_ty:
            counterexample = fail(
                "type preservation", f"expected {expected_ty}, found {actual_ty}"
            )
            break
        lhs = translate_term(x, sub.codomain, substitute(src, term, sub))
        sub_t = Substitution(
            retype_context(x.type_map, ctx),
            retype_context(x.type_map, sub.codomain),
            tuple(translate_term(x, sub.codomain, img) for img in sub.images),
        )
        rhs = substitute(x.target, translated, sub_t)
        if lhs != rhs:
            counterexample = fail("substitution commutation")
            break
    return LawReport(
        f"translation-laws({x.name})", run, skipped, counterexample, cfg.seed
    )


def check_agreement(x: Representation, oracle, cfg: GenConfig) -> LawReport:
    """The engine against an independently written translator."""
    src = x.source
    run = skipped = 0
    counterexample: str | None = None
    for case in range(cfg.cases):
        rng = random.Random(_mix(cfg.seed, case))
        try:
            ctx, term = _case_term(src, cfg, rng)
        except GenFailure:
            skipped += 1
            continue
        run += 1
        if translate_term(x, ctx, term) != oracle(ctx, term):
            counterexample = f"case {case}: {_show_case(src, ctx, term)}"
            break
    return LawReport(f"agreement({x.name})", run, skipped, counterexample, cfg.seed)
