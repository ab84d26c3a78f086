import random
import sys
from functools import partial
from typing import Callable

import pytest

from initsyn.languages import get_language, get_translation
from initsyn.laws import (
    GenConfig,
    GenFailure,
    check_agreement,
    check_monad_laws,
    check_translation_laws,
    gen_context,
    gen_substitution,
    gen_term,
)
from initsyn.objtypes import ObjType, eval_type_expr, ground_types, subterms
from initsyn.signatures import TVar
from initsyn.terms import Con, Term, TypeCheckError, Var, _map, check, infer, substitute, weaken
from initsyn.translate import (
    OpaqueRepresentation,
    identity_translation,
    instantiate_template,
    translate_term,
)

STAR = ObjType("*")


def test_genconfig_invariants():
    with pytest.raises(ValueError):
        GenConfig(seed=1, cases=0)
    with pytest.raises(ValueError):
        GenConfig(seed=1, max_depth=0)


def test_generated_terms_typecheck():
    ulc = get_language("ULC")
    cfg = GenConfig(seed=1, cases=1)
    rng = random.Random(1)
    for _ in range(100):
        term = gen_term(ulc, (STAR,), None, cfg, rng=rng)
        infer(ulc, (STAR,), term)


def test_fixed_seed_reproduces_terms():
    pcf = get_language("PCF")
    cfg = GenConfig(seed=42, cases=1)
    first = gen_term(pcf, (), None, cfg)
    second = gen_term(pcf, (), None, cfg)
    assert first == second


def test_goal_directed_generation():
    pcf = get_language("PCF")
    cfg = GenConfig(seed=2, cases=1)
    nat = ObjType("Nat")
    term = gen_term(pcf, (), nat, cfg)
    assert infer(pcf, (), term) == nat


def test_closed_absurdity_is_a_generation_failure():
    cpc = get_language("CPC")
    cfg = GenConfig(seed=3, cases=1, max_depth=3, retries=2)
    with pytest.raises(GenFailure):
        gen_term(cpc, (), ObjType("bot"), cfg)


def test_substitution_generation_is_welltyped():
    pcf = get_language("PCF")
    cfg = GenConfig(seed=4, cases=1)
    rng = random.Random(4)
    for _ in range(50):
        ctx = gen_context(pcf, cfg, rng)
        sub = gen_substitution(pcf, ctx, cfg, rng)
        sub.validate(pcf)


def test_monad_laws_pass_on_builtins_smoke():
    for name in ("ULC", "PCF", "IPC"):
        report = check_monad_laws(get_language(name), GenConfig(seed=1, cases=300))
        assert report.passed, str(report)
        assert report.cases_skipped == 0


def _broken_substitute(sig, term: Term, sub) -> Term:
    """Forgets to shift images when passing under a binder."""

    def go(t: Term, images) -> Term:
        if isinstance(t, Var):
            return images[t.index]
        ar = sig.arity(t.name)
        new_args = tuple(
            go(
                a,
                tuple(Var(i) for i in range(len(spec.binders)))
                + tuple(images),  # missing weaken on the images
            )
            for spec, a in zip(ar.args, t.args)
        )
        return Con(t.name, t.lit, t.inst, new_args)

    return go(term, sub.images)


def test_broken_substitute_is_caught():
    report = check_monad_laws(
        get_language("ULC"),
        GenConfig(seed=1, cases=2000),
        substitute_fn=_broken_substitute,
    )
    assert report.counterexample is not None


def _index_equals_depth_substitute(sig, term: Term, sub) -> Term:
    """Under a binder, takes the first variable out past the binders
    (index equal to the binder depth) for a bound one and leaves it as it
    is, so the result can be ill typed instead of merely different."""
    images = sub.images

    def on_var(v: Var, depth: int) -> Term:
        if v.index < depth or 0 < depth == v.index:
            return v
        if v.index - depth >= len(images):
            raise TypeCheckError(f"unbound index {v.index} under substitution")
        return weaken(sig, images[v.index - depth], 0, depth)

    return _map(sig, term, on_var)


@pytest.mark.parametrize("name", ["PCF", "IPC"])
def test_an_operation_that_raises_gives_a_counterexample(name):
    """The mutant makes ``infer`` reject a substituted term inside the
    type-preservation clause; the report names the case, the law and the
    exception instead of letting it out."""
    report = check_monad_laws(
        get_language(name),
        GenConfig(seed=1, cases=2000),
        substitute_fn=_index_equals_depth_substitute,
    )
    assert not report.passed
    head, _, detail = report.counterexample.rpartition(" | ")
    assert head.startswith(f"case {report.cases_run - 1} (type preservation): context ")
    assert detail.startswith("raised TypeCheckError: at argument path ")


def test_a_raising_translation_gives_a_counterexample():
    """A translation whose operation raises on a drawn term fails its
    translation-law and agreement checks with the exception named."""
    x = get_translation("pcf2ulc-turing")

    def op(ar):
        def run(inst, ctx, args, lit):
            if ar.name == "Succ":
                raise ValueError("no Succ today")
            return instantiate_template(x, ar, inst, args, lit)

        return run

    o = OpaqueRepresentation(
        "raising", x.source, x.target, x.type_map, {ar.name: op(ar) for ar in x.source.terms}
    )
    cfg = GenConfig(seed=2, cases=300)
    laws = check_translation_laws(o, cfg)
    agreement = check_agreement(o, partial(translate_term, x), cfg)
    for report in (laws, agreement):
        assert not report.passed
        assert report.counterexample.endswith(" | raised ValueError: no Succ today")
    law = laws.counterexample.split(": ", 1)[0].split(" (", 1)[1]
    assert law in ("type preservation)", "substitution commutation)")


def test_counterexample_replays():
    ulc = get_language("ULC")
    cfg = GenConfig(seed=1, cases=2000)
    first = check_monad_laws(ulc, cfg, substitute_fn=_broken_substitute)
    second = check_monad_laws(ulc, cfg, substitute_fn=_broken_substitute)
    assert first == second
    assert first.counterexample is not None


def test_reports_are_deterministic():
    pcf = get_language("PCF")
    cfg = GenConfig(seed=77, cases=200)
    assert check_monad_laws(pcf, cfg) == check_monad_laws(pcf, cfg)
    x = get_translation("pcf2ulc-turing")
    assert check_translation_laws(x, cfg) == check_translation_laws(x, cfg)


def test_translation_laws_smoke():
    for name in ("pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen"):
        report = check_translation_laws(
            get_translation(name), GenConfig(seed=1, cases=200)
        )
        assert report.passed, str(report)


def test_identity_translation_lawful():
    ulc = get_language("ULC")
    ident = identity_translation(ulc)
    report = check_translation_laws(ident, GenConfig(seed=5, cases=200))
    assert report.passed, str(report)


def test_agreement_reflexivity_control():
    x = get_translation("pcf2ulc-turing")
    oracle = lambda ctx, term: translate_term(x, ctx, term)
    report = check_agreement(x, oracle, GenConfig(seed=6, cases=200))
    assert report.passed and report.counterexample is None


def test_agreement_detects_divergence():
    x = get_translation("pcf2ulc-turing")
    y = get_translation("pcf2ulc-curry")
    oracle = lambda ctx, term: translate_term(y, ctx, term)
    report = check_agreement(x, oracle, GenConfig(seed=6, cases=2000))
    assert report.counterexample is not None  # rec terms eventually differ


def test_skip_gate():
    from initsyn.laws import LawReport

    assert not LawReport("x", 4, 6, None, 1).passed
    assert LawReport("x", 6, 4, None, 1).passed
    assert not LawReport("x", 10, 0, "boom", 1).passed


def test_generation_tables_do_not_keep_a_signature_alive():
    import gc
    import weakref

    from initsyn.laws import _case_term, _sig_cache
    from initsyn.surface import parse_signature, print_signature

    sig = parse_signature(print_signature(get_language("PCF")))
    _case_term(sig, GenConfig(seed=5, cases=1), random.Random(5))
    key = id(sig)
    assert key in _sig_cache
    alive = weakref.ref(sig)
    del sig
    gc.collect()
    assert alive() is None
    assert key not in _sig_cache


def _reference_match(expr, goal, binding) -> bool:
    """First-order matching as the generator did it node by node."""
    if isinstance(expr, TVar):
        k = expr.index - 1
        if binding[k] is None:
            binding[k] = goal
            return True
        return binding[k] is goal
    if expr.name != goal.name or len(expr.args) != len(goal.args):
        return False
    return all(_reference_match(e, g, binding) for e, g in zip(expr.args, goal.args))


MATCH_SHAPES = """language M
atoms { p q }
types { f : 2  g : 1 }
terms {
  swap [2] : () -> f($2,$1)
  diag [1] : () -> f($1,$1)
  deep [3] : () -> f(g($1),f($3,p))
  extra [3] : () -> g($2)
  closed [0] : () -> f(p,g(q))
  any [2] : () -> $2
}
"""


def test_compiled_matchers_agree_with_matching():
    """Each arity's compiled matcher fixes exactly the parameters, and
    rejects exactly the goals, that matching its result does; it leaves a
    parameter free, in a list, only where matching does."""
    from initsyn.laws import _compile_arity
    from initsyn.objtypes import ground_types
    from initsyn.surface import parse_signature

    sigs = [get_language(n) for n in ("ULC", "PCF", "STLC", "IPC", "CPC")]
    sigs.append(parse_signature(MATCH_SHAPES))
    for sig in sigs:
        goals = ground_types(sig.all_types, 3)
        for ar in sig.terms:
            cand = _compile_arity(ar, None)
            for goal in goals:
                binding = [None] * ar.degree
                expected = binding if _reference_match(ar.result, goal, binding) else None
                got = cand.bind(goal)
                assert (None if got is None else list(got)) == expected, (ar.name, str(goal))
                if got is not None:
                    assert isinstance(got, tuple) == (None not in expected)


# _below, _choice and _order write out, as plain functions, the draws that
# _Generator.gen makes inline; the test below holds them to the library.  The
# generator's own draws are held to the library by _ReferenceGenerator and
# tests/data/gen_stream.txt.
def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random._randbelow(n)``, for ``n > 0``, by the same ``getrandbits``
    calls: ``random.randint(0, n - 1)`` and ``random.choice`` of ``n``
    items draw their index with it."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _choice(getrandbits: Callable[[int], int], seq: list):
    """``random.choice(seq)``, by the same draws."""
    if not seq:
        raise IndexError("Cannot choose from an empty sequence")
    return seq[_below(getrandbits, len(seq))]


def _order(getrandbits: Callable[[int], int], n: int) -> list[int]:
    """The permutation ``random.sample(range(n), n)`` returns, by the same
    draws; each index is drawn as ``_below`` draws it.  ``_Generator.gen``
    draws its candidate order by this loop."""
    rest = list(range(n))
    order = []
    for i in range(n, 0, -1):
        k = i.bit_length()
        j = getrandbits(k)
        while j >= i:
            j = getrandbits(k)
        order.append(rest[j])
        rest[j] = rest[i - 1]
    return order


def test_draw_helpers_draw_as_the_library():
    """The generator's draws are ``getrandbits`` calls; they must return
    what ``random.sample``, ``random.choice`` and ``random.randint`` return
    and leave the generator state where those leave it."""
    for seed in (0, 1, 7, 2**40 + 3):
        ours, lib = random.Random(seed), random.Random(seed)
        for n in range(1, 301):
            assert _order(ours.getrandbits, n) == lib.sample(range(n), n), (seed, n)
            pool = list(range(n))
            assert _choice(ours.getrandbits, pool) == lib.choice(pool), (seed, n)
            assert _below(ours.getrandbits, 4) == lib.randint(0, 3), (seed, n)
        assert ours.getstate() == lib.getstate()
    with pytest.raises(IndexError):
        _choice(random.Random(1).getrandbits, [])


class _RefExhausted(Exception):
    pass


class _ReferenceGenerator:
    """The generator written node by node: each node matches every arity
    of the goal's root, evaluates its argument and binder types and draws
    with the library's ``sample``, ``choice`` and ``randint``."""

    def __init__(self, sig, rng, pool):
        self.sig, self.rng, self.pool, self.budget = sig, rng, pool, 40

    def gen(self, goal, ctx, depth):
        candidates = [i for i, t in enumerate(ctx) if t is goal]
        terms = self.sig.terms
        arities = [ar for ar in terms if not isinstance(ar.result, TVar) and ar.result.name == goal.name]
        arities += [ar for ar in terms if isinstance(ar.result, TVar)]
        for ar in arities:
            if depth <= 1 and ar.args:
                continue
            binding = [None] * ar.degree
            if _reference_match(ar.result, goal, binding):
                candidates.append((ar, binding))
        if not candidates:
            return None
        for which in self.rng.sample(range(len(candidates)), len(candidates)):
            pick = candidates[which]
            if isinstance(pick, int):
                return Var(pick)
            term = self._expand(*pick, ctx, depth)
            if term is not None:
                return term
            self.budget -= 1
            if self.budget <= 0:
                raise _RefExhausted()
        return None

    def _expand(self, ar, binding, ctx, depth):
        inst = tuple(b if b is not None else self.rng.choice(self.pool) for b in binding)
        lit = self.rng.randint(0, 3) if ar.family_index else None
        args = []
        for spec in ar.args:
            inner = tuple(eval_type_expr(inst, b) for b in spec.binders) + ctx
            arg = self.gen(eval_type_expr(inst, spec.body), inner, depth - 1)
            if arg is None:
                return None
            args.append(arg)
        return Con(ar.name, lit, inst, tuple(args))


def _reference_subtrees(t):
    return [t] + [s for a in t.args for s in _reference_subtrees(a)]


def _reference_gen_term(sig, ctx, goal, cfg, rng):
    """``gen_term`` with its default pool, on ``_ReferenceGenerator``."""
    pool = sorted(
        set(ground_types(sig.all_types, 2))
        | {s for t in ctx for s in _reference_subtrees(t)}
        | (set(_reference_subtrees(goal)) if goal is not None else set()),
        key=str,
    )
    if not pool and goal is None:
        raise GenFailure("signature has no ground types")
    g = _ReferenceGenerator(sig, rng, pool)
    for _ in range(cfg.retries + 1):
        target = goal if goal is not None else rng.choice(pool)
        g.budget = 40
        try:
            term = g.gen(target, ctx, cfg.max_depth)
        except _RefExhausted:
            if goal is not None:
                break
            continue
        if term is not None:
            return term
    if goal is not None:
        hits = [i for i, t in enumerate(ctx) if t is goal]
        if hits:
            return Var(rng.choice(hits))
    raise GenFailure(f"no term of type {goal} found in context {list(map(str, ctx))}")


# constants with compound results, closed or not: their roots are leaf
# roots, so the generator never probes an argument goal of those roots
CONST_RESULT = """language KConst
atoms { p q }
types { impl : 2  and : 2 }
terms {
  k [0] : () -> impl(p,p)
  dup [1] : () -> and($1,p)
  lam [2] : ([$1] $2) -> impl($1,$2)
  ap [2] : ([] impl($1,$2), [] $1) -> $2
  fst [2] : ([] and($1,$2)) -> $1
  pair [2] : ([] $1, [] $2) -> and($1,$2)
}
"""

# a constant of every type: no goal is ever dead for want of a constant
ANY_CONSTANT = """language KAny
atoms { p q }
types { impl : 2  and : 2 }
terms {
  any [1] : () -> $1
  ap [2] : ([] impl($1,$2), [] $1) -> $2
  fst [2] : ([] and($1,$2)) -> $1
}
"""

# ``fix``'s argument goal equals its binder type, which only the binder may
# hold alive; ``dne`` probes a nested goal and ``lit`` draws a literal
BINDER_GOAL = """language Fix
atoms { p q }
types { impl : 2  box : 1  bot : 0 }
terms {
  unit [0] : () -> p
  family lit [0] : () -> q
  fix [1] : ([impl($1,$1)] impl($1,$1)) -> box($1)
  unbox [1] : ([] box($1)) -> $1
  lam [2] : ([$1] $2) -> impl($1,$2)
  ap [2] : ([] impl($1,$2), [] $1) -> $2
  dne [1] : ([] impl(impl($1,bot),bot)) -> $1
}
"""


def _compound(sig, rng, parts):
    """A type of a random constructor of ``sig`` over ``parts``, or one of
    ``parts`` when every constructor is nullary."""
    shapes = [(n, k) for n, k in sig.all_types.constructors.items() if k]
    if not shapes:
        return rng.choice(parts)
    name, count = rng.choice(shapes)
    return ObjType(name, tuple(rng.choice(parts) for _ in range(count)))


def test_generator_agrees_with_the_reference_generator():
    """Terms, ``GenFailure`` messages and the generator state after each
    ``gen_term`` call equal those of a generator that builds every goal
    type and draws through the library, on contexts that hold compound
    types over the goal and goals of height up to four."""
    from initsyn.surface import parse_signature

    sigs = [get_language(n) for n in ("ULC", "PCF", "STLC", "IPC", "CPC")]
    sigs += [parse_signature(t) for t in (CONST_RESULT, ANY_CONSTANT, BINDER_GOAL)]
    calls = 0
    for s, sig in enumerate(sigs):
        pool = ground_types(sig.all_types, 2)
        for case in range(160):
            setup = random.Random(1000 * s + case)
            goal = setup.choice(pool)
            if setup.random() < 0.5:
                goal = _compound(sig, setup, [goal] + pool)
            ctx = [setup.choice(pool) for _ in range(setup.randint(0, 2))]
            for _ in range(setup.randint(0, 3)):
                ctx.insert(setup.randint(0, len(ctx)), _compound(sig, setup, [goal] + pool))
            if setup.random() < 0.3:
                ctx.append(goal)
            cfg = GenConfig(
                seed=case, cases=1, max_depth=setup.randint(1, 6), retries=setup.randint(0, 3)
            )
            for target in (goal, None):
                ours, ref = random.Random(case), random.Random(case)
                outcomes = []
                for fn, rng in ((gen_term, ours), (_reference_gen_term, ref)):
                    try:
                        outcomes.append(fn(sig, tuple(ctx), target, cfg, rng=rng))
                    except GenFailure as e:
                        outcomes.append(("failure", str(e)))
                assert outcomes[0] == outcomes[1], (sig.name, case, str(target))
                assert ours.getstate() == ref.getstate(), (sig.name, case, str(target))
                calls += 1
    assert calls >= 2000


def test_gen_term_on_deep_types_at_the_default_recursion_limit():
    """The default pool collects the subtrees of the context and goal
    without recursion, each distinct one once."""
    ipc = get_language("IPC")
    p, q = ObjType("p"), ObjType("q")
    t = p
    for _ in range(10_000):
        t = ObjType("impl", (q, t))
    shared = ObjType("and", (t, t))
    assert len(subterms(shared)) == 1 + 10_000 + 2
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        term = gen_term(ipc, (t,), t, GenConfig(seed=1, cases=1))
        assert infer(ipc, (t,), term) is t
    finally:
        sys.setrecursionlimit(old_limit)


def test_generator_agrees_with_the_reference_generator_on_wide_contexts():
    """As above, on contexts holding the goal type 100 to 300 times, so a
    node draws a permutation of well over 64 candidates: IPC, whose pool of
    more than 64 types makes parameter draws reject, PCF and ``BINDER_GOAL``,
    whose family arities draw literals."""
    from initsyn.surface import parse_signature

    sigs = [get_language(n) for n in ("IPC", "PCF")] + [parse_signature(BINDER_GOAL)]
    for s, sig in enumerate(sigs):
        pool = ground_types(sig.all_types, 2)
        for case in range(40):
            setup = random.Random(5000 + 100 * s + case)
            goal = setup.choice(pool)
            if setup.random() < 0.5:
                goal = _compound(sig, setup, [goal] + pool)
            ctx = [goal] * setup.randint(100, 300)
            for _ in range(setup.randint(0, 40)):
                other = _compound(sig, setup, [goal] + pool)
                ctx.insert(setup.randint(0, len(ctx)), setup.choice([other] + pool))
            cfg = GenConfig(
                seed=case, cases=1, max_depth=setup.randint(1, 6), retries=setup.randint(0, 3)
            )
            # a type over the goal, so the search reaches the goal below the root
            over = _compound(sig, setup, [goal])
            for target in (goal, over, None):
                ours, ref = random.Random(case), random.Random(case)
                outcomes = []
                for fn, rng in ((gen_term, ours), (_reference_gen_term, ref)):
                    try:
                        outcomes.append(fn(sig, tuple(ctx), target, cfg, rng=rng))
                    except GenFailure as e:
                        outcomes.append(("failure", str(e)))
                assert outcomes[0] == outcomes[1], (sig.name, case, str(target))
                assert ours.getstate() == ref.getstate(), (sig.name, case, str(target))


def test_gen_term_with_an_empty_pool_gives_a_term_or_a_failure():
    """With ``pool=[]``, a candidate with a free type parameter is a dead
    end: ``gen_term`` returns a well-typed term or raises ``GenFailure``,
    and never indexes the empty pool."""
    for name in ("IPC", "CPC", "STLC", "PCF"):
        sig = get_language(name)
        for goal in ground_types(sig.all_types, 1):
            for ctx in ((), (goal,)):
                for seed in range(20):
                    cfg = GenConfig(seed=seed, cases=1)
                    try:
                        term = gen_term(sig, ctx, goal, cfg, pool=[])
                    except GenFailure:
                        continue
                    assert infer(sig, ctx, term) is goal, (name, str(goal), seed)
