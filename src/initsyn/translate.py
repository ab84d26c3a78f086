"""Translations between languages as structural recursion over terms.

A translation of one typed signature into another consists of a type
translation (see objtypes) plus, for every source arity, a target term
template.  A template is a target term, built from the same ``Con`` and
``Var`` nodes and read and printed as one, with two extra leaf forms:
``?j`` (``TplMeta``) stands for the translated j-th argument of the source
constructor, and ``<M>`` (``TplMacro``) references a shared closed macro
term.  Instantiations inside a template hold type expressions whose
variables $1..$n denote the translated type parameters of the source
occurrence.

Three constructor names are reserved for engine forms that plain target
syntax cannot express:

* ``(__iter step base)``, legal only in templates for family-indexed
  arities, expands to step applied literal-many times to base at
  instantiation time (``(__hole)`` marks the iteration position), for a
  literal of at most ``MAX_ITER_LITERAL``.  This is how numeral families
  map to iterated codings.
* ``(__stab [ty] t)`` produces a term of type ty from ``t`` of doubly
  negated type, generating the witness by recursion on the instantiated
  type.  It is accepted only when the target declares the standard
  implication/conjunction kit and every type template of the translation
  is double-negation stable, which makes the witness exist at every
  instantiation the engine can ever perform.

Validation substitutes fresh opaque nullary type constants for the type
parameters and typechecks each template once, in the walk that compiles
it; equality of opaque types forces equality at every instantiation, so
validated templates never produce ill-typed output.  When the target
generates at most one ground type the unique type itself is substituted
instead, which makes the check exact for unityped targets.  A template
that ``validate_translation`` did not compile is checked on first use.
A translated argument is placed once: shifted past the template binders
over its placeholder as ``translate_term`` builds it, never walked again.
Under a ``__stab`` at a template's root it is placed further, at the one
place where the stability witness uses the term built from the arguments,
for every type whose witness has one.
Each closed piece that compiling builds is typed by ``infer`` once and kept
with the translation, so that ``initsyn translate``'s recheck of an output
takes its type by identity instead of walking every place it is shared.

``translate_term`` folds over the source term in one of two walks: a
``Translation``'s carries only its placements' shift and never reads the
context, and an ``OpaqueRepresentation``'s threads it down to the callbacks.
"""

from __future__ import annotations

from typing import Callable

from .objtypes import (
    Frozen,
    ObjType,
    TVar,
    TypeExpr,
    TypeTranslation,
    _translate_type,
    compile_type_expr,
    eval_type_expr,
    ground_types,
    identity_type_translation,
    is_unityped,
    translate_type,  # not called here; perfbench/tracing.py counts calls by this name
    type_expr_errors,
    type_function,
)
from .signatures import TypedSignature, TermArity, ValidationReport
from .terms import (
    Con, Context, Term, TypeCheckError, Var, _arity_types, _con, infer, paused_gc, weaken
)

ITER = "__iter"
HOLE = "__hole"
STAB = "__stab"
# ``__iter`` builds a node per step: a larger literal is refused, not run
MAX_ITER_LITERAL = 10_000


# ---------------------------------------------------------------------------
# Templates


class TplMeta(Frozen):
    """Placeholder for the translated j-th source argument (1-based)."""

    __slots__ = __match_args__ = ("index",)
    index: int

    def __str__(self) -> str:
        return f"?{self.index}"


class TplMacro(Frozen):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


Template = Var | Con | TplMeta | TplMacro


class Translation(Frozen):
    """A serializable representation of the source language in the target."""

    __match_args__ = ("name", "source", "target", "type_map", "term_map", "macros")
    __slots__ = __match_args__ + ("_compiled", "_closed")
    _defaults = {"macros": None}
    name: str
    source: TypedSignature
    target: TypedSignature
    type_map: TypeTranslation
    term_map: dict[str, Template]
    macros: dict[str, Term]
    # arity name -> (template, arity, compiled template, placements, landing, head); see
    # ``_compile``, whose result the last four are, and ``instantiate_template``
    _compiled: dict[str, tuple]
    # id(piece) -> (piece, its type): the closed pieces that compiling built, for
    # ``infer(..., closed=)``; see ``_compile``
    _closed: dict[int, tuple[Term, ObjType]]

    def __post_init__(self) -> None:
        if self.macros is None:
            object.__setattr__(self, "macros", {})
        object.__setattr__(self, "_compiled", {})
        object.__setattr__(self, "_closed", {})


class OpaqueRepresentation(Frozen):
    """Library-level representation with arbitrary per-arity callbacks.

    ``ops[name]`` receives the translated instantiation, the translated
    context at the node, the translated arguments and the family literal,
    and must return a target term; the engine typechecks every output
    against the translated result type, since nothing else constrains a
    callback.  ``translate_term`` walks it on its own (``_translate_opaque``),
    the only walk that reads the context.
    """

    __slots__ = __match_args__ = ("name", "source", "target", "type_map", "ops")
    name: str
    source: TypedSignature
    target: TypedSignature
    type_map: TypeTranslation
    ops: dict[str, Callable[[tuple[ObjType, ...], Context, tuple[Term, ...], int | None], Term]]


Representation = Translation | OpaqueRepresentation


# ---------------------------------------------------------------------------
# Retyping


def retype_context(g: TypeTranslation, ctx: Context) -> Context:
    """Translate a context pointwise; positions are preserved."""
    return _retype(g, ctx, {})


def _retype(
    g: TypeTranslation, types: tuple[ObjType, ...], memo: dict[ObjType, ObjType]
) -> tuple[ObjType, ...]:
    """Translate pointwise, sharing ``memo`` (see ``_translate_type``)."""
    return tuple([_translate_type(g, t, memo) for t in types])


# ---------------------------------------------------------------------------
# The double-negation kit used by __stab


def _has_negation_kit(sig: TypedSignature) -> bool:
    """True when ``sig`` declares the types and arities that stability
    witnesses are built from exactly as the shipped IPC does."""
    from .languages import get_language  # languages imports this module

    ipc = get_language("IPC")
    return all(
        sig.type_arity(n) == ipc.type_arity(n) for n in ("impl", "and", "bot", "top")
    ) and all(
        sig.arity(n) == ipc.arity(n)
        for n in ("implI", "implE", "andI", "andE1", "andE2", "topI")
    )


def _stable_expr(e: TypeExpr) -> bool:
    """Double-negation stability, structurally, with parameters assumed
    stable (sound when every type template of the translation is stable)."""
    match e:
        case TVar():
            return True
        case ObjType(name="bot" | "top", args=()):
            return True
        case ObjType(name="impl", args=(_, b)):
            return _stable_expr(b)
        case ObjType(name="and", args=(a, b)):
            return _stable_expr(a) and _stable_expr(b)
    return False


_BOT = ObjType("bot")
_TOP = ObjType("top")


def _imp(a: ObjType, b: ObjType) -> ObjType:
    return ObjType("impl", (a, b))


def _nn(a: ObjType) -> ObjType:
    return _imp(_imp(a, _BOT), _BOT)


def _landing(ty: ObjType) -> int | None:
    """The number of binders above the one place where the stability
    witness for ``ty`` uses its argument (2 per ``impl`` level and 1 per
    ``and`` level above a bot), or None when it uses it nowhere or in
    several places."""
    found: list[int] = []
    todo = [(ty, 0)]
    while todo and len(found) < 2:
        t, depth = todo.pop()
        if t is _BOT:
            found.append(depth)
        elif t.name == "impl":
            todo.append((t.args[1], depth + 2))
        elif t.name == "and":
            todo += [(t.args[1], depth + 1), (t.args[0], depth + 1)]
    return found[0] if len(found) == 1 else None


def build_stability_witness(sig: TypedSignature, ty: ObjType, d: Term, at: int = 0) -> Term:
    """Given ``d`` of type not-not-``ty``, build a term of type ``ty``.

    By cases on the type, on an explicit stack: bot eliminates by applying
    its double negation to the identity, top is introduced directly, and a
    conjunction or an implication takes a witness for each part (the
    conjuncts of ``and``, the conclusion of ``impl`` under its binder)
    from that part's double negation, which one step derives from the
    double negation a level up.  So ``d`` lands inside the steps from the
    root to each bot, under 2 binders per ``impl`` and 1 per ``and`` on the
    way (``_landing``), and is shifted once per landing, not once per
    level.  ``at`` says that ``d`` is already shifted past ``at`` binders,
    at most any landing's: a landing at ``at`` takes ``d`` as it is, which
    is how ``__stab`` at a template's root uses the arguments it placed
    there.  Only implication/conjunction/top/bot can occur in a type that
    passed the stability check.
    """

    def implI(a, b, body):
        return _con("implI", None, (a, b), (body,))

    def implE(a, b, f, x):
        return _con("implE", None, (a, b), (f, x))

    def landed(steps, depth: int) -> Term:
        # not-not-bot at a bot ``depth`` binders below the root, from ``d``
        # through ``steps``, the links (level, part, projection) up to the root
        chain = []
        while steps is not None:
            step, steps = steps
            chain.append(step)
        nn = weaken(sig, d, 0, depth - at)  # ``d`` itself at ``at``: nothing walks it
        for level, part, proj in reversed(chain):  # from the root down
            x, y = level.args
            depth -= 1 if proj else 2  # the binders that later steps put over this one
            if proj:
                elim = _con(proj, None, (x, y), (Var(0),))
            else:  # the ``impl`` binder, out past the binders of later steps
                elim = implE(x, y, Var(0), Var(2 + depth))
            step = implI(level, _BOT, implE(part, _BOT, Var(1), elim))
            nn = implI(_imp(part, _BOT), _BOT, implE(_imp(level, _BOT), _BOT, nn, step))
        return nn

    out: list[Term] = []
    todo = [(ty, None, 0)]  # (type, its steps, its depth), or (type, None, None) to join
    while todo:
        t, steps, depth = todo.pop()
        if depth is None:  # the witnesses of ``t``'s parts are on ``out``
            x, y = t.args
            last = out.pop()
            if t.name == "impl":
                out.append(implI(x, y, last))
            else:
                out.append(_con("andI", None, (x, y), (out.pop(), last)))
        elif t is _BOT:
            not_bot = landed(steps, depth)
            out.append(implE(_imp(_BOT, _BOT), _BOT, not_bot, implI(_BOT, _BOT, Var(0))))
        elif t is _TOP:
            out.append(_con("topI", None, (), ()))
        elif t.name == "impl":
            y = t.args[1]
            todo += [(t, None, None), (y, ((t, y, None), steps), depth + 2)]
        elif t.name == "and":
            x, y = t.args
            todo += [
                (t, None, None),
                (y, ((t, y, "andE2"), steps), depth + 1),
                (x, ((t, x, "andE1"), steps), depth + 1),
            ]
        else:
            raise TypeCheckError(f"no stability witness for type {t}")
    return out[0]


# ---------------------------------------------------------------------------
# Validation and compilation


def _opaque_inst(target: TypedSignature, n: int) -> tuple[ObjType, ...]:
    ts = target.all_types
    if is_unityped(ts):
        grounds = ground_types(ts, 1)
        if grounds:
            return (grounds[0],) * n
    return tuple(ObjType(f"__o{k}") for k in range(1, n + 1))


def _arity_images(x: Representation, ar: TermArity, inst: tuple[ObjType, ...]) -> tuple:
    """``terms._arity_types`` of ``ar`` carried along ``x``'s type map, at
    the translated instantiation ``inst``."""
    g, memo = x.type_map, {}
    return _arity_types(ar, lambda e: eval_type_expr(inst, _translate_type(g, e, memo)))


def _template_scope(x: Translation) -> tuple[dict[str, ObjType], list[str], bool]:
    """What templates may refer to: the type of each macro that typechecks,
    a message for each one that does not, and whether ``__stab`` is
    allowed."""
    macro_types: dict[str, ObjType] = {}
    errors: list[str] = []
    for name, body in x.macros.items():
        try:
            macro_types[name] = infer(x.target, (), body)
        except TypeCheckError as exc:
            errors.append(f"macro '{name}': {exc}")
    stab_ok = _has_negation_kit(x.target) and all(
        _stable_expr(tpl) for tpl in x.type_map.templates.values()
    )
    return macro_types, errors, stab_ok


def validate_translation(x: Translation) -> ValidationReport:
    """Check that every instantiation of every template will typecheck.

    Sound and incomplete: templates whose well-typedness depends on the
    concrete instantiation are rejected (except over unityped targets,
    where the single ground type makes the check exact).  Each template
    that passes is compiled by the same walk and kept for
    ``instantiate_template``.
    """
    type_errors = x.type_map.check()
    out: list[str] = [f"types: {msg}" for msg in type_errors]
    x._closed.clear()  # every template is compiled again below
    macro_types, macro_errors, stab_ok = _template_scope(x)
    out += macro_errors

    for ar in x.source.terms:
        tpl = x.term_map.get(ar.name)
        if tpl is None:
            out.append(f"arity '{ar.name}': no template for {ar.name}")
            continue
        if type_errors:
            continue  # type map broken; per-arity checks would only cascade
        try:
            x._compiled[ar.name] = (tpl, ar, *_compile(x, ar, tpl, macro_types, stab_ok))
        except TypeCheckError as exc:
            out.append(f"arity '{ar.name}': {exc.message}")
    for name in x.term_map:
        if x.source.arity(name) is None:
            out.append(f"arity '{name}': not declared by the source signature")
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# Instantiation and the initial morphism


def instantiate_template(
    x: Translation,
    ar: TermArity,
    inst: tuple[ObjType, ...],
    translated_args: tuple[Term, ...],
    lit: int | None = None,
    *,
    placed: bool = False,
) -> Term:
    """Plug translated arguments into the template of ``ar``.

    ``inst`` is the already translated instantiation; each placeholder
    occurrence is shifted by the number of template binders it sits under
    beyond the argument's own expected binders.  The result is well typed
    at the translated result type in any context in which the translated
    arguments are, so no context is passed.  Arguments are moved to their
    placements at ``inst`` (``_placements``: a ``__stab`` at the root adds
    its witness's landing) here, unless ``placed`` says they are already.
    A fixed template is returned as it is, and a template ``(C [..] ?1
    ... ?n)`` builds its node here; any other calls its compiled form.

    The template is checked and compiled once per ``Translation`` object
    (``_compile``: all outputs share each closed subtemplate), by
    ``validate_translation`` or else on first use here, and again when the
    template or ``ar`` is another object.  A template that fails its check,
    or is missing, raises ``TypeCheckError`` with the entry
    ``validate_translation`` reports for it, at every call.
    """
    entry = x._compiled.get(ar.name)
    if entry is None or entry[0] is not x.term_map.get(ar.name) or entry[1] is not ar:
        entry = _compiled_entry(x, ar)
    head = entry[5]
    if type(head) is Con:
        return head
    if not placed:
        places = zip(translated_args, _placements(entry, inst))
        translated_args = tuple([weaken(x.target, a, b, k) if k else a for a, (b, k) in places])
    if head is not None:
        name, node_lit, fixed_inst, inst_of = head
        inst = fixed_inst if inst_of is None else inst_of(inst)
        return _con(name, node_lit, inst, translated_args)
    return entry[2](inst, translated_args, lit, None)


def _compiled_entry(x: Translation, ar: TermArity) -> tuple:  # compiled on first use
    tpl = x.term_map.get(ar.name)
    if tpl is None:
        raise TypeCheckError(f"arity '{ar.name}': no template for {ar.name}")
    entry = x._compiled.get(ar.name)
    if entry is None or entry[0] is not tpl or entry[1] is not ar:
        macro_types, _, stab_ok = _template_scope(x)
        try:
            compiled = _compile(x, ar, tpl, macro_types, stab_ok)
        except TypeCheckError as exc:
            raise TypeCheckError(f"arity '{ar.name}': {exc.message}") from None
        entry = x._compiled[ar.name] = (tpl, ar, *compiled)
    return entry


def _placements(entry: tuple, inst: tuple[ObjType, ...]) -> tuple[tuple[int, int], ...]:
    """The placement of each argument of ``entry``'s template at the
    translated instantiation ``inst``: the static one, plus the landing of
    the witness when the template is a ``__stab``."""
    places, landing = entry[3], entry[4]
    shift = 0 if landing is None else landing(inst)
    return places if not shift else tuple([(b, k + shift) for b, k in places])


# A compiled subtemplate: ``(fixed, None)`` when its value is the same at
# every instantiation, else ``(None, fn)``, ``fn`` taking (inst, args, lit,
# hole), ``hole`` being the term that a ``__hole`` there stands for.  Type
# expressions compile to the same form (``objtypes.compile_type_expr``),
# with ``fn`` taking inst.
_Compiled = tuple


def _compile(
    x: Translation,
    ar: TermArity,
    tpl: Template,
    macro_types: dict[str, ObjType],
    stab_ok: bool,
) -> tuple[Callable, tuple[tuple[int, int], ...], Callable | None, Term | tuple | None]:
    """Check the template of ``ar`` and compile it, in one walk.  Returns
    the function of (inst, args, lit, hole) it compiles to; the placement
    it takes each argument at: its binder count and the fewest extra
    binders over a ?j; the landing, a function of inst or None; and the
    head, which ``instantiate_template`` uses instead of the function when
    it is not None.

    Each node is typed at the opaque instantiation (``_opaque_inst``) in
    the template's own binder context, and the first check that fails
    raises ``TypeCheckError``.  Each closed type expression is evaluated
    here and ``$k`` becomes ``inst[k-1]``; each placeholder carries the
    weakening beyond its placement, which no builtin template needs; a
    node whose type parameters, literal and arguments are all fixed is
    built here, a closed ``__stab`` witness included.

    A node ``(C [..] ?1 ... ?n)`` whose placeholders are the source arity's
    arguments in order, none weakened (each target binder list is as long
    as the translated source one), and that passes no source literal
    through, takes the tuple of translated arguments as its own arguments
    instead of calling one function per argument.  At the root, that node
    is the head: (name, literal, fixed instantiation or None, instantiation
    function or None), which ``instantiate_template`` builds itself; a
    fixed root is the head as it is; else the head is None.

    A ``__stab`` at the root holds every placeholder, and for most types
    its witness uses the term it is given in one place (``_landing``).  The
    landing is then the function of inst that gives the number of binders
    above that place, or 0 when there is none or several; the caller adds
    it to every placement (``_placements``), and the witness takes the term
    as it is.  Else the landing is None: a ``__stab`` elsewhere shifts its
    term at each place its witness uses it.

    Once the template passes, each maximal fixed piece that is closed (a
    fixed node that a non-fixed node or ``__iter`` holds, or the fixed
    template itself, macro bodies and ``__stab`` witnesses included) goes
    into ``x._closed`` with its type, for ``initsyn translate``'s recheck
    (``infer(..., closed=)``).
    """
    target = x.target
    inst0 = _opaque_inst(target, ar.degree)
    meta_binders, meta_types, result_type = _arity_images(x, ar, inst0)
    least: dict[int, int] = {}  # j -> the fewest template binders above a ?j, once walked
    pieces: list[Term] = []  # fixed subtemplates that a non-fixed one holds, and a fixed root
    macros: dict[int, ObjType] = {}  # id(macro body) -> its type, as ``_template_scope`` found
    root, landing, head = tpl, None, None

    def hold(*compiled: _Compiled) -> None:  # a non-fixed node holds ``compiled``
        pieces.extend([fixed for fixed, _ in compiled if fixed is not None])

    def type_expr(e: TypeExpr) -> ObjType:  # ``e`` checked, then its value at inst0
        error = next(type_expr_errors(target.all_types.constructors, e, ar.degree), None)
        if error is not None:
            raise TypeCheckError(f"type expression {e}: {error}")
        return eval_type_expr(inst0, e)

    # -> (type at inst0, compiled form); ``hole``: type and depth of the ``__hole`` in scope
    def walk(
        tpl: Template, ctx: Context, hole: tuple[ObjType, int] | None
    ) -> tuple[ObjType, _Compiled]:
        if isinstance(tpl, Var):
            i = tpl.index
            if not 0 <= i < len(ctx):
                raise TypeCheckError(f"unbound template variable #{i}")
            return ctx[i], (Var(i), None)
        if isinstance(tpl, TplMeta):
            j = tpl.index
            if not 1 <= j <= len(ar.args):
                raise TypeCheckError(
                    f"Meta({j}) out of range; arity has {len(ar.args)} arguments"
                )
            expected = meta_binders[j - 1]
            if ctx[: len(expected)] != expected:
                raise TypeCheckError(f"binder context mismatch at Meta({j})")
            outer, depth = len(expected), len(ctx)
            least[j] = min(depth, least.get(j, depth))
            if depth == outer:
                return meta_types[j - 1], (None, lambda inst, args, lit, hole: args[j - 1])
            return meta_types[j - 1], (
                None,
                lambda inst, args, lit, hole: args[j - 1] if depth == least[j]
                else weaken(target, args[j - 1], outer, depth - least[j]),
            )
        if isinstance(tpl, TplMacro):
            if tpl.name not in macro_types:
                raise TypeCheckError(f"unknown macro '{tpl.name}'")
            body = x.macros[tpl.name]
            macros[id(body)] = macro_types[tpl.name]
            return macro_types[tpl.name], (body, None)
        if not isinstance(tpl, Con):
            raise TypeCheckError(f"not a template: {tpl!r}")
        name, node_lit = tpl.name, tpl.lit
        if name == HOLE:
            if hole is None:
                raise TypeCheckError("__hole outside __iter")
            if tpl.inst or node_lit is not None or tpl.args:
                raise TypeCheckError(
                    "__hole takes no literal, type parameters or sub-templates"
                )
            if len(ctx) != hole[1]:
                raise TypeCheckError("__hole under a binder introduced by the step")
            return hole[0], (None, lambda inst, args, lit, hole: hole)
        if name == ITER:
            return walk_iter(tpl, ctx, hole)
        if name == STAB:
            return walk_stab(tpl, ctx, hole)
        tar = target.arity(name)
        if tar is None:
            raise TypeCheckError(f"unknown target arity '{name}'")
        if tar.family_index:
            if node_lit is None and not ar.family_index:
                raise TypeCheckError(
                    f"'{name}' needs a family literal (no source literal to pass through)"
                )
        elif node_lit is not None:
            raise TypeCheckError(f"'{name}' is not family-indexed")
        if len(tpl.inst) != tar.degree:
            raise TypeCheckError(
                f"'{name}' expects {tar.degree} type parameters, got {len(tpl.inst)}"
            )
        node_inst = tuple([type_expr(e) for e in tpl.inst])
        if len(tpl.args) != len(tar.args):
            raise TypeCheckError(
                f"'{name}' expects {len(tar.args)} arguments, got {len(tpl.args)}"
            )
        binders, bodies, result = _arity_types(tar, lambda e: eval_type_expr(node_inst, e))
        subs = []
        for inner, expected, sub in zip(binders, bodies, tpl.args):
            actual, compiled = walk(sub, inner + ctx, hole)
            if actual != expected:
                raise TypeCheckError(f"expected {expected}, found {actual}")
            subs.append(compiled)

        passthrough = tar.family_index and node_lit is None
        fixed_inst, inst_of = compile_type_expr(tpl.inst, ar.degree)
        if not passthrough and inst_of is None and all(fixed is not None for fixed, _ in subs):
            return result, (_con(name, node_lit, fixed_inst, tuple([f for f, _ in subs])), None)
        hold(*subs)
        arg_fns = [_function(s) for s in subs]
        # (C [..] ?1 ... ?n), no ?j weakened: the translated arguments are the node's
        direct = not passthrough and len(tpl.args) == len(ar.args) and all(
            type(sub) is TplMeta and sub.index == j
            and len(bs) + len(ctx) == len(meta_binders[j - 1])
            for j, (bs, sub) in enumerate(zip(binders, tpl.args), 1)
        )
        if direct and tpl is root:
            nonlocal head
            head = (name, node_lit, fixed_inst, inst_of)

        def node(inst, args, lit, hole):
            return _con(
                name,
                lit if passthrough else node_lit,
                fixed_inst if inst_of is None else inst_of(inst),
                args if direct else tuple([f(inst, args, lit, hole) for f in arg_fns]),
            )

        return result, (None, node)

    def walk_iter(
        tpl: Con, ctx: Context, hole: tuple[ObjType, int] | None
    ) -> tuple[ObjType, _Compiled]:
        if not ar.family_index:
            raise TypeCheckError("__iter in a template for a non-family arity")
        if tpl.inst or tpl.lit is not None or len(tpl.args) != 2:
            raise TypeCheckError("__iter takes exactly two sub-templates")
        base_ty, base = walk(tpl.args[1], ctx, hole)
        step_ty, step = walk(tpl.args[0], ctx, (base_ty, len(ctx)))
        if step_ty != base_ty:
            raise TypeCheckError(f"__iter step has type {step_ty}, base has type {base_ty}")
        hold(step, base)
        step_of, base_of = _function(step), _function(base)

        def iterate(inst, args, lit, hole):
            if lit is None:
                raise TypeCheckError("__iter without a family literal")
            if lit > MAX_ITER_LITERAL:
                msg = f"literal {lit} is above __iter's bound {MAX_ITER_LITERAL}"
                raise TypeCheckError(f"arity '{ar.name}': {msg}")
            acc = base_of(inst, args, lit, hole)
            for _ in range(lit):
                acc = step_of(inst, args, lit, acc)
            return acc

        return base_ty, (None, iterate)

    def walk_stab(
        tpl: Con, ctx: Context, hole: tuple[ObjType, int] | None
    ) -> tuple[ObjType, _Compiled]:
        if not stab_ok:
            raise TypeCheckError(
                "__stab needs the impl/and/top/bot kit in the target and "
                "double-negation stable type templates"
            )
        if len(tpl.inst) != 1 or len(tpl.args) != 1 or tpl.lit is not None:
            raise TypeCheckError("__stab takes one type expression and one sub-template")
        if not _stable_expr(tpl.inst[0]):
            raise TypeCheckError(f"__stab type {tpl.inst[0]} is not double-negation stable")
        ty = type_expr(tpl.inst[0])
        ty_c = compile_type_expr(tpl.inst[0], ar.degree)
        arg_ty, inner = walk(tpl.args[0], ctx, hole)
        if arg_ty != _nn(ty):
            raise TypeCheckError(f"__stab argument has type {arg_ty}, expected {_nn(ty)}")
        if ty_c[0] is not None and inner[0] is not None:
            return ty, (build_stability_witness(target, ty_c[0], inner[0]), None)
        ty_of, inner_of = type_function(ty_c), _function(inner)
        at_root = tpl is root
        if at_root:
            nonlocal landing
            landing = lambda inst: _landing(ty_of(inst)) or 0

        def stab(inst, args, lit, hole):
            at = landing(inst) if at_root else 0  # where the arguments were placed
            d = inner_of(inst, args, lit, hole)
            return build_stability_witness(target, ty_of(inst), d, at)

        return ty, (None, stab)

    ty, compiled = walk(tpl, (), None)
    if ty != result_type:
        raise TypeCheckError(f"template has type {ty}, expected {result_type}")
    hold(compiled)
    for piece in pieces:
        if type(piece) is Con and id(piece) not in x._closed:
            try:
                x._closed[id(piece)] = (piece, macros.get(id(piece)) or infer(target, (), piece))
            except TypeCheckError:
                pass  # not closed (a #i bound in the template): the recheck walks it
    places = [(len(b), least.get(j, len(b)) - len(b)) for j, b in enumerate(meta_binders, 1)]
    fixed = compiled[0]
    return _function(compiled), tuple(places), landing, head if fixed is None else fixed


def _function(compiled: _Compiled) -> Callable:
    fixed, fn = compiled
    return fn if fn is not None else lambda inst, args, lit, hole: fixed


class _NodeError(TypeCheckError):
    """A node of the term that ``translate_term`` walks is not well formed.
    Unlike an error of a template or operation, it gets its argument path,
    as ``infer``'s errors do."""


def _check_node(x: Representation, t: Con, types: dict) -> tuple[TermArity, tuple]:
    """Both walks' check, once per (arity, instantiation) pair: ``infer``'s
    (``TypedSignature.node_error``), then ``t``'s arity and translated inst."""
    error = x.source.node_error(t.name, t.lit, len(t.inst), len(t.args))
    if error is not None:
        raise _NodeError(error)
    return x.source.arity(t.name), _retype(x.type_map, t.inst, types)


@paused_gc
def translate_term(x: Representation, ctx: Context, term: Term) -> Term:
    """The initial morphism on terms: structural recursion over ``term``.

    Variables keep their positions, and each constructor occurrence becomes
    its template instantiated at the translated type parameters with the
    translated arguments.  An ``OpaqueRepresentation`` has a walk of its own
    (``_translate_opaque``), the only one that reads ``ctx``: templates
    never do, so a ``Translation``'s output depends on the term alone.  Its
    walk places each argument once (``_compile``): a variable moves by the
    current shift less the shift at its binder.

    Per call, each distinct type is translated once, and each distinct
    (arity, instantiation) pair is checked once (``_check_node``: a node
    that is not well formed raises ``infer``'s error with its argument
    path); a later node of the pair compares only whether it has a literal
    and its argument count, as ``infer`` does.  An error of a template
    names its arity and has no path.  A variable argument costs no call.
    """
    if isinstance(x, OpaqueRepresentation):
        return _translate_opaque(x, ctx, term)
    types: dict[ObjType, ObjType] = {}
    shapes: dict[tuple, tuple] = {}
    shifts: list[int] = []  # source binder level below ``rel`` -> its shift

    # ``t`` translated, shifted past ``sh`` extra binders; ``rel`` counts the
    # source binders above ``t`` since the shift was last 0, so it is 0 where ``sh`` is
    def go(t: Term, rel: int = 0, sh: int = 0) -> Term:
        if type(t) is Var:
            return t
        if type(t) is not Con:
            raise _NodeError(f"not a term: {t!r}")
        shape = shapes.get((t.name, t.inst))
        if shape is None or (t.lit is None) is shape[0] or len(t.args) != shape[1]:
            ar, inst_t = _check_node(x, t, types)
            try:
                places = _placements(_compiled_entry(x, ar), inst_t)
            except TypeCheckError:  # raised again after the arguments
                places = tuple([(b, 0) for b in x.source.binder_counts[t.name]])
            shape = shapes[t.name, t.inst] = (
                bool(ar.family_index), len(ar.args), ar, inst_t, places, any(k for _, k in places)
            )
        _, _, ar, inst_t, places, moved = shape
        args = t.args
        at = 0  # the argument being translated: a node error in it gets its path
        try:
            if sh or moved or len(args) > 2:
                new = []
                for at, (a, (b, k)) in enumerate(zip(args, places)):
                    s = sh + k
                    if type(a) is not Var:
                        shifts[rel : rel + b] = [s] * b
                        a = go(a, rel + b, s) if s else go(a)  # unshifted: from level 0
                    elif s and a.index >= b:  # bound outside the argument: it moves
                        j = a.index - b  # its index at the node
                        a = Var(a.index + s - (shifts[rel - 1 - j] if j < rel else 0))
                    new.append(a)
                args = tuple(new)
            elif len(args) == 2:
                a0, a1 = args
                a0 = a0 if type(a0) is Var else go(a0)
                at = 1
                args = (a0, a1 if type(a1) is Var else go(a1))
            elif args and type(args[0]) is not Var:
                args = (go(args[0]),)
        except _NodeError as exc:
            exc.path = (at,) + exc.path
            raise
        return instantiate_template(x, ar, inst_t, args, t.lit, placed=True)

    try:
        return go(term)
    finally:
        del go  # it refers to itself: the cycle would hold the tables


def _translate_opaque(x: OpaqueRepresentation, ctx: Context, term: Term) -> Term:
    """``translate_term`` for an ``OpaqueRepresentation``, with binder and
    result types in place of placements: ``ctx`` is retyped once and grows
    by the translated binders on the way down, and ``infer`` checks each
    operation's output in the context at its node."""
    types: dict[ObjType, ObjType] = {}
    shapes: dict[tuple, tuple] = {}

    def go(t: Term, ctx_t: Context) -> Term:
        if type(t) is Var:
            return t
        if type(t) is not Con:
            raise _NodeError(f"not a term: {t!r}")
        shape = shapes.get((t.name, t.inst))
        if shape is None or (t.lit is None) is shape[0] or len(t.args) != shape[1]:
            ar, inst_t = _check_node(x, t, types)
            shape = shapes[t.name, t.inst] = (
                bool(ar.family_index), len(ar.args), inst_t, *_arity_images(x, ar, inst_t)
            )
        _, _, inst_t, binders, _, result_ty = shape
        args = []
        try:
            for at, (a, b) in enumerate(zip(t.args, binders)):
                args.append(go(a, b + ctx_t))
        except _NodeError as exc:
            exc.path = (at,) + exc.path
            raise
        op = x.ops.get(t.name)
        if op is None:
            raise TypeCheckError(f"no operation for arity '{t.name}'")
        result = op(inst_t, ctx_t, tuple(args), t.lit)
        actual = infer(x.target, ctx_t, result)
        if actual is not result_ty:
            msg = f"returned a term of type {actual}, expected {result_ty}"
            raise TypeCheckError(f"operation for '{t.name}' {msg}")
        return result

    try:
        return go(term, _retype(x.type_map, ctx, types))
    finally:
        del go  # it refers to itself: the cycle would hold the tables


def identity_translation(sig: TypedSignature) -> Translation:
    """The identity representation of a signature in itself."""
    term_map: dict[str, Template] = {}
    for ar in sig.terms:
        inst = tuple(TVar(k) for k in range(1, ar.degree + 1))
        metas = tuple(TplMeta(j) for j in range(1, len(ar.args) + 1))
        term_map[ar.name] = _con(ar.name, None, inst, metas)
    return Translation(
        name=f"identity-{sig.name}",
        source=sig,
        target=sig,
        type_map=identity_type_translation(sig.all_types),
        term_map=term_map,
    )
