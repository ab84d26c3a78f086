"""Translations between languages as structural recursion over terms.

A translation of one typed signature into another consists of a type
translation (see objtypes) plus, for every source arity, a target term
template.  Templates are target terms with two extra leaf forms: ``?j``
stands for the translated j-th argument of the source constructor, and
``<M>`` references a shared closed macro term.  Type positions inside a
template hold type expressions whose variables $1..$n denote the
translated type parameters of the source occurrence.

Three constructor names are reserved for engine forms that plain target
syntax cannot express:

* ``(__iter step base)``, legal only in templates for family-indexed
  arities, expands to step applied literal-many times to base at
  instantiation time (``(__hole)`` marks the iteration position).  This is
  how numeral families map to iterated codings.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .objtypes import (
    ObjType,
    TypeTranslation,
    _translate_type,
    compile_type_expr,
    eval_type_expr,
    ground_types,
    identity_type_translation,
    is_unityped,
    translate_type,  # not called here; perfbench/tracing.py counts calls by this name
    translate_type_expr,
    type_function,
)
from .signatures import (
    TApp,
    TVar,
    TypeExpr,
    TypedSignature,
    TermArity,
    ValidationReport,
    type_expr_errors,
)
from .terms import Con, Context, Term, TypeCheckError, Var, infer, weaken

ITER = "__iter"
HOLE = "__hole"
STAB = "__stab"


# ---------------------------------------------------------------------------
# Templates


@dataclass(frozen=True, slots=True)
class TplVar:
    """A variable bound by a binder introduced inside the template."""

    index: int


@dataclass(frozen=True, slots=True)
class TplMeta:
    """Placeholder for the translated j-th source argument (1-based)."""

    index: int


@dataclass(frozen=True, slots=True)
class TplMacro:
    name: str


@dataclass(frozen=True, slots=True)
class TplCon:
    name: str
    lit: int | None
    inst: tuple[TypeExpr, ...]
    args: tuple["Template", ...]


Template = TplVar | TplMeta | TplMacro | TplCon


@dataclass(frozen=True)
class Translation:
    """A serializable representation of the source language in the target."""

    name: str
    source: TypedSignature
    target: TypedSignature
    type_map: TypeTranslation
    term_map: dict[str, Template]
    macros: dict[str, Term] = field(default_factory=dict)
    # arity name -> (template, arity, compiled template); see instantiate_template
    _compiled: dict[str, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


@dataclass(frozen=True)
class OpaqueRepresentation:
    """Library-level representation with arbitrary per-arity callbacks.

    ``ops[name]`` receives the translated instantiation, the translated
    ambient context, the translated arguments and the family literal, and
    must return a target term; the engine typechecks every output against
    the translated result type, since nothing else constrains a callback.
    """

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


def retype_inst(g: TypeTranslation, inst: tuple[ObjType, ...]) -> tuple[ObjType, ...]:
    return _retype(g, inst, {})


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
        case TApp(name="bot" | "top", args=()):
            return True
        case TApp(name="impl", args=(_, b)):
            return _stable_expr(b)
        case TApp(name="and", args=(a, b)):
            return _stable_expr(a) and _stable_expr(b)
    return False


_BOT = ObjType("bot")
_TOP = ObjType("top")


def _imp(a: ObjType, b: ObjType) -> ObjType:
    return ObjType("impl", (a, b))


def _nn(a: ObjType) -> ObjType:
    return _imp(_imp(a, _BOT), _BOT)


def build_stability_witness(sig: TypedSignature, ty: ObjType, d: Term) -> Term:
    """Given ``d`` of type not-not-``ty``, build a term of type ``ty``.

    Recursion on the type: bot eliminates by applying ``d`` to the
    identity, top is introduced directly, conjunctions split into two
    doubly negated halves, and implications push the negation under the
    binder.  Only implication/conjunction/top/bot can occur in a type that
    passed the stability check.
    """

    def implI(a, b, body):
        return Con("implI", None, (a, b), (body,))

    def implE(a, b, f, x):
        return Con("implE", None, (a, b), (f, x))

    if ty == _BOT:
        return implE(_imp(_BOT, _BOT), _BOT, d, implI(_BOT, _BOT, Var(0)))
    if ty == _TOP:
        return Con("topI", None, (), ())
    if ty.name == "and":
        x, y = ty.args
        halves = []
        for part, proj in ((x, "andE1"), (y, "andE2")):
            dpart = implI(
                _imp(part, _BOT),
                _BOT,
                implE(
                    _imp(ty, _BOT),
                    _BOT,
                    weaken(sig, d, 0, 1),
                    implI(
                        ty,
                        _BOT,
                        implE(
                            part,
                            _BOT,
                            Var(1),
                            Con(proj, None, (x, y), (Var(0),)),
                        ),
                    ),
                ),
            )
            halves.append(build_stability_witness(sig, part, dpart))
        return Con("andI", None, (x, y), tuple(halves))
    if ty.name == "impl":
        x, y = ty.args
        dy = implI(
            _imp(y, _BOT),
            _BOT,
            implE(
                _imp(ty, _BOT),
                _BOT,
                weaken(sig, d, 0, 2),
                implI(
                    ty,
                    _BOT,
                    implE(y, _BOT, Var(1), implE(x, y, Var(0), Var(2))),
                ),
            ),
        )
        return implI(x, y, build_stability_witness(sig, y, dy))
    raise TypeCheckError(f"no stability witness for type {ty}")


# ---------------------------------------------------------------------------
# Validation and compilation


def _opaque_inst(target: TypedSignature, n: int) -> tuple[ObjType, ...]:
    ts = target.all_types
    if is_unityped(ts):
        grounds = ground_types(ts, 1)
        if grounds:
            return (grounds[0],) * n
    return tuple(ObjType(f"__o{k}") for k in range(1, n + 1))


@dataclass(frozen=True, slots=True)
class _ArityImages:
    """Translated shapes of one source arity at a fixed instantiation."""

    binders: tuple[tuple[ObjType, ...], ...]
    bodies: tuple[ObjType, ...]
    result: ObjType


def _arity_images(
    x: Representation, ar: TermArity, inst: tuple[ObjType, ...]
) -> _ArityImages:
    g = x.type_map
    binders = tuple(
        tuple(eval_type_expr(inst, translate_type_expr(g, b)) for b in spec.binders)
        for spec in ar.args
    )
    bodies = tuple(
        eval_type_expr(inst, translate_type_expr(g, spec.body)) for spec in ar.args
    )
    result = eval_type_expr(inst, translate_type_expr(g, ar.result))
    return _ArityImages(binders, bodies, result)


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
            x._compiled[ar.name] = (tpl, ar, _compile(x, ar, tpl, macro_types, stab_ok))
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
) -> Term:
    """Plug translated arguments into the template of ``ar``.

    ``inst`` is the already translated instantiation; each placeholder
    occurrence is shifted by the number of template binders it sits under
    beyond the argument's own expected binders.  The result is well typed
    at the translated result type in any context in which the translated
    arguments are, so no context is passed.

    The template is checked and compiled once per ``Translation`` object
    (see ``_compile``), by ``validate_translation`` or else on first use
    here: every closed subtemplate is built then, and all outputs share
    that one term.  The compiled form is kept with the template and ``ar``
    it was made from, and is made again when either is another object.  A
    template that fails its check raises ``TypeCheckError`` with the entry
    ``validate_translation`` reports for it, at every call.
    """
    tpl = x.term_map[ar.name]
    entry = x._compiled.get(ar.name)
    if entry is None or entry[0] is not tpl or entry[1] is not ar:
        macro_types, _, stab_ok = _template_scope(x)
        try:
            compiled = _compile(x, ar, tpl, macro_types, stab_ok)
        except TypeCheckError as exc:
            raise TypeCheckError(f"arity '{ar.name}': {exc.message}") from None
        entry = x._compiled[ar.name] = (tpl, ar, compiled)
    return entry[2](inst, translated_args, lit, None)


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
) -> Callable:
    """Check the template of ``ar`` and compile it into a function of
    (inst, args, lit, hole), in one walk.

    Each node is typed at the opaque instantiation (``_opaque_inst``) in
    the template's own binder context, and the first check that fails
    raises ``TypeCheckError``.  Each closed type expression is evaluated
    here and ``$k`` becomes ``inst[k-1]``; each placeholder carries its
    weakening amount; a node whose type parameters, literal and arguments
    are all fixed is built here, a closed ``__stab`` witness included.
    """
    target = x.target
    inst0 = _opaque_inst(target, ar.degree)
    images = _arity_images(x, ar, inst0)

    def type_expr(e: TypeExpr) -> _Compiled:
        error = next(type_expr_errors(target.all_types.constructors, e, ar.degree), None)
        if error is not None:
            raise TypeCheckError(f"type expression {e}: {error}")
        return compile_type_expr(e, ar.degree)

    # -> (type at inst0, compiled form); ``hole``: type and depth of the ``__hole`` in scope
    def walk(
        tpl: Template, ctx: Context, hole: tuple[ObjType, int] | None
    ) -> tuple[ObjType, _Compiled]:
        if isinstance(tpl, TplVar):
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
            expected = images.binders[j - 1]
            if ctx[: len(expected)] != expected:
                raise TypeCheckError(f"binder context mismatch at Meta({j})")
            outer, amount = len(expected), len(ctx) - len(expected)
            if amount == 0:
                return images.bodies[j - 1], (None, lambda inst, args, lit, hole: args[j - 1])
            return images.bodies[j - 1], (
                None,
                lambda inst, args, lit, hole: weaken(target, args[j - 1], outer, amount),
            )
        if isinstance(tpl, TplMacro):
            if tpl.name not in macro_types:
                raise TypeCheckError(f"unknown macro '{tpl.name}'")
            return macro_types[tpl.name], (x.macros[tpl.name], None)
        if not isinstance(tpl, TplCon):
            raise TypeCheckError(f"not a template: {tpl!r}")
        if tpl.name == HOLE:
            if hole is None:
                raise TypeCheckError("__hole outside __iter")
            if tpl.inst or tpl.lit is not None or tpl.args:
                raise TypeCheckError(
                    "__hole takes no literal, type parameters or sub-templates"
                )
            if len(ctx) != hole[1]:
                raise TypeCheckError("__hole under a binder introduced by the step")
            return hole[0], (None, lambda inst, args, lit, hole: hole)
        if tpl.name == ITER:
            return walk_iter(tpl, ctx, hole)
        if tpl.name == STAB:
            return walk_stab(tpl, ctx, hole)
        return walk_con(tpl, ctx, hole)

    def walk_iter(
        tpl: TplCon, ctx: Context, hole: tuple[ObjType, int] | None
    ) -> tuple[ObjType, _Compiled]:
        if not ar.family_index:
            raise TypeCheckError("__iter in a template for a non-family arity")
        if tpl.inst or tpl.lit is not None or len(tpl.args) != 2:
            raise TypeCheckError("__iter takes exactly two sub-templates")
        base_ty, base = walk(tpl.args[1], ctx, hole)
        step_ty, step = walk(tpl.args[0], ctx, (base_ty, len(ctx)))
        if step_ty != base_ty:
            raise TypeCheckError(f"__iter step has type {step_ty}, base has type {base_ty}")
        step_of, base_of = _function(step), _function(base)

        def iterate(inst, args, lit, hole):
            if lit is None:
                raise TypeCheckError("__iter without a family literal")
            acc = base_of(inst, args, lit, hole)
            for _ in range(lit):
                acc = step_of(inst, args, lit, acc)
            return acc

        return base_ty, (None, iterate)

    def walk_stab(
        tpl: TplCon, ctx: Context, hole: tuple[ObjType, int] | None
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
        ty_c = type_expr(tpl.inst[0])
        ty = type_function(ty_c)(inst0)
        arg_ty, inner = walk(tpl.args[0], ctx, hole)
        if arg_ty != _nn(ty):
            raise TypeCheckError(f"__stab argument has type {arg_ty}, expected {_nn(ty)}")
        if ty_c[0] is not None and inner[0] is not None:
            return ty, (build_stability_witness(target, ty_c[0], inner[0]), None)
        ty_of, inner_of = type_function(ty_c), _function(inner)

        def stab(inst, args, lit, hole):
            return build_stability_witness(target, ty_of(inst), inner_of(inst, args, lit, hole))

        return ty, (None, stab)

    def walk_con(
        tpl: TplCon, ctx: Context, hole: tuple[ObjType, int] | None
    ) -> tuple[ObjType, _Compiled]:
        name, node_lit = tpl.name, tpl.lit
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
        types = [type_expr(e) for e in tpl.inst]
        node_inst = tuple([type_function(t)(inst0) for t in types])
        if len(tpl.args) != len(tar.args):
            raise TypeCheckError(
                f"'{name}' expects {len(tar.args)} arguments, got {len(tpl.args)}"
            )
        subs = []
        for spec, sub in zip(tar.args, tpl.args):
            inner = tuple(eval_type_expr(node_inst, b) for b in spec.binders) + ctx
            expected = eval_type_expr(node_inst, spec.body)
            actual, compiled = walk(sub, inner, hole)
            if actual != expected:
                raise TypeCheckError(f"expected {expected}, found {actual}")
            subs.append(compiled)
        result = eval_type_expr(node_inst, tar.result)

        passthrough = tar.family_index and node_lit is None
        if not passthrough and all(fixed is not None for fixed, _ in types + subs):
            return result, (Con(name, node_lit, _fixed(types), _fixed(subs)), None)
        fixed_inst = _fixed(types) if all(t is not None for t, _ in types) else None
        inst_fns = [type_function(t) for t in types]
        arg_fns = [_function(s) for s in subs]

        def node(inst, args, lit, hole):
            return Con(
                name,
                lit if passthrough else node_lit,
                fixed_inst if fixed_inst is not None else tuple([f(inst) for f in inst_fns]),
                tuple([f(inst, args, lit, hole) for f in arg_fns]),
            )

        return result, (None, node)

    ty, compiled = walk(tpl, (), None)
    if ty != images.result:
        raise TypeCheckError(f"template has type {ty}, expected {images.result}")
    return _function(compiled)


def _fixed(parts: list[_Compiled]) -> tuple:
    return tuple(fixed for fixed, _ in parts)


def _function(compiled: _Compiled) -> Callable:
    fixed, fn = compiled
    return fn if fn is not None else lambda inst, args, lit, hole: fixed


def translate_term(x: Representation, ctx: Context, term: Term) -> Term:
    """The initial morphism on terms: structural recursion over ``term``.

    Variables keep their positions, and each constructor occurrence becomes
    its template instantiated at the translated type parameters with the
    translated arguments.  Templates never read the context, so for a
    ``Translation`` the context is not consulted and the output depends on
    the term alone.  An ``OpaqueRepresentation`` callback receives the
    translated context at its node: ``ctx`` is retyped once at the root and
    then extended by the translated binder types on the way down.

    Two tables live for one call: translated types, shared by the context
    and every instantiation, so each distinct type is translated once; and,
    per distinct (arity, instantiation) pair, the arity with its translated
    instantiation and, for opaque representations, its translated binder
    and result types.  A node that is not well formed raises ``infer``'s
    error (``TypedSignature.node_error``): the whole check runs once per
    pair, and a later node of the pair compares only whether it has a
    literal and its argument count, as ``infer`` does.
    """
    g = x.type_map
    opaque = isinstance(x, OpaqueRepresentation)
    types: dict[ObjType, ObjType] = {}
    shapes: dict[tuple, tuple] = {}

    def go(t: Term, ctx_t: Context) -> Term:
        if type(t) is Var:
            return t
        if type(t) is not Con:
            raise TypeCheckError(f"not a term: {t!r}")
        shape = shapes.get((t.name, t.inst))
        if shape is None or (t.lit is None) is shape[0] or len(t.args) != shape[1]:
            error = x.source.node_error(t.name, t.lit, len(t.inst), len(t.args))
            if error is not None:
                raise TypeCheckError(error)
            ar = x.source.arity(t.name)
            inst_t = _retype(g, t.inst, types)
            images = _arity_images(x, ar, inst_t) if opaque else None
            shape = shapes[t.name, t.inst] = (
                bool(ar.family_index), len(ar.args), ar, inst_t, images
            )
        _, _, ar, inst_t, images = shape
        if not opaque:
            args = tuple([go(a, ctx_t) for a in t.args])
            return instantiate_template(x, ar, inst_t, args, t.lit)
        args = tuple([go(a, b + ctx_t) for a, b in zip(t.args, images.binders)])
        op = x.ops.get(t.name)
        if op is None:
            raise TypeCheckError(f"no operation for arity '{t.name}'")
        result = op(inst_t, ctx_t, args, t.lit)
        actual = infer(x.target, ctx_t, result)
        if actual is not images.result:
            raise TypeCheckError(
                f"operation for '{t.name}' returned a term of type "
                f"{actual}, expected {images.result}"
            )
        return result

    return go(term, _retype(g, ctx, types) if opaque else ())


def identity_translation(sig: TypedSignature) -> Translation:
    """The identity representation of a signature in itself."""
    term_map: dict[str, Template] = {}
    for ar in sig.terms:
        inst = tuple(TVar(k) for k in range(1, ar.degree + 1))
        metas = tuple(TplMeta(j) for j in range(1, len(ar.args) + 1))
        term_map[ar.name] = TplCon(ar.name, None, inst, metas)
    return Translation(
        name=f"identity-{sig.name}",
        source=sig,
        target=sig,
        type_map=identity_type_translation(sig.all_types),
        term_map=term_map,
    )
