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
parameters and typechecks each template once; equality of opaque types
forces equality at every instantiation, so validated templates never
produce ill-typed output.  When the target generates at most one ground
type the unique type itself is substituted instead, which makes the check
exact for unityped targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .objtypes import (
    ObjType,
    TypeTranslation,
    _translate_type,
    eval_type_expr,
    ground_types,
    identity_type_translation,
    is_unityped,
    translate_type,  # not called here; perfbench/tracing.py counts calls by this name
    translate_type_expr,
)
from .signatures import (
    TApp,
    TVar,
    TypeExpr,
    TypedSignature,
    TermArity,
    ValidationReport,
    min_degree,
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


def term_to_template(term: Term) -> Template:
    """Embed a ground target term as a template (used for macros)."""
    match term:
        case Var(index=i):
            return TplVar(i)
        case Con(name=name, lit=lit, inst=inst, args=args):
            return TplCon(
                name,
                lit,
                tuple(_ground_to_expr(t) for t in inst),
                tuple(term_to_template(a) for a in args),
            )
    raise TypeError(f"not a term: {term!r}")


def _ground_to_expr(t: ObjType) -> TypeExpr:
    return TApp(t.name, tuple(_ground_to_expr(a) for a in t.args))


@dataclass(frozen=True)
class Translation:
    """A serializable representation of the source language in the target."""

    name: str
    source: TypedSignature
    target: TypedSignature
    type_map: TypeTranslation
    term_map: dict[str, Template]
    macros: dict[str, Term] = field(default_factory=dict)


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


_KIT_TYPES = {"impl": 2, "and": 2, "bot": 0, "top": 0}


def _kit_arities() -> dict[str, TermArity]:
    from .signatures import ArgSpec

    v1, v2 = TVar(1), TVar(2)
    return {
        "implI": TermArity("implI", 2, (ArgSpec((v1,), v2),), TApp("impl", (v1, v2))),
        "implE": TermArity(
            "implE", 2, (ArgSpec((), TApp("impl", (v1, v2))), ArgSpec((), v1)), v2
        ),
        "andI": TermArity(
            "andI", 2, (ArgSpec((), v1), ArgSpec((), v2)), TApp("and", (v1, v2))
        ),
        "andE1": TermArity("andE1", 2, (ArgSpec((), TApp("and", (v1, v2))),), v1),
        "andE2": TermArity("andE2", 2, (ArgSpec((), TApp("and", (v1, v2))),), v2),
        "topI": TermArity("topI", 0, (), TApp("top")),
    }


def _has_negation_kit(sig: TypedSignature) -> bool:
    for name, count in _KIT_TYPES.items():
        if sig.type_arity(name) != count:
            return False
    return all(sig.arity(n) == a for n, a in _kit_arities().items())


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
# Validation


class _TplError(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


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


class _TemplateChecker:
    def __init__(
        self,
        x: Translation,
        ar: TermArity,
        inst: tuple[ObjType, ...],
        images: _ArityImages,
        macro_types: dict[str, ObjType],
        stab_ok: bool,
    ):
        self.x = x
        self.ar = ar
        self.inst = inst
        self.images = images
        self.macro_types = macro_types
        self.stab_ok = stab_ok

    def check(self, tpl: Template) -> ObjType:
        return self._walk(tpl, (), None)

    def _eval(self, e: TypeExpr) -> ObjType:
        if min_degree(e) > self.ar.degree:
            raise _TplError(
                f"type expression {e} uses ${min_degree(e)} but the arity "
                f"has degree {self.ar.degree}"
            )
        return eval_type_expr(self.inst, e)

    def _walk(
        self, tpl: Template, ctx: Context, hole: tuple[ObjType, int] | None
    ) -> ObjType:
        match tpl:
            case TplVar(index=i):
                if not 0 <= i < len(ctx):
                    raise _TplError(f"unbound template variable #{i}")
                return ctx[i]
            case TplMeta(index=j):
                if not 1 <= j <= len(self.ar.args):
                    raise _TplError(
                        f"Meta({j}) out of range; arity has {len(self.ar.args)} arguments"
                    )
                expected = self.images.binders[j - 1]
                if ctx[: len(expected)] != expected:
                    raise _TplError(f"binder context mismatch at Meta({j})")
                return self.images.bodies[j - 1]
            case TplMacro(name=name):
                if name not in self.macro_types:
                    raise _TplError(f"unknown macro '{name}'")
                return self.macro_types[name]
            case TplCon():
                return self._walk_con(tpl, ctx, hole)
        raise _TplError(f"not a template: {tpl!r}")

    def _walk_con(
        self, tpl: TplCon, ctx: Context, hole: tuple[ObjType, int] | None
    ) -> ObjType:
        if tpl.name == HOLE:
            if hole is None:
                raise _TplError("__hole outside __iter")
            ty, depth = hole
            if len(ctx) != depth:
                raise _TplError("__hole under a binder introduced by the step")
            return ty
        if tpl.name == ITER:
            if not self.ar.family_index:
                raise _TplError("__iter in a template for a non-family arity")
            if tpl.inst or tpl.lit is not None or len(tpl.args) != 2:
                raise _TplError("__iter takes exactly two sub-templates")
            step, base = tpl.args
            base_ty = self._walk(base, ctx, hole)
            step_ty = self._walk(step, ctx, (base_ty, len(ctx)))
            if step_ty != base_ty:
                raise _TplError(
                    f"__iter step has type {step_ty}, base has type {base_ty}"
                )
            return base_ty
        if tpl.name == STAB:
            if not self.stab_ok:
                raise _TplError(
                    "__stab needs the impl/and/top/bot kit in the target and "
                    "double-negation stable type templates"
                )
            if len(tpl.inst) != 1 or len(tpl.args) != 1 or tpl.lit is not None:
                raise _TplError("__stab takes one type expression and one sub-template")
            if not _stable_expr(tpl.inst[0]):
                raise _TplError(
                    f"__stab type {tpl.inst[0]} is not double-negation stable"
                )
            ty = self._eval(tpl.inst[0])
            arg_ty = self._walk(tpl.args[0], ctx, hole)
            if arg_ty != _nn(ty):
                raise _TplError(
                    f"__stab argument has type {arg_ty}, expected {_nn(ty)}"
                )
            return ty

        target = self.x.target
        tar = target.arity(tpl.name)
        if tar is None:
            raise _TplError(f"unknown target arity '{tpl.name}'")
        if tar.family_index:
            if tpl.lit is None and not self.ar.family_index:
                raise _TplError(
                    f"'{tpl.name}' needs a family literal (no source literal to pass through)"
                )
        elif tpl.lit is not None:
            raise _TplError(f"'{tpl.name}' is not family-indexed")
        if len(tpl.inst) != tar.degree:
            raise _TplError(
                f"'{tpl.name}' expects {tar.degree} type parameters, got {len(tpl.inst)}"
            )
        for e in tpl.inst:
            _check_target_expr(target, e, self.ar.degree)
        node_inst = tuple(self._eval(e) for e in tpl.inst)
        if len(tpl.args) != len(tar.args):
            raise _TplError(
                f"'{tpl.name}' expects {len(tar.args)} arguments, got {len(tpl.args)}"
            )
        for spec, sub in zip(tar.args, tpl.args):
            inner = tuple(eval_type_expr(node_inst, b) for b in spec.binders) + ctx
            expected = eval_type_expr(node_inst, spec.body)
            actual = self._walk(sub, inner, hole)
            if actual != expected:
                raise _TplError(f"expected {expected}, found {actual}")
        return eval_type_expr(node_inst, tar.result)


def _check_target_expr(target: TypedSignature, e: TypeExpr, degree: int) -> None:
    match e:
        case TVar(index=k):
            if not 1 <= k <= degree:
                raise _TplError(f"type variable ${k} exceeds degree {degree}")
        case TApp(name=name, args=args):
            declared = target.type_arity(name)
            if declared is None:
                raise _TplError(f"unknown target type constructor '{name}'")
            if declared != len(args):
                raise _TplError(f"{name} expects {declared} arguments, got {len(args)}")
            for a in args:
                _check_target_expr(target, a, degree)


def validate_translation(x: Translation) -> ValidationReport:
    """Check that every instantiation of every template will typecheck.

    Sound and incomplete: templates whose well-typedness depends on the
    concrete instantiation are rejected (except over unityped targets,
    where the single ground type makes the check exact).
    """
    type_errors = x.type_map.check()
    out: list[str] = [f"types: {msg}" for msg in type_errors]

    macro_types: dict[str, ObjType] = {}
    for name, body in x.macros.items():
        try:
            macro_types[name] = infer(x.target, (), body)
        except TypeCheckError as exc:
            out.append(f"macro '{name}': {exc}")

    stab_ok = _has_negation_kit(x.target) and all(
        _stable_expr(tpl) for tpl in x.type_map.templates.values()
    )

    for ar in x.source.terms:
        tpl = x.term_map.get(ar.name)
        if tpl is None:
            out.append(f"arity '{ar.name}': no template for {ar.name}")
            continue
        if type_errors:
            continue  # type map broken; per-arity checks would only cascade
        inst = _opaque_inst(x.target, ar.degree)
        images = _arity_images(x, ar, inst)
        checker = _TemplateChecker(x, ar, inst, images, macro_types, stab_ok)
        try:
            actual = checker.check(tpl)
            if actual != images.result:
                raise _TplError(f"template has type {actual}, expected {images.result}")
        except _TplError as exc:
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
    ctx: Context,
    lit: int | None = None,
) -> Term:
    """Plug translated arguments into the template of ``ar``.

    ``inst`` is the already translated instantiation; each placeholder
    occurrence is shifted by the number of template binders it sits under
    beyond the argument's own expected binders.  For validated translations
    the result is well typed at the translated result type in any context
    in which the translated arguments are; ``ctx`` is unused and only kept
    for existing callers.
    """
    binder_counts = tuple(len(spec.binders) for spec in ar.args)

    def build(tpl: Template, depth: int, hole: tuple[Term, int] | None) -> Term:
        match tpl:
            case TplVar(index=i):
                return Var(i)
            case TplMeta(index=j):
                if not 1 <= j <= len(binder_counts):
                    raise TypeCheckError(f"Meta({j}) out of range (validation skipped?)")
                expected = binder_counts[j - 1]
                if depth < expected:
                    raise TypeCheckError(
                        f"Meta({j}) under too few binders (validation skipped?)"
                    )
                arg = translated_args[j - 1]
                return weaken(x.target, arg, expected, depth - expected)
            case TplMacro(name=name):
                return x.macros[name]
            case TplCon():
                pass
            case _:
                raise TypeCheckError(f"not a template: {tpl!r}")

        if tpl.name == HOLE:
            if hole is None:
                raise TypeCheckError("__hole outside __iter (validation skipped?)")
            term, at_depth = hole
            if depth != at_depth:
                raise TypeCheckError("__hole under a binder (validation skipped?)")
            return term
        if tpl.name == ITER:
            if lit is None:
                raise TypeCheckError("__iter without a family literal")
            step, base = tpl.args
            acc = build(base, depth, hole)
            for _ in range(lit):
                acc = build(step, depth, (acc, depth))
            return acc
        if tpl.name == STAB:
            ty = eval_type_expr(inst, tpl.inst[0])
            inner = build(tpl.args[0], depth, hole)
            return build_stability_witness(x.target, ty, inner)

        tar = x.target.arity(tpl.name)
        if tar is None:
            raise TypeCheckError(f"unknown target arity '{tpl.name}'")
        node_lit = tpl.lit
        if tar.family_index and node_lit is None:
            node_lit = lit  # literal passthrough for family-to-family templates
        node_inst = tuple(eval_type_expr(inst, e) for e in tpl.inst)
        new_args = tuple(
            build(sub, depth + len(spec.binders), hole)
            for spec, sub in zip(tar.args, tpl.args)
        )
        return Con(tpl.name, node_lit, node_inst, new_args)

    return build(x.term_map[ar.name], 0, None)


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
    and result types.
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
        key = (t.name, t.inst)
        shape = shapes.get(key)
        if shape is None:
            ar = x.source.arity(t.name)
            if ar is None:
                raise TypeCheckError(f"unknown arity '{t.name}'")
            inst_t = _retype(g, t.inst, types)
            images = _arity_images(x, ar, inst_t) if opaque else None
            shape = shapes[key] = (ar, inst_t, images)
        ar, inst_t, images = shape
        if not opaque:
            args = tuple([go(a, ctx_t) for a, _ in zip(t.args, ar.args)])
            return instantiate_template(x, ar, inst_t, args, ctx_t, t.lit)
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
