"""Intrinsically-typed terms over a context, with capture-avoiding substitution.

Terms use 0-based de Bruijn indices; context position 0 is the innermost
(most recently bound) variable.  A constructor occurrence records the arity
name, the family literal when the arity is family-indexed, the tuple of
ground types instantiating the arity's type parameters, and the argument
terms.  Each argument lives in the context extended by the arity's binder
list evaluated at the instantiation.

Weakening, renaming and substitution are one traversal: it rebuilds the
term and hands each variable, together with the number of binders above
it, to a per-operation function.  Passing under a binder only bumps that
count, so it costs the same whatever the width of the substitution.
Substitution is simultaneous and capture-avoiding: a variable bound inside
the term stays put, and a free one is replaced by its image weakened past
the binders above it, lazily, once per image and binder count.  Together
with variables-as-terms this is the Kleisli presentation of the term
monad; flattening is definable from it and is not a separate operation
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .objtypes import ObjType, eval_type_expr
from .signatures import TypedSignature

Context = tuple[ObjType, ...]


class TypeCheckError(Exception):
    """Ill-typed term.  ``path`` lists argument positions from the root."""

    def __init__(self, message: str, path: tuple[int, ...] = ()):
        super().__init__(message)
        self.message = message
        self.path = path

    def __str__(self) -> str:
        if self.path:
            trail = "".join(f".{i}" for i in self.path)
            return f"at argument path {trail[1:]}: {self.message}"
        return self.message


@dataclass(frozen=True, slots=True)
class Var:
    index: int

    def __str__(self) -> str:
        return f"#{self.index}"


@dataclass(frozen=True, slots=True)
class Con:
    name: str
    lit: int | None
    inst: tuple[ObjType, ...]
    args: tuple["Term", ...]

    def __str__(self) -> str:
        """The canonical text, which the term parser reads back.  Built with
        an explicit stack of the terms still to render and the text between
        them, so that depth costs no recursion; the pieces are joined a few
        thousand at a time, so that few are held at once."""
        done: list[str] = []
        out: list[str] = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if not isinstance(t, Con):
                out.append(t if type(t) is str else str(t))
                continue
            if len(out) > 4096:
                done.append("".join(out))
                out.clear()
            out.append("(")
            out.append(t.name if t.lit is None else f"{t.name}{{{t.lit}}}")
            if t.inst:
                out.append(" [" + ", ".join([str(ty) for ty in t.inst]) + "]")
            stack.append(")")
            for a in reversed(t.args):
                stack.append(a)
                stack.append(" ")
        done.append("".join(out))
        return "".join(done)


Term = Var | Con


def context_extend(
    ctx: Context, inst: Sequence[ObjType], binders: Sequence
) -> Context:
    """Prepend the evaluated binder types; the first binder is innermost."""
    return tuple(eval_type_expr(inst, b) for b in binders) + tuple(ctx)


def infer(sig: TypedSignature, ctx: Context, term: Term) -> ObjType:
    """The unique type of ``term`` in ``ctx``, or a TypeCheckError.

    Each distinct (arity, instantiation) pair has its binder, argument and
    result types evaluated once per call, in a table that lives for the
    call.  The error path is assembled only while an error propagates.
    """
    return _infer(sig, tuple(ctx), term, {})


def _infer(
    sig: TypedSignature,
    ctx: Context,
    term: Term,
    shapes: dict[tuple, tuple],
) -> ObjType:
    if type(term) is Var:
        i = term.index
        if not 0 <= i < len(ctx):
            raise TypeCheckError(f"unbound index {i}")
        return ctx[i]
    if type(term) is not Con:
        raise TypeCheckError(f"not a term: {term!r}")
    name, inst, args = term.name, term.inst, term.args
    ar = sig.arity(name)
    if ar is None:
        raise TypeCheckError(f"unknown arity '{name}'")
    if ar.family_index and term.lit is None:
        raise TypeCheckError(f"'{name}' needs a family literal")
    if not ar.family_index and term.lit is not None:
        raise TypeCheckError(f"'{name}' is not family-indexed")
    if len(inst) != ar.degree:
        raise TypeCheckError(
            f"'{name}' expects {ar.degree} type parameters, got {len(inst)}"
        )
    if len(args) != len(ar.args):
        raise TypeCheckError(
            f"'{name}' expects {len(ar.args)} arguments, got {len(args)}"
        )
    key = (name, inst)
    shape = shapes.get(key)
    if shape is None:
        shape = shapes[key] = (
            tuple(
                tuple(eval_type_expr(inst, b) for b in spec.binders)
                for spec in ar.args
            ),
            tuple(eval_type_expr(inst, spec.body) for spec in ar.args),
            eval_type_expr(inst, ar.result),
        )
    binders, expected, result = shape
    for j, arg in enumerate(args):
        try:
            actual = _infer(sig, binders[j] + ctx, arg, shapes)
        except TypeCheckError as exc:
            exc.path = (j,) + exc.path
            raise
        if actual is not expected[j]:
            raise TypeCheckError(f"expected {expected[j]}, found {actual}", (j,))
    return result


def check(sig: TypedSignature, ctx: Context, term: Term, ty: ObjType) -> None:
    """Raise TypeCheckError unless ``term`` has type ``ty`` in ``ctx``."""
    actual = infer(sig, ctx, term)
    if actual != ty:
        raise TypeCheckError(f"expected {ty}, found {actual}")


@dataclass(frozen=True, slots=True)
class Judgement:
    """A term packaged with the data that typechecks it."""

    sig: TypedSignature
    ctx: Context
    term: Term
    ty: ObjType

    def __post_init__(self) -> None:
        check(self.sig, self.ctx, self.term, self.ty)


def eta(ctx: Context, i: int) -> Term:
    """The i-th context variable as a term (the unit of the monad)."""
    if not 0 <= i < len(ctx):
        raise IndexError(f"index {i} out of range for context of length {len(ctx)}")
    return Var(i)


def _map(
    sig: TypedSignature, term: Term, on_var: Callable[[Var, int], Term]
) -> Term:
    """Rebuild ``term`` with each variable ``v`` replaced by ``on_var(v, d)``,
    where ``d`` is the number of binders above ``v``."""
    binders = sig.binder_counts

    def go(t: Term, depth: int) -> Term:
        if type(t) is Var:
            return on_var(t, depth)
        if type(t) is not Con:
            raise TypeCheckError(f"not a term: {t!r}")
        counts = binders.get(t.name)
        if counts is None:
            raise TypeCheckError(f"unknown arity '{t.name}'")
        args = tuple([go(a, depth + k) for a, k in zip(t.args, counts)])
        return Con(t.name, t.lit, t.inst, args)

    return go(term, 0)


def weaken(sig: TypedSignature, term: Term, cutoff: int, amount: int) -> Term:
    """Shift free indices >= ``cutoff`` up by ``amount``.

    Turns a term over A ++ B into one over A ++ C ++ B when len(A) is the
    cutoff and len(C) the amount; bound and low indices are untouched.
    """
    if amount == 0:
        return term
    return _map(
        sig, term, lambda v, d: Var(v.index + amount) if v.index >= d + cutoff else v
    )


def rename(sig: TypedSignature, term: Term, f: Callable[[int], int]) -> Term:
    """Relabel free variables; under b binders, index i maps through
    ``i if i < b else f(i - b) + b``."""
    return _map(sig, term, lambda v, d: v if v.index < d else Var(f(v.index - d) + d))


@dataclass(frozen=True, slots=True)
class Substitution:
    """A map from a domain context into terms over a codomain context."""

    domain: Context
    codomain: Context
    images: tuple[Term, ...]

    def validate(self, sig: TypedSignature) -> None:
        if len(self.images) != len(self.domain):
            raise TypeCheckError(
                f"substitution has {len(self.images)} images for a domain of "
                f"length {len(self.domain)}"
            )
        for i, (img, ty) in enumerate(zip(self.images, self.domain)):
            actual = infer(sig, self.codomain, img)
            if actual != ty:
                raise TypeCheckError(
                    f"image {i} has type {actual}, domain expects {ty}"
                )


def identity_substitution(ctx: Context) -> Substitution:
    return Substitution(ctx, ctx, tuple(Var(i) for i in range(len(ctx))))


def substitute(sig: TypedSignature, term: Term, sub: Substitution) -> Term:
    """Capture-avoiding simultaneous substitution.

    Preserves the type: a term of type t over the domain maps to a term of
    type t over the codomain.  An image is weakened only when a variable
    reaches it, and each (image, binder count) pair is weakened once per
    call, so repeated occurrences share one copy.
    """
    images = sub.images
    weakened: dict[tuple[int, int], Term] = {}

    def on_var(v: Var, depth: int) -> Term:
        i = v.index
        if i < depth:
            return v
        if i - depth >= len(images):
            raise TypeCheckError(f"unbound index {i} under substitution")
        key = (i - depth, depth)
        img = weakened.get(key)
        if img is None:
            img = weakened[key] = weaken(sig, images[i - depth], 0, depth)
        return img

    return _map(sig, term, on_var)
