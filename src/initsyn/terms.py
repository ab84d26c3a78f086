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
Results share every subterm an operation leaves unchanged: a variable
that keeps its index, an argument-free constant and a node whose
arguments all come back as the same objects are returned as they are, so
only the path from each changed variable to the root is rebuilt.
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

from .objtypes import Frozen, ObjType, eval_type_expr
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


class Var(Frozen):
    """The variable at context position ``index``.

    Immutable and compared by value, as a frozen dataclass is: ``==`` and
    ``hash`` see the index; the rest of the frozen-value protocol comes
    from ``objtypes.Frozen``.
    """

    __slots__ = ("index",)
    __match_args__ = ("index",)

    index: int

    def __new__(cls, index: int) -> Var:
        obj = _new(cls)
        _set_index(obj, index)
        return obj

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return hash((self.index,))

    def __str__(self) -> str:
        return f"#{self.index}"


class Con(Frozen):
    """An occurrence of arity ``name`` with its family literal (or None),
    the ground types instantiating its type parameters and its arguments.

    Immutable and compared by value, like ``Var``: ``==`` compares the four
    fields and ``hash`` is that of their tuple.  ``__new__`` sets the slots
    through their descriptors, which costs about half of a frozen
    dataclass ``__init__``; every rebuilt node pays it.
    """

    __slots__ = ("name", "lit", "inst", "args")
    __match_args__ = ("name", "lit", "inst", "args")

    name: str
    lit: int | None
    inst: tuple[ObjType, ...]
    args: tuple[Term, ...]

    def __new__(
        cls,
        name: str,
        lit: int | None,
        inst: tuple[ObjType, ...],
        args: tuple[Term, ...],
    ) -> Con:
        obj = _new(cls)
        _set_name(obj, name)
        _set_lit(obj, lit)
        _set_inst(obj, inst)
        _set_args(obj, args)
        return obj

    def __eq__(self, other):
        if other.__class__ is not Con:
            return NotImplemented
        return (self.name, self.lit, self.inst, self.args) == (
            other.name,
            other.lit,
            other.inst,
            other.args,
        )

    def __hash__(self) -> int:
        return hash((self.name, self.lit, self.inst, self.args))

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


_new = object.__new__
_set_index = Var.index.__set__
_set_name = Con.name.__set__
_set_lit = Con.lit.__set__
_set_inst = Con.inst.__set__
_set_args = Con.args.__set__

Term = Var | Con


def context_extend(
    ctx: Context, inst: Sequence[ObjType], binders: Sequence
) -> Context:
    """Prepend the evaluated binder types; the first binder is innermost."""
    return tuple(eval_type_expr(inst, b) for b in binders) + tuple(ctx)


def infer(sig: TypedSignature, ctx: Context, term: Term) -> ObjType:
    """The unique type of ``term`` in ``ctx``, or a TypeCheckError.

    Each distinct (arity, instantiation) pair is checked against its arity
    once per call, and its binder, argument and result types evaluated
    then, in a table that lives for the call; a later node of the same
    pair checks only its family literal and its argument count.  The error
    path is assembled only while an error propagates.
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
    args = term.args
    shape = shapes.get((term.name, term.inst))
    if shape is None or (term.lit is None) is shape[0] or len(args) != shape[1]:
        shape = _shape(sig, term, shapes)
    binders, expected = shape[2], shape[3]
    for j, arg in enumerate(args):
        inner = binders[j] + ctx  # () + ctx is ctx itself
        if type(arg) is Var:
            i = arg.index
            if not 0 <= i < len(inner):
                raise TypeCheckError(f"unbound index {i}", (j,))
            actual = inner[i]
        else:
            try:
                actual = _infer(sig, inner, arg, shapes)
            except TypeCheckError as exc:
                exc.path = (j,) + exc.path
                raise
        if actual is not expected[j]:
            raise TypeCheckError(f"expected {expected[j]}, found {actual}", (j,))
    return shape[4]


def _shape(sig: TypedSignature, term: Con, shapes: dict[tuple, tuple]) -> tuple:
    """Check ``term``'s node (``TypedSignature.node_error``), then enter
    and return its shape in ``shapes``: whether the arity takes a family
    literal, its argument count, and the binder types, argument types and
    result type at the node's instantiation.  A node whose (name, instantiation) is in
    the table already reaches here only to raise."""
    name, inst = term.name, term.inst
    error = sig.node_error(name, term.lit, len(inst), len(term.args))
    if error is not None:
        raise TypeCheckError(error)
    ar = sig.arity(name)
    shape = shapes[name, inst] = (
        bool(ar.family_index),
        len(ar.args),
        tuple(
            tuple(eval_type_expr(inst, b) for b in spec.binders)
            for spec in ar.args
        ),
        tuple(eval_type_expr(inst, spec.body) for spec in ar.args),
        eval_type_expr(inst, ar.result),
    )
    return shape


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
    where ``d`` is the number of binders above ``v``.  A node whose
    arguments all come back as the same objects is returned itself, so the
    result shares every subterm that ``on_var`` leaves unchanged.  Each
    level costs one Python frame, and a variable argument none."""
    binders = sig.binder_counts

    def go(t: Con, depth: int) -> Term:
        if type(t) is not Con:
            raise TypeCheckError(f"not a term: {t!r}")
        counts = binders.get(t.name)
        args = t.args
        n = len(args)
        if counts is None or n != len(counts):
            raise TypeCheckError(sig.node_error(t.name, t.lit, len(t.inst), n))
        if n == 0:
            return t
        if n == 1:
            a, d = args[0], depth + counts[0]
            b = on_var(a, d) if type(a) is Var else go(a, d)
            return t if b is a else Con(t.name, t.lit, t.inst, (b,))
        if n == 2:
            a0, a1 = args
            d0, d1 = depth + counts[0], depth + counts[1]
            b0 = on_var(a0, d0) if type(a0) is Var else go(a0, d0)
            b1 = on_var(a1, d1) if type(a1) is Var else go(a1, d1)
            if b0 is a0 and b1 is a1:
                return t
            return Con(t.name, t.lit, t.inst, (b0, b1))
        new = []
        for a, k in zip(args, counts):
            d = depth + k
            new.append(on_var(a, d) if type(a) is Var else go(a, d))
        if all(b is a for a, b in zip(args, new)):
            return t
        return Con(t.name, t.lit, t.inst, tuple(new))

    return on_var(term, 0) if type(term) is Var else go(term, 0)


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

    def on_var(v: Var, d: int) -> Var:
        if v.index < d:
            return v
        i = f(v.index - d) + d
        return v if i == v.index else Var(i)

    return _map(sig, term, on_var)


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
