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
The traversal and ``infer`` cost one Python frame per node with
arguments and none per leaf: a variable argument is handled in its
parent's frame, and so, in the traversal, is an argument-free constant;
nodes of one and two arguments, nearly all of them, need no loop.  A
variable that weakening or renaming moves to an index below
``VAR_TABLE_SIZE`` is taken from one shared table, not built anew.
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

Terms are trees: a node is immutable and is built after its arguments, so
no term can be part of a reference cycle, and a kernel call leaves no
cyclic garbage.  The cyclic collector finds nothing in what the kernel
allocates, yet scans all of it, and the whole live heap at each full
collection.  So ``paused_gc`` pauses automatic collection while a public
entry point that builds or walks terms runs (``infer``, ``weaken``,
``rename`` and ``substitute`` here; ``translate_term``, ``parse_term``,
``gen_term``, each law-check case and ``cli.main``) and restores it when
the call returns or raises.  The pause is process-wide while a call
runs, in every thread, as ``gc.disable`` is.  Cycles that user callbacks
make during a call (``rename``'s ``f``, an ``OpaqueRepresentation``
operation, an agreement oracle) are collected afterwards, by the first
collection after the outermost paused call; law checks pause per case.
"""

from __future__ import annotations

import functools
import gc
from typing import Callable, Sequence

from .objtypes import (
    Frozen, ObjType, TypeExpr, compile_type_expr, eval_type_expr, type_function
)
from .signatures import TermArity, TypedSignature

Context = tuple[ObjType, ...]


def paused_gc(fn: Callable) -> Callable:
    """``fn`` with automatic cyclic garbage collection paused while it runs:
    switched off if it was on, and on again when the call returns or
    raises.  A nested call, or a caller that disabled collection itself,
    leaves it off.  The switch is process-wide, so calls running in several
    threads at once can end each other's pause early.  The wrapper costs
    one frame per call, not one per level of the term."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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

    Immutable and compared by value, as every ``objtypes.Frozen`` is; its
    ``==`` and ``hash`` are written out for speed, and the rest of the
    value protocol, the slot-setting ``__init__`` included, comes from
    ``Frozen``.
    """

    __slots__ = ("index",)
    __match_args__ = ("index",)

    index: int

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return hash((self.index,))

    def __str__(self) -> str:
        return f"#{self.index}"


class _ConFields:
    """``Con``'s four slots on a class that lets them be assigned, the
    layout ``_con`` fills before it moves the object to ``Con``."""

    __slots__ = ("name", "lit", "inst", "args")


class Con(_ConFields, Frozen):
    """An occurrence of arity ``name`` with its family literal (or None),
    the ground types instantiating its type parameters and its arguments.
    A translation template is a ``Con`` tree too, whose instantiations are
    type expressions (see ``translate``).

    Immutable and compared by value, like ``Var``: ``==`` compares the four
    fields and ``hash`` is that of their tuple, written out for speed.
    Calling ``Con`` takes the fields by position or name, as calling
    every ``Frozen`` class does; its ``__init__`` sets each slot through a
    descriptor call, which makes it take about twice as long as ``_con``
    on CPython 3.11.  So the library builds its nodes with ``_con``,
    which stores the fields into a ``_ConFields`` as plain attributes and
    then sets the object's class to ``Con``.  ``Con`` adds no slot to
    ``_ConFields``, so the two layouts are one and the result is a
    ``Con`` in every respect: its type, ``==``, ``hash``, ``repr``,
    ``match``, pickling, copying and ``FrozenInstanceError`` on
    assignment are those of a node built by calling ``Con``.
    """

    __slots__ = ()
    __match_args__ = ("name", "lit", "inst", "args")

    name: str
    lit: int | None
    inst: tuple[ObjType, ...]
    args: tuple[Term, ...]

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
        """The canonical text, which the term parser reads back.  A first
        pass finds, by identity, the nodes with arguments reached more than
        once; the text of each is built once and then appended at every
        later occurrence.  Both passes keep an explicit stack, so that depth
        costs no recursion, and the pieces are joined once at the end."""
        shared: dict[int, str | None] = {}  # id -> its text, once rendered
        seen: set[int] = set()
        stack: list = [self]
        while stack:
            for a in stack.pop().args:
                if type(a) is Con and a.args:
                    if id(a) in seen:
                        shared[id(a)] = None
                    else:
                        seen.add(id(a))
                        stack.append(a)
        insts: dict[tuple, str] = {}  # an instantiation -> its text
        out: list[str] = []
        opened: list[tuple[int, int]] = []  # open shared nodes: id, first piece
        stack.append(self)
        while stack:
            t = stack.pop()
            if type(t) is not Con:
                if t is _SHARED_END:
                    k, start = opened.pop()
                    out.append(")")
                    text = shared[k] = "".join(out[start:])
                    out[start:] = [text]
                    continue
                out.append(t if type(t) is str else str(t))
                continue
            text = shared.get(id(t), False) if shared else False
            if text:
                out.append(text)
                continue
            if text is None:
                opened.append((id(t), len(out)))
            stack.append(_SHARED_END if text is None else ")")
            out.append("(")
            out.append(t.name if t.lit is None else f"{t.name}{{{t.lit}}}")
            if t.inst:
                shown = insts.get(t.inst)
                if shown is None:
                    shown = insts[t.inst] = " [" + ", ".join([str(ty) for ty in t.inst]) + "]"
                out.append(shown)
            for a in reversed(t.args):
                stack.append(a)
                stack.append(" ")
        return "".join(out)


_new = object.__new__


def _con(name: str, lit: int | None, inst: tuple, args: tuple) -> Con:
    """The ``Con`` node of these fields, built without ``Con.__init__``
    (see ``Con``); every node the library builds comes from here."""
    node = _new(_ConFields)
    node.name = name
    node.lit = lit
    node.inst = inst
    node.args = args
    node.__class__ = Con
    return node


_SHARED_END = object()  # on the printer's stack: a shared node's text ends

Term = Var | Con


def context_extend(
    ctx: Context, inst: Sequence[ObjType], binders: Sequence
) -> Context:
    """Prepend the evaluated binder types; the first binder is innermost."""
    return tuple(eval_type_expr(inst, b) for b in binders) + tuple(ctx)


@paused_gc
def infer(
    sig: TypedSignature,
    ctx: Context,
    term: Term,
    *,
    closed: dict[int, tuple[Term, ObjType]] | None = None,
) -> ObjType:
    """The unique type of ``term`` in ``ctx``, or a TypeCheckError.

    Each distinct (arity, instantiation) pair is checked against its arity
    once per call, and its binder, argument and result types evaluated
    then, in a table that lives for the call; a later node of the same
    pair checks only its family literal and its argument count.  Each node
    with arguments costs one Python frame, and a variable argument none;
    nodes of one and two arguments, the common ones, check them without a
    loop.  The error path is assembled only while an error propagates.

    ``closed`` maps ``id(t)`` to ``(t, ty)`` for closed terms ``t`` that
    ``infer`` typed ``ty`` in ``sig`` and the empty context, and so in any
    context: an argument that *is* such a ``t`` takes ``ty`` without a
    walk.  A structurally equal copy is walked.
    """
    return _infer(sig, tuple(ctx), term, {}, closed)


def _infer(
    sig: TypedSignature,
    ctx: Context,
    term: Term,
    shapes: dict[tuple, tuple],
    closed: dict[int, tuple[Term, ObjType]] | None,
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
    n = len(args)
    if n == 0:
        return shape[4]
    binders, expected = shape[2], shape[3]
    if n <= 2:  # the loop below, written out for its first two arguments
        arg, inner = args[0], binders[0] + ctx  # () + ctx is ctx itself
        if type(arg) is Var:
            i = arg.index
            if not 0 <= i < len(inner):
                raise TypeCheckError(f"unbound index {i}", (0,))
            actual = inner[i]
        elif closed is not None and (hit := closed.get(id(arg))) is not None and hit[0] is arg:
            actual = hit[1]  # a closed piece typed once (see ``infer``)
        else:
            try:
                actual = _infer(sig, inner, arg, shapes, closed)
            except TypeCheckError as exc:
                exc.path = (0,) + exc.path
                raise
        if actual is not expected[0]:
            raise TypeCheckError(f"expected {expected[0]}, found {actual}", (0,))
        if n == 1:
            return shape[4]
        arg, inner = args[1], binders[1] + ctx
        if type(arg) is Var:
            i = arg.index
            if not 0 <= i < len(inner):
                raise TypeCheckError(f"unbound index {i}", (1,))
            actual = inner[i]
        elif closed is not None and (hit := closed.get(id(arg))) is not None and hit[0] is arg:
            actual = hit[1]  # a closed piece typed once (see ``infer``)
        else:
            try:
                actual = _infer(sig, inner, arg, shapes, closed)
            except TypeCheckError as exc:
                exc.path = (1,) + exc.path
                raise
        if actual is not expected[1]:
            raise TypeCheckError(f"expected {expected[1]}, found {actual}", (1,))
        return shape[4]
    for j, arg in enumerate(args):
        inner = binders[j] + ctx  # () + ctx is ctx itself
        if type(arg) is Var:
            i = arg.index
            if not 0 <= i < len(inner):
                raise TypeCheckError(f"unbound index {i}", (j,))
            actual = inner[i]
        elif closed is not None and (hit := closed.get(id(arg))) is not None and hit[0] is arg:
            actual = hit[1]  # a closed piece typed once (see ``infer``)
        else:
            try:
                actual = _infer(sig, inner, arg, shapes, closed)
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
    result type at the node's instantiation, from ``_arity_types``
    compiled once per arity and signature.  A node whose (name,
    instantiation) is in the table already reaches here only to raise."""
    name, inst = term.name, term.inst
    error = sig.node_error(name, term.lit, len(inst), len(term.args))
    if error is not None:
        raise TypeCheckError(error)
    compiled = sig._shapes.get(name)
    if compiled is None:
        ar = sig.arity(name)
        types = type_function(compile_type_expr(_arity_types(ar, lambda e: e), ar.degree))
        compiled = sig._shapes[name] = (bool(ar.family_index), len(ar.args)), types
    shape = shapes[name, inst] = compiled[0] + compiled[1](inst)
    return shape


def _arity_types(ar: TermArity, image: Callable[[TypeExpr], ObjType]) -> tuple:
    """``ar``'s binder types for each argument, its argument types and its
    result type, each type expression mapped by ``image``.  Typing is this
    with ``image`` evaluating at the instantiation; a type translation
    carries an arity along by translating first."""
    return (
        tuple([tuple(map(image, spec.binders)) for spec in ar.args]),
        tuple([image(spec.body) for spec in ar.args]),
        image(ar.result),
    )


def check(sig: TypedSignature, ctx: Context, term: Term, ty: ObjType) -> None:
    """Raise TypeCheckError unless ``term`` has type ``ty`` in ``ctx``."""
    actual = infer(sig, ctx, term)
    if actual != ty:
        raise TypeCheckError(f"expected {ty}, found {actual}")


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
    level costs one Python frame, and a leaf argument none: a variable goes
    straight to ``on_var``, and an argument-free constant of an arity with
    no arguments (``binders.get(name, 1)`` is ``()``; an unknown name
    gives 1) is its own result.  Any other argument goes to ``go``, which
    checks the arity name and argument count only (``infer``'s message); a
    wrong family literal or number of type parameters passes.  Nodes of
    one and two arguments, the common ones, are rebuilt without a loop."""
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
            if type(a) is Var:
                b = on_var(a, d)
            elif type(a) is Con and not a.args and not binders.get(a.name, 1):
                return t  # its only argument is a constant
            else:
                b = go(a, d)
            return t if b is a else _con(t.name, t.lit, t.inst, (b,))
        if n == 2:
            a0, a1 = args
            if type(a0) is Var:
                b0 = on_var(a0, depth + counts[0])
            elif type(a0) is Con and not a0.args and not binders.get(a0.name, 1):
                b0 = a0
            else:
                b0 = go(a0, depth + counts[0])
            if type(a1) is Var:
                b1 = on_var(a1, depth + counts[1])
            elif type(a1) is Con and not a1.args and not binders.get(a1.name, 1):
                b1 = a1
            else:
                b1 = go(a1, depth + counts[1])
            if b0 is a0 and b1 is a1:
                return t
            return _con(t.name, t.lit, t.inst, (b0, b1))
        new = []
        for a, k in zip(args, counts):
            if type(a) is Var:
                a = on_var(a, depth + k)
            elif type(a) is not Con or a.args or binders.get(a.name, 1):
                a = go(a, depth + k)
            new.append(a)
        if all(b is a for a, b in zip(args, new)):
            return t
        return _con(t.name, t.lit, t.inst, tuple(new))

    try:
        return on_var(term, 0) if type(term) is Var else go(term, 0)
    finally:
        del go  # it refers to itself: the cycle would hold on_var's tables


VAR_TABLE_SIZE = 512  # a variable of a smaller index comes from one table
_var_table: tuple[Var, ...] = ()


def var_table() -> tuple[Var, ...]:
    """``Var(i)`` for each ``0 <= i < VAR_TABLE_SIZE``, one object per
    index, built on first use.  The kernel and the term generator take the
    variables they make from here, as ``table[i] if 0 <= i <
    VAR_TABLE_SIZE else Var(i)``: a lookup costs a fifth of a new ``Var``.
    ``Var(i)`` still makes a new object."""
    global _var_table
    if not _var_table:
        _var_table = tuple(map(Var, range(VAR_TABLE_SIZE)))
    return _var_table


@paused_gc
def weaken(sig: TypedSignature, term: Term, cutoff: int, amount: int) -> Term:
    """Shift free indices >= ``cutoff`` up by ``amount``.

    Turns a term over A ++ B into one over A ++ C ++ B when len(A) is the
    cutoff and len(C) the amount; bound and low indices are untouched.
    A negative cutoff or amount is a ValueError.
    """
    if cutoff < 0:
        raise ValueError(f"weaken: negative cutoff {cutoff}")
    if amount < 0:
        raise ValueError(f"weaken: negative amount {amount}")
    if amount == 0:
        return term
    table = var_table()

    def on_var(v: Var, d: int) -> Var:
        i = v.index
        if i < d + cutoff:
            return v
        i += amount
        return table[i] if 0 <= i < VAR_TABLE_SIZE else Var(i)

    return _map(sig, term, on_var)


@paused_gc
def rename(sig: TypedSignature, term: Term, f: Callable[[int], int]) -> Term:
    """Relabel free variables; under b binders, index i maps through
    ``i if i < b else f(i - b) + b``.  A free variable that ``f`` maps
    below 0 is a TypeCheckError."""
    table = var_table()

    def on_var(v: Var, d: int) -> Var:
        i = v.index
        if i < d:
            return v
        j = f(i - d)
        if j < 0:
            raise TypeCheckError(f"renaming maps free index {i - d} to {j}")
        j += d
        if j == i:
            return v
        return table[j] if 0 <= j < VAR_TABLE_SIZE else Var(j)

    return _map(sig, term, on_var)


class Substitution(Frozen):
    """A map from a domain context into terms over a codomain context."""

    __slots__ = __match_args__ = ("domain", "codomain", "images")
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


@paused_gc
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
