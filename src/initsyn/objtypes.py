"""Types, type expressions and type translations.

Ground types are the trees freely generated by a type signature.  A type
expression is a tree of the same algebra over type variables $1, $2, ...
(``TVar`` leaves), so both are ``ObjType``s and a closed expression is the
ground type itself.  A type translation gives, for every source
constructor, a target type expression in the constructor's parameters;
extending it over whole trees by structural recursion is the unique
homomorphism between the two freely generated type sets.

Types are hash-consed: building a type whose constructor name and child
types equal those of a live type returns that live object, so equal types
are the same object.  Equality and hashing are identity, which costs
O(1) whatever the size of the type, and a fold memoized by identity, such
as ``translate_type``, visits each distinct subtree once.  The intern
table holds its types weakly, so a type nobody else references is freed
and leaves the table.
"""

from __future__ import annotations

import weakref
from functools import partial
from itertools import product
from operator import itemgetter
from types import FunctionType
from _weakref import _remove_dead_weakref
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from .signatures import TypeSignature

# (name, args) -> weak reference to the one live ObjType of that structure
_INTERNED: dict[tuple, weakref.ref] = {}


class Frozen:
    """Base of every immutable value class.  A class's fields are its
    ``__match_args__``, each in a slot of that name; the class declares
    them, the defaults of trailing fields in ``_defaults`` and any work at
    construction in ``__post_init__``.  Its other slots are derived caches.
    From the fields come ``==`` (same class, equal fields), ``hash`` (of
    the field tuple), ``repr``, pickling and copying (which call the class
    on the fields) and immutability (``FrozenInstanceError``).  A class
    without its own ``__new__`` gets an ``__init__`` that takes the fields
    by position or name, sets their slots through the slot descriptors and
    calls ``__post_init__``, if any.  Those descriptor calls make up about
    half the cost of building a small object, so ``terms.Con``, built once
    per rebuilt term node, takes its slots from a plain base class, and
    the library builds its nodes with ``terms._con``, which fills that
    base and then sets the class; calling ``Con`` keeps this contract."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "__new__" in cls.__dict__:
            return
        fields, defaults = cls.__match_args__, cls.__dict__.get("_defaults", {})
        env = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
        env["_defaults"] = defaults
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
        body = "".join(f"    _set_{f}(self, {f})\n" for f in fields)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        exec(f"def __init__(self, {params}):\n{body}{post}", env)
        env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = env["__init__"]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        _frozen(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def _frozen(message: str):
    from dataclasses import FrozenInstanceError  # a slow import, so only here

    raise FrozenInstanceError(message)


class TVar(Frozen):
    """The k-th type parameter, written $k; indices are 1-based.  ``==`` and
    ``hash`` are written out for speed: interning hashes and compares leaves."""

    __slots__ = __match_args__ = ("index",)
    index: int

    def __eq__(self, other):
        if other.__class__ is not TVar:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return hash((self.index,))

    def __str__(self) -> str:
        return f"${self.index}"

    _str = property(__str__)  # the rendering ObjType.__str__ reads off a child


class ObjType(Frozen):
    """A type: constructor name plus child types, each an ``ObjType`` or a
    ``TVar``.  It is a type expression, and a ground type when closed.

    Hash-consed and immutable: ``ObjType(name, args)`` returns the one live
    object with that constructor name and those (already interned)
    children, so ``==`` and ``hash`` are identity.  The rendered string is
    computed once per object and cached.  The intern table is a dict of
    weak references whose callbacks remove an entry only while it still
    holds a dead reference, and entries are inserted with ``setdefault``;
    both are single atomic dict operations, so types may be built and
    shared across threads.  Pickling and copying go through ``__new__``
    (see ``Frozen``), so they return the interned object.
    """

    __slots__ = ("name", "args", "_str", "__weakref__")
    __match_args__ = ("name", "args")

    name: str
    args: tuple[TypeExpr, ...]

    # identity, and the C-level hash that every dict and set lookup of a type runs
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, name: str, args: tuple[TypeExpr, ...] = ()) -> ObjType:
        if type(args) is not tuple:
            args = tuple(args)
        key = (name, args)
        ref = _INTERNED.get(key)
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj
        obj = object.__new__(cls)
        _set_name(obj, name)
        _set_args(obj, args)
        _set_str(obj, None if args else name)
        ref = weakref.ref(obj, lambda _, key=key: _remove_dead_weakref(_INTERNED, key))
        while True:
            held = _INTERNED.setdefault(key, ref)
            if held is ref:
                return obj
            other = held()
            if other is not None:
                return other  # another thread interned it first
            _remove_dead_weakref(_INTERNED, key)  # its callback is still pending

    def __str__(self) -> str:
        if self._str is not None:
            return self._str
        # post-order over the children not rendered yet, so that depth
        # costs no recursion
        stack = [self]
        while stack:
            t = stack[-1]
            pending = [a for a in t.args if a._str is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if t._str is None:
                _set_str(t, f"{t.name}({','.join([a._str for a in t.args])})")
        return self._str


_set_name = ObjType.name.__set__
_set_args = ObjType.args.__set__
_set_str = ObjType._str.__set__

TypeExpr = TVar | ObjType


def constructor_error(types: Mapping[str, int], name: str, count: int) -> str | None:
    """Why ``types`` (name to argument count) has no constructor ``name`` of
    ``count`` arguments, or ``None`` when it has."""
    declared = types.get(name)
    if declared is None:
        return f"unknown type constructor '{name}'"
    if declared != count:
        return f"{name} expects {declared} argument{'s' if declared != 1 else ''}, got {count}"
    return None


def type_expr_errors(
    types: Mapping[str, int], e: TypeExpr, degree: int
) -> Iterator[str]:
    """Yield, in pre-order, each way in which ``e`` is not a type expression
    of degree ``degree`` over the constructors (name to argument count) in
    ``types``: a ground type when ``degree`` is 0.  Every well-formedness
    check of a built type expression is this one; the parser checks ground
    types as it reads them, with ``constructor_error`` too."""
    stack = [e]
    while stack:
        e = stack.pop()
        if type(e) is TVar:
            if e.index < 1:
                yield f"variable index {e.index} is not positive"
            elif e.index > degree:
                yield f"variable {e.index} exceeds degree {degree}"
        elif type(e) is ObjType:
            error = constructor_error(types, e.name, len(e.args))
            if error is not None:
                yield error
            stack.extend(reversed(e.args))
        else:
            yield f"not a type expression: {e!r}"


def type_key(t: ObjType) -> tuple:
    """Sort key: lexicographic on constructor name, then children."""
    return (t.name, tuple(type_key(a) for a in t.args))


def interned(name: str, args: tuple[ObjType, ...] = ()) -> ObjType | None:
    """The live type ``ObjType(name, args)`` would return, or ``None`` when
    no such type is live; builds no type.  ``args`` must be a tuple."""
    ref = _INTERNED.get((name, args))
    return None if ref is None else ref()


def subterms(t: ObjType) -> list[ObjType]:
    """The distinct subtrees of ``t``, ``t`` itself first, each once: the
    keys of ``_fold``'s table, latest first, so depth costs no recursion."""
    done: dict = {}
    _fold(t, lambda v: None, lambda u, args: None, done)
    return list(reversed(done))


def eval_type_expr(env: Sequence[ObjType], e: TypeExpr) -> ObjType:
    """Evaluate an open type expression: $k becomes ``env[k-1]``.  The
    environment may itself hold type expressions (substitution)."""
    if type(e) is TVar and 1 <= e.index <= len(env):
        return env[e.index - 1]
    if type(e) is ObjType and not e.args:
        return e

    def leaf(v: TVar) -> ObjType:
        if not 1 <= v.index <= len(env):
            raise ValueError(
                f"type variable ${v.index} out of range for environment of length {len(env)}"
            )
        return env[v.index - 1]

    return _fold(e, leaf, lambda t, args: ObjType(t.name, tuple(args)), {})


def _fold(e: TypeExpr, leaf: Callable, node: Callable, done: dict):
    """``e``'s value, ``leaf(v)`` at a variable and ``node(t, children's
    values)`` at a compound ``t``, found once per distinct subexpression not
    in ``done``, left to right, on an explicit stack: depth costs no recursion."""
    stack: list = [e]
    while stack:
        t = stack.pop()
        if t is _BUILD:  # the node below it has its children valued
            t = stack.pop()
            done[t] = node(t, [done[a] for a in t.args])
        elif type(t) is ObjType:
            if t not in done:
                stack += (t, _BUILD, *reversed(t.args))
        elif type(t) is TVar:
            done[t] = leaf(t)
        else:
            raise TypeError(f"not a type expression: {t!r}")
    return done[e]


_BUILD = object()


def compile_type_expr(e, degree: int) -> tuple:
    """``e``, a type expression or a tuple nesting them, compiled for
    environments of length ``degree``: ``(e, None)`` when closed, and else
    ``(None, fn)``, ``fn(env)`` being ``e`` with each expression evaluated
    at ``env``.  ``$k`` compiles to an index, ``C($1,...,$n)`` (n =
    ``degree``) to ``ObjType(C, env)`` and anything else to one generated
    function (``_lazy``): a statement per compound with a variable below
    it, a constant per closed one, names and constants in its namespace.
    ``eval_type_expr`` evaluates, and so raises its error for, an
    expression with a variable outside ``1..degree`` or a non-type leaf."""
    if type(e) is TVar and 1 <= e.index <= degree:
        return None, itemgetter(e.index - 1)
    if e == () or type(e) is ObjType and not e.args:  # a constant
        return e, None
    params = tuple([TVar(k) for k in range(1, degree + 1)])
    if type(e) is ObjType and e.args and e.args == params:
        return None, partial(ObjType, e.name)
    ns: dict = {"_O": ObjType, "_eval": eval_type_expr}
    lines: list[str] = []
    done: dict = {}  # an expression compiled -> (its source, its value or None)

    def const(value) -> str:
        ns[f"c{id(value)}"] = value
        return f"c{id(value)}"

    def temp(source: str) -> tuple[str, None]:  # a statement that names its value
        lines.append(f"    t{len(lines)} = {source}\n")
        return f"t{len(lines) - 1}", None

    def leaf(v: TVar) -> tuple[str, None]:
        if not 1 <= v.index <= degree:
            raise ValueError(v)
        return f"env[{v.index - 1}]", None

    def node(t: ObjType, parts: list) -> tuple:
        if all(value is not None for _, value in parts):
            return const(t), t
        args = "env" if t.args == params else "(" + "".join([s + ", " for s, _ in parts]) + ")"
        return temp(f"_O({const(t.name)}, {args})")

    def emit(x) -> tuple:
        if type(x) is tuple:
            parts = [emit(a) for a in x]
            if all(value is not None for _, value in parts):
                value = tuple([value for _, value in parts])
                return const(value), value
            return "(" + "".join([s + ", " for s, _ in parts]) + ")", None
        try:
            return _fold(x, leaf, node, done)
        except (TypeError, ValueError):
            return temp(f"_eval(env, {const(x)})")

    source, value = emit(e)
    if value is not None:
        return value, None
    return None, _lazy(f"def type_expr(env):\n{''.join(lines)}    return {source}\n", ns)


def _lazy(source: str, ns: dict) -> Callable:
    """The function ``type_expr`` that ``source`` defines in ``ns``.  It
    starts as a stub that, on the first call, compiles ``source`` and takes
    the compiled code as its own, so that later calls cost no extra frame."""
    fn = FunctionType(_stub.__code__, ns, "type_expr")
    ns.update(_source=source, _self=weakref.ref(fn))
    return fn


def _stub(env):
    # a ``_lazy`` function's code until its first call; ``_source`` and
    # ``_self`` are names in that function's namespace
    fn, local = _self(), {}
    exec(_source, fn.__globals__, local)
    fn.__code__ = local["type_expr"].__code__
    return fn(env)


def type_function(
    compiled: tuple[ObjType | None, Callable[[Sequence[ObjType]], ObjType] | None]
) -> Callable[[Sequence[ObjType]], ObjType]:
    """The function of environments that a ``compile_type_expr`` result
    stands for, constant for a closed expression."""
    fixed, fn = compiled
    return fn if fn is not None else lambda env: fixed


class TypeTranslation(Frozen):
    """Per-constructor target templates presenting a type homomorphism.

    ``templates[c]`` is a target type expression whose variables $1..$m
    stand for the translated arguments of the source constructor ``c``
    (m being the declared argument count of ``c``).  ``_functions`` holds
    the templates compiled on first use, by name and argument count.
    """

    __match_args__ = ("source", "target", "templates")
    __slots__ = __match_args__ + ("_functions",)
    source: TypeSignature
    target: TypeSignature
    templates: dict[str, TypeExpr]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_functions", {})

    def check(self) -> list[str]:
        """Problems with the template table, if any: a source constructor
        without a template, a template for a name the source lacks, and
        each template that is not a target type expression whose degree
        is its constructor's argument count."""
        out = []
        for name, count in self.source.constructors.items():
            tpl = self.templates.get(name)
            if tpl is None:
                out.append(f"no type template for '{name}'")
                continue
            out.extend(
                f"type template for '{name}': {msg}"
                for msg in type_expr_errors(self.target.constructors, tpl, count)
            )
        for name in self.templates:
            if name not in self.source.constructors:
                out.append(f"type template for unknown constructor '{name}'")
        return out


def translate_type(g: TypeTranslation, t: TypeExpr) -> TypeExpr:
    """Apply the homomorphism determined by ``g`` to a type.

    Each distinct subtree of ``t`` is translated once.  Variables of an
    open expression stay themselves, so that evaluating the result at
    translated parameters agrees with translating the evaluation (the
    translation and evaluation square commutes).
    """
    return _translate_type(g, t, {})


def _translate_type(
    g: TypeTranslation, t: TypeExpr, memo: dict[ObjType, TypeExpr]
) -> TypeExpr:
    """``translate_type`` memoized in ``memo``, which the caller owns and
    may share across calls with the same ``g``; a miss runs ``_fold``."""
    if type(t) is TVar:
        return t
    out = memo.get(t)
    if out is not None:
        return out
    functions = g._functions

    def node(u: ObjType, args: list) -> ObjType:
        key = u.name, len(args)
        fn = functions.get(key)
        if fn is None:
            fn = functions[key] = type_function(compile_type_expr(g.templates[u.name], key[1]))
        return fn(tuple(args))

    return _fold(t, lambda v: v, node, memo)


def identity_type_translation(ts: TypeSignature) -> TypeTranslation:
    templates: dict[str, TypeExpr] = {
        name: ObjType(name, tuple(TVar(i + 1) for i in range(count)))
        for name, count in ts.constructors.items()
    }
    return TypeTranslation(ts, ts, templates)


def ground_types(ts: TypeSignature, max_depth: int = 2) -> list[ObjType]:
    """All ground types of height up to ``max_depth``, sorted canonically.

    Used as an instantiation pool by generators and by the translation
    validator's unityped-target test; the full set is infinite as soon as
    a constructor of positive arity exists.
    """
    layer: list[ObjType] = []
    for _ in range(max_depth):
        pool = list(layer)
        layer = []
        for name, count in ts.constructors.items():
            if count == 0:
                layer.append(ObjType(name))
            else:
                layer.extend(ObjType(name, combo) for combo in product(pool, repeat=count))
        layer = sorted(set(layer), key=type_key)
    return layer


def is_unityped(ts: TypeSignature) -> bool:
    """True when the signature generates at most one ground type."""
    nullary = sum(1 for c in ts.constructors.values() if c == 0)
    if nullary == 0:
        return True
    return nullary == 1 and len(ts.constructors) == 1
