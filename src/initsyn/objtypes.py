"""Ground types and type translations.

Ground types are the trees freely generated by a type signature.  A type
translation gives, for every source constructor, a target type expression
in the constructor's parameters; extending it over whole trees by
structural recursion is the unique homomorphism between the two freely
generated type sets.

Ground types are hash-consed: building a type whose constructor name and
child types equal those of a live type returns that live object, so equal
types are the same object.  Equality and hashing are identity, which costs
O(1) whatever the size of the type, and a fold memoized by identity, such
as ``translate_type``, visits each distinct subtree once.  The intern
table holds its types weakly, so a type nobody else references is freed
and leaves the table.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Sequence

from .signatures import TApp, TVar, TypeExpr, TypeSignature, type_expr_errors

# (name, args) -> weak reference to the one live ObjType of that structure
_INTERNED: dict[tuple, weakref.ref] = {}


class Frozen:
    """Base of the slotted immutable values (``ObjType``, ``Var`` and
    ``Con``), whose fields are their ``__match_args__``: assignment and
    deletion raise ``FrozenInstanceError``, pickling and copying call the
    class on the fields, and the ``repr`` is the dataclass one.  Each class
    keeps its own ``__new__``, ``__eq__`` and ``__hash__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), tuple([getattr(self, f) for f in self.__match_args__]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class ObjType(Frozen):
    """A ground type: constructor name plus child types.

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
    args: tuple[ObjType, ...]

    def __new__(cls, name: str, args: tuple[ObjType, ...] = ()) -> ObjType:
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


def type_key(t: ObjType) -> tuple:
    """Sort key: lexicographic on constructor name, then children."""
    return (t.name, tuple(type_key(a) for a in t.args))


def interned(name: str, args: tuple[ObjType, ...] = ()) -> ObjType | None:
    """The live type ``ObjType(name, args)`` would return, or ``None`` when
    no such type is live; builds no type.  ``args`` must be a tuple."""
    ref = _INTERNED.get((name, args))
    return None if ref is None else ref()


def subterms(t: ObjType) -> list[ObjType]:
    """The distinct subtrees of ``t``, ``t`` itself first, each once;
    iterative, so depth costs no recursion."""
    out = [t]
    seen = {t}
    stack = [t]
    while stack:
        for a in stack.pop().args:
            if a not in seen:
                seen.add(a)
                out.append(a)
                stack.append(a)
    return out


def eval_type_expr(env: Sequence[ObjType], e: TypeExpr) -> ObjType:
    """Evaluate an open type expression: $k becomes ``env[k-1]``."""
    if type(e) is TApp:
        return ObjType(e.name, tuple([eval_type_expr(env, a) for a in e.args]))
    if type(e) is TVar:
        k = e.index
        if not 1 <= k <= len(env):
            raise ValueError(
                f"type variable ${k} out of range for environment of length {len(env)}"
            )
        return env[k - 1]
    raise TypeError(f"not a type expression: {e!r}")


def compile_type_expr(
    e: TypeExpr, degree: int
) -> tuple[ObjType | None, Callable[[Sequence[ObjType]], ObjType] | None]:
    """``e`` compiled for environments of length ``degree``.

    Returns ``(fixed, None)`` when ``e`` is closed, ``fixed`` being its
    value, and otherwise ``(None, fn)`` with ``fn(env) ==
    eval_type_expr(env, e)``; closed subexpressions are evaluated here, once.
    A variable outside ``1..degree`` compiles to a function raising the
    error ``eval_type_expr`` raises.
    """
    if type(e) is TVar and 1 <= e.index <= degree:
        k = e.index - 1
        return None, lambda env: env[k]
    if type(e) is TApp:
        parts = [compile_type_expr(a, degree) for a in e.args]
        if all(fixed is not None for fixed, _ in parts):
            return ObjType(e.name, tuple([fixed for fixed, _ in parts])), None
        name = e.name
        fns = [type_function(part) for part in parts]
        return None, lambda env: ObjType(name, tuple([f(env) for f in fns]))
    return None, lambda env: eval_type_expr(env, e)  # raises its error


def type_function(
    compiled: tuple[ObjType | None, Callable[[Sequence[ObjType]], ObjType] | None]
) -> Callable[[Sequence[ObjType]], ObjType]:
    """The function of environments that a ``compile_type_expr`` result
    stands for, constant for a closed expression."""
    fixed, fn = compiled
    return fn if fn is not None else lambda env: fixed


@dataclass(frozen=True)
class TypeTranslation:
    """Per-constructor target templates presenting a type homomorphism.

    ``templates[c]`` is a target type expression whose variables $1..$m
    stand for the translated arguments of the source constructor ``c``
    (m being the declared argument count of ``c``).
    """

    source: TypeSignature
    target: TypeSignature
    templates: dict[str, TypeExpr]

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


def translate_type(g: TypeTranslation, t: ObjType) -> ObjType:
    """Apply the homomorphism determined by ``g`` to a ground type.

    Each distinct subtree of ``t`` is translated once.
    """
    return _translate_type(g, t, {})


def _translate_type(
    g: TypeTranslation, t: ObjType, memo: dict[ObjType, ObjType]
) -> ObjType:
    """``translate_type`` memoized in ``memo``, which the caller owns and
    may share across calls with the same ``g``."""
    out = memo.get(t)
    if out is None:
        translated = tuple([_translate_type(g, a, memo) for a in t.args])
        out = memo[t] = eval_type_expr(translated, g.templates[t.name])
    return out


def subst_type_expr(e: TypeExpr, args: Sequence[TypeExpr]) -> TypeExpr:
    """Replace $k in ``e`` by ``args[k-1]``."""
    match e:
        case TVar(index=k):
            return args[k - 1]
        case TApp(name=name, args=sub):
            return TApp(name, tuple(subst_type_expr(a, args) for a in sub))
    raise TypeError(f"not a type expression: {e!r}")


def translate_type_expr(g: TypeTranslation, e: TypeExpr) -> TypeExpr:
    """Extend the type translation to open expressions.

    Variables stay themselves, so that evaluating the result at translated
    parameters agrees with translating the evaluation (the translation and
    evaluation square commutes).
    """
    match e:
        case TVar():
            return e
        case TApp(name=name, args=args):
            translated = [translate_type_expr(g, a) for a in args]
            return subst_type_expr(g.templates[name], translated)
    raise TypeError(f"not a type expression: {e!r}")


def identity_type_translation(ts: TypeSignature) -> TypeTranslation:
    templates: dict[str, TypeExpr] = {
        name: TApp(name, tuple(TVar(i + 1) for i in range(count)))
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
                layer.extend(
                    ObjType(name, combo) for combo in _tuples(pool, count)
                )
        layer = sorted(set(layer), key=type_key)
    return layer


def _tuples(pool: list[ObjType], n: int) -> list[tuple[ObjType, ...]]:
    if n == 0:
        return [()]
    shorter = _tuples(pool, n - 1)
    return [rest + (t,) for rest in shorter for t in pool]


def is_unityped(ts: TypeSignature) -> bool:
    """True when the signature generates at most one ground type."""
    nullary = sum(1 for c in ts.constructors.values() if c == 0)
    if nullary == 0:
        return True
    return nullary == 1 and len(ts.constructors) == 1
