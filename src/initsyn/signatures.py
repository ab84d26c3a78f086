"""Typed signatures: type constructors, type expressions, and term arities.

A language is declared as a typed signature: a set of type constructors
(each with an argument count) plus a set of term constructors ("arities").
An arity of degree n abstracts over n type parameters, written $1..$n in
type expressions; each argument of an arity carries a binder list (the
types of the variables the constructor binds in that argument) and a body
type; the arity also declares a result type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping


# ---------------------------------------------------------------------------
# Type expressions


@dataclass(frozen=True, slots=True)
class TVar:
    """The k-th type parameter, written $k.  Indices are 1-based."""

    index: int

    def __str__(self) -> str:
        return f"${self.index}"


@dataclass(frozen=True, slots=True)
class TApp:
    """A type constructor applied to argument expressions."""

    name: str
    args: tuple["TypeExpr", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


TypeExpr = TVar | TApp


def min_degree(e: TypeExpr) -> int:
    """Largest $k occurring in ``e``; 0 for a closed expression."""
    match e:
        case TVar(index=k):
            return k
        case TApp(args=args):
            return max((min_degree(a) for a in args), default=0)
    raise TypeError(f"not a type expression: {e!r}")


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class TypeSignature:
    """Named family of type constructors with their argument counts."""

    name: str
    constructors: dict[str, int]

    def arity_of(self, name: str) -> int | None:
        return self.constructors.get(name)


@dataclass(frozen=True, slots=True)
class ArgSpec:
    """One argument of a term arity: binder types, then the body type."""

    binders: tuple[TypeExpr, ...]
    body: TypeExpr


@dataclass(frozen=True, slots=True)
class TermArity:
    """A term constructor shape.

    ``degree`` is the number of type parameters; ``family_index`` marks an
    arity standing for a whole family indexed by a natural literal (one
    concrete constructor per literal, all sharing this shape).  An empty
    ``args`` tuple is a constant.
    """

    name: str
    degree: int
    args: tuple[ArgSpec, ...]
    result: TypeExpr
    family_index: bool = False


@dataclass(frozen=True)
class TypedSignature:
    """A type signature plus term arities over it.

    ``atoms`` is sugar: each atom name contributes one extra nullary type
    constructor (kept separate from ``types`` so signature files print the
    way they were written).  ``binder_counts`` maps each arity name to the
    number of binders of each of its arguments, which is all a traversal
    that only moves variables needs to know.
    """

    types: TypeSignature
    terms: tuple[TermArity, ...]
    atoms: tuple[str, ...] = ()
    _arities: dict[str, TermArity] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    binder_counts: dict[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _all_types: "TypeSignature | None" = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        index = {a.name: a for a in self.terms}
        merged = dict(self.types.constructors)
        for atom in self.atoms:
            merged.setdefault(atom, 0)
        object.__setattr__(self, "_arities", index)
        object.__setattr__(
            self,
            "binder_counts",
            {a.name: tuple(len(spec.binders) for spec in a.args) for a in self.terms},
        )
        object.__setattr__(
            self, "_all_types", TypeSignature(self.types.name, merged)
        )

    @property
    def name(self) -> str:
        return self.types.name

    @property
    def all_types(self) -> TypeSignature:
        """Type signature with atoms folded in; use this for type checks."""
        assert self._all_types is not None
        return self._all_types

    def arity(self, name: str) -> TermArity | None:
        return self._arities.get(name)

    def type_arity(self, name: str) -> int | None:
        return self.all_types.arity_of(name)

    def node_error(
        self, name: str, lit: int | None, degree: int, count: int
    ) -> str | None:
        """Why a node of arity ``name`` with family literal ``lit``,
        ``degree`` type parameters and ``count`` arguments is not well
        formed, or ``None`` when it is.  The first failed check wins, in
        this order: a known arity, the literal, the type parameters, the
        arguments.  Every term operation rejects a node with this."""
        ar = self._arities.get(name)
        if ar is None:
            return f"unknown arity '{name}'"
        if ar.family_index and lit is None:
            return f"'{name}' needs a family literal"
        if not ar.family_index and lit is not None:
            return f"'{name}' is not family-indexed"
        if degree != ar.degree:
            return f"'{name}' expects {ar.degree} type parameters, got {degree}"
        if count != len(ar.args):
            return f"'{name}' expects {len(ar.args)} arguments, got {count}"
        return None


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True, slots=True)
class ValidationReport:
    entries: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(self.entries)


def type_expr_errors(
    types: Mapping[str, int], e: TypeExpr, degree: int
) -> Iterator[str]:
    """Yield, in pre-order, each way in which ``e`` is not a type expression
    of degree ``degree`` over the constructors (name to argument count) in
    ``types``.  Every well-formedness check of a type expression is this
    one."""
    stack = [e]
    while stack:
        e = stack.pop()
        if type(e) is TVar:
            if e.index < 1:
                yield f"variable index {e.index} is not positive"
            elif e.index > degree:
                yield f"variable {e.index} exceeds degree {degree}"
        elif type(e) is TApp:
            declared = types.get(e.name)
            if declared is None:
                yield f"unknown type constructor '{e.name}'"
            elif declared != len(e.args):
                yield (
                    f"{e.name} expects {declared} argument"
                    f"{'s' if declared != 1 else ''}, got {len(e.args)}"
                )
            stack.extend(reversed(e.args))
        else:
            yield f"not a type expression: {e!r}"


def validate_signature(sig: TypedSignature) -> ValidationReport:
    """Collect every violation of the signature invariants.

    An empty report means the signature is well formed.  Reserved names
    (leading ``__``) are rejected so that translation templates can use
    them for engine forms without ambiguity.
    """
    out: list[str] = []
    types = sig.all_types.constructors

    def check(e: TypeExpr, degree: int, where: str) -> None:
        out.extend(f"{where}: {msg}" for msg in type_expr_errors(types, e, degree))

    for name, count in sig.types.constructors.items():
        if name.startswith("__"):
            out.append(f"type constructor '{name}': name is reserved")
        if count < 0:
            out.append(f"type constructor '{name}': negative arity count")
    seen_atoms: set[str] = set()
    for atom in sig.atoms:
        if atom.startswith("__"):
            out.append(f"atom '{atom}': name is reserved")
        if atom in sig.types.constructors or atom in seen_atoms:
            out.append(f"atom '{atom}': duplicate type constructor name")
        seen_atoms.add(atom)
    seen: set[str] = set()
    for ar in sig.terms:
        where = f"arity '{ar.name}'"
        if ar.name.startswith("__"):
            out.append(f"{where}: name is reserved")
        if ar.name in seen:
            out.append(f"{where}: duplicate arity name")
        seen.add(ar.name)
        if ar.degree < 0:
            out.append(f"{where}: negative degree")
            continue
        for j, spec in enumerate(ar.args, start=1):
            for b in spec.binders:
                check(b, ar.degree, f"{where}, argument {j} binder")
            check(spec.body, ar.degree, f"{where}, argument {j}")
        check(ar.result, ar.degree, f"{where}, result")
    return ValidationReport(tuple(out))
