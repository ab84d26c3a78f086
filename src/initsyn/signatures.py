"""Typed signatures: type constructors and term arities.

A language is declared as a typed signature: a set of type constructors
(each with an argument count) plus a set of term constructors ("arities").
An arity of degree n abstracts over n type parameters, written $1..$n in
type expressions; each argument of an arity carries a binder list (the
types of the variables the constructor binds in that argument) and a body
type; the arity also declares a result type.  Type expressions are the
``ObjType`` trees of ``objtypes`` with ``TVar`` leaves; ``TVar``,
``TypeExpr`` and ``type_expr_errors`` are re-exported here.
"""

from __future__ import annotations

from .objtypes import Frozen, TVar, TypeExpr, _fold, type_expr_errors


# ---------------------------------------------------------------------------
# Type expressions


def min_degree(e: TypeExpr) -> int:
    """Largest $k occurring in ``e``; 0 for a closed expression.  The walk
    (``objtypes._fold``) keeps its own stack, so depth costs no recursion."""
    return _fold(e, lambda v: v.index, lambda t, ks: max(ks, default=0), {})


# ---------------------------------------------------------------------------
# Signatures


class TypeSignature(Frozen):
    """Named family of type constructors with their argument counts."""

    __slots__ = __match_args__ = ("name", "constructors")
    name: str
    constructors: dict[str, int]


class ArgSpec(Frozen):
    """One argument of a term arity: binder types, then the body type."""

    __slots__ = __match_args__ = ("binders", "body")
    binders: tuple[TypeExpr, ...]
    body: TypeExpr


class TermArity(Frozen):
    """A term constructor shape.

    ``degree`` is the number of type parameters; ``family_index`` marks an
    arity standing for a whole family indexed by a natural literal (one
    concrete constructor per literal, all sharing this shape).  An empty
    ``args`` tuple is a constant.
    """

    __slots__ = __match_args__ = ("name", "degree", "args", "result", "family_index")
    _defaults = {"family_index": False}
    name: str
    degree: int
    args: tuple[ArgSpec, ...]
    result: TypeExpr
    family_index: bool


class TypedSignature(Frozen):
    """A type signature plus term arities over it.

    ``atoms`` is sugar: each atom name contributes one extra nullary type
    constructor (kept separate from ``types`` so signature files print the
    way they were written); ``all_types`` is ``types`` with the atoms
    folded in, for type checks.  ``binder_counts`` maps each arity name to
    the number of binders of each of its arguments, which is all a
    traversal that only moves variables needs to know.  ``_shapes`` holds
    what ``terms.infer`` compiles of each arity on first use.  It is weakly
    referenceable.
    """

    __match_args__ = ("types", "terms", "atoms")
    __slots__ = __match_args__ + (
        "_arities", "binder_counts", "all_types", "_shapes", "__weakref__"
    )
    _defaults = {"atoms": ()}
    types: TypeSignature
    terms: tuple[TermArity, ...]
    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        merged = dict(self.types.constructors)
        for atom in self.atoms:
            merged.setdefault(atom, 0)
        counts = {a.name: tuple(len(spec.binders) for spec in a.args) for a in self.terms}
        object.__setattr__(self, "_arities", {a.name: a for a in self.terms})
        object.__setattr__(self, "binder_counts", counts)
        object.__setattr__(self, "all_types", TypeSignature(self.types.name, merged))
        object.__setattr__(self, "_shapes", {})

    @property
    def name(self) -> str:
        return self.types.name

    def arity(self, name: str) -> TermArity | None:
        return self._arities.get(name)

    def type_arity(self, name: str) -> int | None:
        return self.all_types.constructors.get(name)

    def node_error(
        self, name: str, lit: int | None, degree: int, count: int
    ) -> str | None:
        """Why a node of arity ``name`` with family literal ``lit``,
        ``degree`` type parameters and ``count`` arguments is not well
        formed, or ``None`` when it is.  The first failed check wins, in
        this order: a known arity, the literal, the type parameters, the
        arguments.  ``infer`` and ``translate_term`` reject a node with
        this; ``weaken``, ``rename`` and ``substitute`` check only the
        arity name and the argument count, and give this when either fails."""
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


class ValidationReport(Frozen):
    __slots__ = __match_args__ = ("entries",)
    entries: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(self.entries)


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
