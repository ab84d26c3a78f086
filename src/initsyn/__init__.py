"""Initial typed syntax from declared signatures, and type-safe
translations between languages over different type systems.

The law checker, ``laws``, loads on first use: ``import initsyn`` leaves
it out, and reading ``initsyn.laws`` or one of the names it exports here
(``gen_term``, ``check_monad_laws``, ...) imports it."""

from .signatures import (
    ArgSpec,
    TVar,
    TermArity,
    TypeExpr,
    TypeSignature,
    TypedSignature,
    ValidationReport,
    min_degree,
    validate_signature,
)
from .objtypes import (
    ObjType,
    TypeTranslation,
    eval_type_expr,
    ground_types,
    translate_type,
)
from .terms import (
    Con,
    Context,
    Substitution,
    Term,
    TypeCheckError,
    Var,
    check,
    context_extend,
    eta,
    identity_substitution,
    infer,
    rename,
    substitute,
    weaken,
)
from .translate import (
    OpaqueRepresentation,
    Template,
    TplMacro,
    TplMeta,
    Translation,
    identity_translation,
    instantiate_template,
    retype_context,
    translate_term,
    validate_translation,
)
from .languages import get_language, get_translation, list_builtins, load_translation
from .surface import (
    SourceError,
    parse_signature,
    parse_term,
    parse_translation,
    print_signature,
    print_term,
    print_termfile,
    print_translation,
    translation_header,
)

_LAWS_NAMES = (
    "GenConfig",
    "GenFailure",
    "LawReport",
    "check_agreement",
    "check_monad_laws",
    "check_translation_laws",
    "gen_context",
    "gen_substitution",
    "gen_term",
)

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["laws", *_LAWS_NAMES]


def __getattr__(name: str):
    """Import ``laws`` when it or one of its names is first read, and bind
    them all here, so that later reads find them without this call."""
    if name != "laws" and name not in _LAWS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import laws``: its check for the name would call this again
    import importlib

    laws = importlib.import_module(".laws", __name__)
    for law_name in _LAWS_NAMES:
        globals()[law_name] = getattr(laws, law_name)
    return globals()[name]


def __dir__() -> list[str]:
    """Lists the names of ``laws`` too, before it loads."""
    return sorted(set(globals()) | set(__all__))
