"""Initial typed syntax from declared signatures, and type-safe
translations between languages over different type systems."""

from .signatures import (
    ArgSpec,
    TApp,
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
    translate_type_expr,
)
from .terms import (
    Con,
    Context,
    Judgement,
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
    TplCon,
    TplMacro,
    TplMeta,
    TplVar,
    Translation,
    identity_translation,
    instantiate_template,
    retype_context,
    retype_inst,
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
from .laws import (
    GenConfig,
    GenFailure,
    LawReport,
    check_agreement,
    check_monad_laws,
    check_translation_laws,
    gen_context,
    gen_substitution,
    gen_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
