"""Shipped languages and translations.

Languages: the untyped lambda calculus (ULC), the simply typed lambda
calculus (STLC), PCF, and classical/intuitionistic propositional logic
(CPC/IPC) under propositions-as-types.  Translations: PCF into ULC with
either the Turing or the Curry fixed point combinator standing in for the
recursion operator, and the double-negation translation of classical into
intuitionistic proofs.

Each builtin is its file in the package's ``data`` directory: language
``L`` is ``data/L.sig`` and translation ``t`` is ``data/t.xlat``, whose
header names its source and target languages.  A builtin is parsed and
validated on first use and then cached.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files

from .signatures import TypedSignature
from .surface import parse_signature, parse_translation, translation_header
from .terms import Term
from .translate import Translation

_DATA = files(__package__) / "data"


@lru_cache(maxsize=None)
def _stems(suffix: str) -> tuple[str, ...]:
    return tuple(
        sorted(f.name[: -len(suffix)] for f in _DATA.iterdir() if f.name.endswith(suffix))
    )


def _read(name: str, suffix: str, kind: str) -> str:
    # a name is looked up among the shipped files, never joined onto a path
    if name not in _stems(suffix):
        raise KeyError(f"unknown {kind} '{name}'")
    return (_DATA / f"{name}{suffix}").read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def get_language(name: str) -> TypedSignature:
    return parse_signature(_read(name, ".sig", "language"))


def load_translation(text: str) -> Translation:
    """Parse the text of a ``.xlat`` file against the builtin languages
    that its header names; ``KeyError`` when one is not a builtin."""
    _, source, target = translation_header(text)
    return parse_translation(text, get_language(source), get_language(target))


@lru_cache(maxsize=None)
def get_translation(name: str) -> Translation:
    return load_translation(_read(name, ".xlat", "translation"))


def turing_combinator() -> Term:
    """(lambda x. lambda y. y (x x y)) applied to itself: the ``Theta``
    macro of pcf2ulc-turing."""
    return get_translation("pcf2ulc-turing").macros["Theta"]


def curry_combinator() -> Term:
    """lambda f. (lambda x. f (x x)) (lambda x. f (x x)): the ``Y`` macro
    of pcf2ulc-curry."""
    return get_translation("pcf2ulc-curry").macros["Y"]


def list_builtins() -> tuple[tuple[str, ...], tuple[str, ...]]:
    return _stems(".sig"), _stems(".xlat")
