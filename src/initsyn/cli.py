"""Command line entry point.

Exit codes: 0 success, 1 domain failure (type error, law counterexample),
2 usage or I/O problems (unknown names, missing files, bad flags) and
input nested too deeply or too large to process.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .languages import get_language, get_translation, list_builtins, load_translation
from .laws import GenConfig, check_monad_laws, check_translation_laws
from .objtypes import translate_type
from .surface import SourceError, parse_signature, print_signature, print_term

# Bound under the public name so that the parse layer keeps one name
# (perfbench/tracing.py wraps ``initsyn.cli.parse_term``); unlike
# ``surface.parse_term`` it also returns the type the parse inferred.
from .surface import _parse_typed_term as parse_term
from .terms import TypeCheckError, infer
# validate_translation is not called here; perfbench/tracing.py wraps it by this name
from .translate import retype_context, translate_term, validate_translation


class _Usage(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc}") from exc


def _load_language(args):
    if args.lang is not None:
        try:
            return get_language(args.lang)
        except KeyError:
            raise _Usage(f"unknown language '{args.lang}'")
    return parse_signature(_read(args.sig))


def _load_translation(args):
    if args.using is not None:
        try:
            return get_translation(args.using)
        except KeyError:
            raise _Usage(f"unknown translation '{args.using}'")
    text = _read(args.xlat)
    try:
        return load_translation(text)
    except KeyError as exc:
        raise _Usage(f"translation file references unknown language: {exc}")


def cmd_lang(args) -> int:
    if args.action == "list":
        languages, translations = list_builtins()
        print("languages:", " ".join(languages))
        print("translations:", " ".join(translations))
        return 0
    try:
        sig = get_language(args.name)
    except KeyError:
        raise _Usage(f"unknown language '{args.name}'")
    print(print_signature(sig), end="")
    return 0


def cmd_check(args) -> int:
    sig = _load_language(args)
    _, _, ty = parse_term(_read(args.termfile), sig)
    print(f": {ty}")
    return 0


def cmd_translate(args) -> int:
    x = _load_translation(args)
    ctx, term, ty = parse_term(_read(args.termfile), x.source)
    translated = translate_term(x, ctx, term)
    # the theorem guarantees well-typed output; recheck anyway so engine
    # bugs surface as errors instead of silently wrong files
    ctx_t = retype_context(x.type_map, ctx)
    actual = infer(x.target, ctx_t, translated)
    expected = translate_type(x.type_map, ty)
    if actual != expected:
        raise TypeCheckError(
            f"translated term has type {actual}, expected {expected}"
        )
    print(print_term(x.target, ctx_t, translated, style=args.style))
    return 0


def cmd_laws(args) -> int:
    try:
        cfg = GenConfig(seed=args.seed, max_depth=args.depth, cases=args.cases)
    except ValueError as exc:
        raise _Usage(str(exc))
    reports = []
    if args.lang is not None:
        try:
            sig = get_language(args.lang)
        except KeyError:
            raise _Usage(f"unknown language '{args.lang}'")
        reports.append(check_monad_laws(sig, cfg))
    else:
        try:
            x = get_translation(args.translation)
        except KeyError:
            raise _Usage(f"unknown translation '{args.translation}'")
        reports.append(check_translation_laws(x, cfg))
    for report in reports:
        print(report)
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    keeps its state in the namespace it returns."""
    top = argparse.ArgumentParser(prog="initsyn")
    sub = top.add_subparsers(dest="command", required=True)

    lang = sub.add_parser("lang", help="list or show builtin languages")
    lang_sub = lang.add_subparsers(dest="action", required=True)
    lang_sub.add_parser("list")
    show = lang_sub.add_parser("show")
    show.add_argument("name")

    check = sub.add_parser("check", help="typecheck a term file")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--lang")
    group.add_argument("--sig")
    check.add_argument("termfile")

    translate = sub.add_parser("translate", help="translate a term file")
    group = translate.add_mutually_exclusive_group(required=True)
    group.add_argument("--using")
    group.add_argument("--xlat")
    translate.add_argument("termfile")
    translate.add_argument(
        "--style", choices=("canonical", "paper"), default="canonical"
    )

    laws = sub.add_parser("laws", help="run seeded law checks")
    group = laws.add_mutually_exclusive_group(required=True)
    group.add_argument("--lang")
    group.add_argument("--translation")
    laws.add_argument("--seed", type=int, default=1)
    laws.add_argument("--cases", type=int, default=1000)
    laws.add_argument("--depth", type=int, default=6)
    return top


_COMMANDS = {
    "lang": cmd_lang,
    "check": cmd_check,
    "translate": cmd_translate,
    "laws": cmd_laws,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SourceError, TypeCheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        # the last line of defence for input nested deeper than the
        # recursive parts of the kernel can follow
        print(f"error: input too deep or too large ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
