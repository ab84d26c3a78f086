"""Command line entry point.

Exit codes: 0 success, 1 domain failure (type error, law counterexample),
2 usage or I/O problems (unknown names, missing files, bad flags, an
output pipe closed early) and input nested too deeply or too large to
process.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .languages import get_language, get_translation, list_builtins, load_translation
from .objtypes import translate_type
from .surface import SourceError, parse_signature, print_signature, print_term

# Bound under the public name so that the parse layer keeps one name
# (perfbench/tracing.py wraps ``initsyn.cli.parse_term``); unlike
# ``surface.parse_term`` it also returns the type the parse inferred.
from .surface import _parse_typed_term as parse_term
from .terms import TypeCheckError, infer, paused_gc
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
    except UnicodeDecodeError as exc:
        raise _Usage(f"cannot read {path}: not UTF-8 at byte offset {exc.start}") from exc


def _builtin(kind: str, name: str):
    """The builtin language or translation (``kind``) called ``name``."""
    get = get_language if kind == "language" else get_translation
    try:
        return get(name)
    except KeyError:
        raise _Usage(f"unknown {kind} '{name}'")


def _load_language(args):
    if args.lang is not None:
        return _builtin("language", args.lang)
    return parse_signature(_read(args.sig))


def _load_translation(args):
    if args.using is not None:
        return _builtin("translation", args.using)
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
    print(print_signature(_builtin("language", args.name)), end="")
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
    # A builtin translation's output is well typed by the theorem, and the
    # tests hold the engine to it at every arity's generic instance and
    # against engine mutants (tests/test_generic_instances.py,
    # tests/test_mutant_gate.py), so it is printed as built.  No test covers
    # a --xlat file's templates, so its output is rechecked; each closed
    # piece they share was typed by ``infer`` once, at compiling.
    if args.xlat is not None:
        ctx_t = retype_context(x.type_map, ctx)
        actual = infer(x.target, ctx_t, translated, closed=x._closed)
        expected = translate_type(x.type_map, ty)
        if actual != expected:
            raise TypeCheckError(
                f"translated term has type {actual}, expected {expected}"
            )
    # ``print_term`` reads neither its signature nor its context
    print(print_term(x.target, (), translated, style=args.style))
    return 0


def cmd_laws(args) -> int:
    # imported here so that the other commands start without the law checker
    from .laws import GenConfig, check_monad_laws, check_translation_laws

    try:
        cfg = GenConfig(seed=args.seed, max_depth=args.depth, cases=args.cases)
    except ValueError as exc:
        raise _Usage(str(exc))
    if args.lang is not None:
        report = check_monad_laws(_builtin("language", args.lang), cfg)
    else:
        report = check_translation_laws(_builtin("translation", args.translation), cfg)
    print(report)
    return 0 if report.passed else 1


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


@paused_gc
def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # the reader is gone: what is left to flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
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
