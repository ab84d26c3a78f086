"""Engine mutants: one-function source patches of the translation engine.

Each mutant replaces one snippet of one function's source, executes the
patched source in the function's module, so that it closes over the same
globals, and rebinds every name in ``initsyn`` that held the original;
``applied`` undoes all of it.  The gate in ``test_mutant_gate.py`` runs the
named checks of ``test_generic_instances.py`` under each mutant and
requires the check named here to fail.

A mutant that no builtin translation reaches is marked equivalent, with
the reason; the gate then requires every check to pass under it, which is
what "no builtin reaches it" means, and requires the check named in
``killed_by`` to kill it on the non-builtin translation that does reach it.
"""

from __future__ import annotations

import __future__
import inspect
import sys
import textwrap
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    function: str
    old: str
    new: str
    # the check of test_generic_instances.CHECKS (or, for an equivalent
    # mutant, of test_mutant_gate.NON_BUILTIN_CHECKS) that must fail under it
    killed_by: str
    equivalent: str | None = None


MUTANTS = (
    Mutant(
        "wrong #i shift in go",
        "initsyn.translate",
        "translate_term",
        "a = Var(a.index + s - (shifts[rel - 1 - j] if j < rel else 0))",
        "a = Var(a.index + s)",
        killed_by="nested agreement",
    ),
    Mutant(
        "unshifted argument not restarted at level 0",
        "initsyn.translate",
        "translate_term",
        "a = go(a, rel + b, s) if s else go(a)",
        "a = go(a, rel + b, s)",
        killed_by="reference agreement on the deep translation",
        equivalent=(
            "no builtin translation places an argument of a moved or "
            "three-argument node at shift 0: every argument of orE, orI1 and "
            "orI2 is placed under at least one template binder, and the PCF "
            "templates place none"
        ),
    ),
    Mutant(
        "_placements ignores the landing",
        "initsyn.translate",
        "_placements",
        "shift = 0 if landing is None else landing(inst)",
        "shift = 0",
        killed_by="type preservation",
    ),
    Mutant(
        "_landing off by one",
        "initsyn.translate",
        "_landing",
        "found.append(depth)",
        "found.append(depth + 1)",
        killed_by="type preservation",
    ),
    Mutant(
        "__iter off by one",
        "initsyn.translate",
        "_compile",
        "for _ in range(lit):",
        "for _ in range(lit + 1):",
        killed_by="oracle agreement",
    ),
    Mutant(
        "__stab built at the wrong type",
        "initsyn.translate",
        "_compile",
        "return build_stability_witness(target, ty_of(inst), d, at)",
        "return build_stability_witness(target, inst[0], d, at)",
        killed_by="type preservation",
    ),
    Mutant(
        "per-landing weaken dropped in build_stability_witness",
        "initsyn.translate",
        "build_stability_witness",
        "nn = weaken(sig, d, 0, depth - at)",
        "nn = d",
        killed_by="__stab at every stable type",
    ),
    Mutant(
        "?j extra weakening dropped in _compile",
        "initsyn.translate",
        "_compile",
        "else weaken(target, args[j - 1], outer, depth - least[j]),",
        "else args[j - 1],",
        killed_by="reference agreement on the deep translation",
        equivalent=(
            "no builtin template has a placeholder at two binder depths, so "
            "no placeholder is weakened beyond its placement"
        ),
    ),
)


def _patched(mutant: Mutant, original) -> object:
    module = sys.modules[mutant.module]
    source = textwrap.dedent(inspect.getsource(original))
    if source.count(mutant.old) != 1:
        raise AssertionError(f"{mutant.name}: the snippet is not in {mutant.function} once")
    code = compile(
        source.replace(mutant.old, mutant.new),
        module.__file__,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = module.__dict__
    exec(code, namespace)
    return namespace[mutant.function]


@contextmanager
def applied(mutant: Mutant):
    """``mutant`` in force in every ``initsyn`` module for the block."""
    module = sys.modules[mutant.module]
    original = getattr(module, mutant.function)
    holders = [
        m for name, m in list(sys.modules.items())
        if (name == "initsyn" or name.startswith("initsyn."))
        and getattr(m, mutant.function, None) is original
    ]
    try:
        mutated = _patched(mutant, original)
        for m in holders:
            setattr(m, mutant.function, mutated)
        yield mutated
    finally:
        for m in holders:
            setattr(m, mutant.function, original)
