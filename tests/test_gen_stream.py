"""Pins on the law generator's term stream.

``data/gen_stream.txt`` records, for every builtin language and
translation at fixed seeds, a digest of what the generator produced: the
case terms and substitutions that the law checks draw, the terms and
``GenFailure`` messages of goal-directed and goal-free ``gen_term`` calls
in unplanted contexts, and the law report strings.  The digests were taken
before the generator was compiled per signature; the draw order is part of
the reproducibility contract, so a change that alters which terms a seed
yields must record new digests here and say so.

Run this file as a script to print the digests of the current code.
"""

import hashlib
import json
import random
from pathlib import Path

from initsyn.languages import get_language, get_translation
from initsyn.laws import (
    GenConfig,
    GenFailure,
    _case_term,
    _mix,
    check_monad_laws,
    check_translation_laws,
    gen_context,
    gen_substitution,
    gen_term,
)
from initsyn.objtypes import ground_types

RECORD = Path(__file__).parent / "data" / "gen_stream.txt"
LANGUAGES = ("ULC", "PCF", "STLC", "IPC", "CPC")
TRANSLATIONS = ("pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen")


def _digest(records) -> str:
    text = json.dumps(records, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _cases(sig, seed: int, cases: int) -> list:
    """The (context, term, substitution, substitution) draws of the monad
    law check, one record per case."""
    out = []
    cfg = GenConfig(seed=seed, cases=cases)
    for case in range(cases):
        rng = random.Random(_mix(seed, case))
        try:
            ctx, term = _case_term(sig, cfg, rng)
            sub = gen_substitution(sig, ctx, cfg, rng)
            sub2 = gen_substitution(sig, sub.codomain, cfg, rng, extension=1)
        except GenFailure as e:
            out.append(["failure", str(e)])
            continue
        out.append(
            [
                [str(t) for t in ctx],
                str(term),
                [str(t) for t in sub.codomain],
                [str(i) for i in sub.images],
                [str(t) for t in sub2.codomain],
                [str(i) for i in sub2.images],
            ]
        )
    return out


def _goals(sig, seed: int, cases: int) -> list:
    """``gen_term`` in contexts without a planted goal, at a small depth
    and retry budget, for a goal from the ground-type pool and for no goal:
    dead ends, exhausted budgets, the fallback to a context variable and
    ``GenFailure``.  The pool is left to ``gen_term``."""
    out = []
    pool = ground_types(sig.all_types, 2)
    cfg = GenConfig(seed=seed, cases=1, max_depth=3, retries=2)
    for case in range(cases):
        rng = random.Random(_mix(seed, case))
        ctx = gen_context(sig, cfg, rng, max_len=3)
        for goal in (rng.choice(pool), None):
            try:
                out.append(str(gen_term(sig, ctx, goal, cfg, rng=rng)))
            except GenFailure as e:
                out.append(["failure", str(e)])
    return out


def streams() -> dict[str, str]:
    """Digest of each stream, by name."""
    out = {}
    for name in LANGUAGES:
        sig = get_language(name)
        out[f"cases {name}"] = _digest(_cases(sig, 11, 200))
        out[f"goals {name}"] = _digest(_goals(sig, 12, 200))
        out[f"monad-laws {name}"] = str(check_monad_laws(sig, GenConfig(seed=1, cases=150)))
    for name in TRANSLATIONS:
        report = check_translation_laws(get_translation(name), GenConfig(seed=2, cases=80))
        out[f"translation-laws {name}"] = str(report)
    return out


def _recorded() -> dict[str, str]:
    lines = RECORD.read_text(encoding="utf-8").splitlines()
    return dict(json.loads(line) for line in lines)


def test_generator_stream_is_as_recorded():
    assert streams() == _recorded()


def test_recorded_goals_include_failures():
    """The pinned goal stream reaches ``GenFailure``."""
    failures = [s for s in _goals(get_language("CPC"), 12, 200) if isinstance(s, list)]
    assert len(failures) > 20
    assert all(msg.startswith("no term of type") for _, msg in failures)


if __name__ == "__main__":
    for item in streams().items():
        print(json.dumps(item, ensure_ascii=False))
