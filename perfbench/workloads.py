"""The three benchmark workloads.

Each workload builds its operations from the seed, runs one operation at a
time (a closed loop with a single caller), and checks every output against
a reference computed outside the timed region:

* ``translate-large`` runs ``initsyn translate`` in-process on seeded PCF
  and CPC files and the README's ``neg.term``; outputs must equal the
  independent translators in ``tests/oracles.py``.
* ``laws-acceptance`` runs the acceptance law checks, scaled down.
* ``subst-wide`` calls ``substitute``, ``weaken``, ``rename`` and ``infer``
  from ``initsyn.terms`` on seeded terms; results must equal a reference
  substitution written here.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import initsyn.cli
import initsyn.laws
import initsyn.terms
from initsyn.languages import get_language, get_translation
from initsyn.laws import GenConfig
from initsyn.terms import Con, Substitution, Var
from initsyn.translate import validate_translation

import inputs as I

TURING, CURRY, GG = "pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen"


@dataclass
class Op:
    """One benchmark operation and what its output is checked against."""

    name: str
    kind: str
    labels: tuple[str, ...]
    work: int
    args: tuple
    expected: object = None
    props: I.Props | None = None


@dataclass
class Probe:
    """A deep input run outside the timed loop; it fails at this seed."""

    name: str
    argv: list[str]
    expected: str
    props: I.Props
    outcomes: list[str] = field(default_factory=list)


@contextlib.contextmanager
def deep_stack(limit: int = 50_000):
    """Raise the recursion limit for the recursive reference code only; it
    is never in effect while a timed or traced call runs."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# translate-large

GOLDEN = "Abs (Abs (Abs (Abs (3 @ 2 @ 1))) @ 1 @ Abs (Abs 1) @ Abs (Abs 2))"
NEG_TERM = """context ; (abs [Bool, Bool]
  (app [Bool, Bool]
    (app [Bool, arr(Bool,Bool)]
      (app [Bool, arr(Bool,arr(Bool,Bool))] (CondB) #0)
      (ffff))
    (tttt)))
"""

# (context length, PCF nodes, CPC nodes).  translate_term retypes the whole
# context at every node, so sizes shrink as contexts grow; a pass over all
# files takes a few seconds, so a run has about ten passes to take medians
# over.
XLAT_CLASSES = ((1, 8_000, 800), (16, 2_000, 300), (64, 800, 120), (256, 200, 40))
DEEP = 450  # below the parser's nesting limit of 500


class TranslateLarge:
    name = "translate-large"
    languages = ("PCF", "ULC", "CPC", "IPC")
    translations = (TURING, CURRY, GG)
    imports = ("initsyn", "initsyn.cli")

    def __init__(self, root: Path, out: Path):
        self.oracles = _load_oracles(root)
        self.dir = out / "inputs"
        self.texts: list[str] = []

    def root_layer(self, op: Op) -> str:
        return "cli.main"

    def _oracle(self, using: str):
        o = self.oracles
        if using == GG:
            return o.cpc_to_ipc
        return o.pcf_to_ulc(o.theta_term() if using == TURING else o.y_term())

    def _file(self, name: str, text: str) -> str:
        self.texts.append(text)
        path = self.dir / f"{name}.term"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _expected(self, using: str, ctx, term) -> str:
        with deep_stack():
            return I.show_term(self._oracle(using)(ctx, term)) + "\n"

    def _translate_op(self, name, using, ctx, term, labels) -> Op:
        nodes, nesting, literal = I.shape(term)
        path = self._file(name, I.term_file(ctx, term))
        binders = _binder_counts(get_translation(using).source)
        return Op(
            name,
            "file",
            labels,
            nodes,
            (["translate", "--using", using, path],),
            self._expected(using, ctx, term),
            I.Props(nodes, len(ctx), nesting, literal=literal, binder_depth=binder_depth(binders, term)),
        )

    def build(self, seed: int) -> tuple[list[Op], list[Probe]]:
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        path = self._file("neg", NEG_TERM)
        ops = [
            Op(
                "neg.term",
                "file",
                ("golden",),
                12,
                (["translate", "--using", TURING, path, "--style", "paper"],),
                GOLDEN + "\n",
                I.Props(12, 0, 5),
            )
        ]
        for k, (ctx_len, pcf_nodes, cpc_nodes) in enumerate(XLAT_CLASSES):
            label = f"ctx{ctx_len}"
            ctx = tuple(rng.choice(I.PCF_TYPES) for _ in range(ctx_len))
            pcf = I.PcfBuilder(rng)
            term = I.sized(lambda n: pcf.nat(ctx, n), pcf_nodes)
            using = (TURING, CURRY)[k % 2]
            ops.append(self._translate_op(f"pcf-{label}", using, ctx, term, (label,)))
            cpc = I.CpcBuilder(rng)
            ctx = tuple(cpc.prop(1) for _ in range(ctx_len - 1)) + (I.BOT,)
            goal = cpc.prop()
            term = I.sized(lambda n: cpc.proof(goal, ctx, n), cpc_nodes)
            ops.append(self._translate_op(f"cpc-{label}", GG, ctx, term, (label,)))
        return ops, self._probes()

    def _probes(self) -> list[Probe]:
        chain = I.con("nats", lit=1)
        for _ in range(DEEP):
            chain = I.app(I.NAT, I.NAT, I.con("Succ"), chain)
        p = I.ATOMS[0]
        proof = Var(0)
        for _ in range(DEEP // 2):
            pair = I.con("andI", (p, I.TOP), (proof, I.con("topI")))
            proof = I.con("andE1", (p, I.TOP), (pair,))
        literal = I.con("nats", lit=250)
        probes = []
        for name, using, ctx, term in (
            (f"deep-pcf-{DEEP}", TURING, (), chain),
            ("literal-nats250", TURING, (), literal),
            (f"deep-cpc-{DEEP}", GG, (p,), proof),
        ):
            nodes, nesting, lit = I.shape(term)
            path = self._file(name, I.term_file(ctx, term))
            probes.append(
                Probe(
                    name,
                    ["translate", "--using", using, path],
                    self._expected(using, ctx, term),
                    I.Props(nodes, len(ctx), nesting, literal=lit),
                )
            )
        return probes

    def run(self, op: Op):
        return self._translate(op.args[0])

    @staticmethod
    def _translate(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = initsyn.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, output) -> str | None:
        code, out, err = output
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        if out != op.expected:
            return "output differs from the reference translator"
        return None

    def probe(self, probe: Probe) -> str:
        try:
            output = self._translate(probe.argv)
        except Exception as exc:  # the point of a probe: record how it fails
            return type(exc).__name__
        if output[0] != 0:
            return f"exit {output[0]}"
        return "ok" if output[1] == probe.expected else "mismatch"

    def warm_up(self, ops: list[Op]) -> list[Op]:
        return ops[:1] + ops[-2:]


# ---------------------------------------------------------------------------
# laws-acceptance

# The acceptance run has 10 000 monad-law cases per language and 2 000
# translation-law cases per translation; these keep that 5:1 ratio.
MONAD_CASES, XLAT_CASES = 500, 100
LAW_CHECKS = (
    ("monad", "ULC"),
    ("monad", "PCF"),
    ("monad", "IPC"),
    ("xlat", TURING),
    ("xlat", CURRY),
    ("xlat", GG),
)


class LawsAcceptance:
    name = "laws-acceptance"
    languages = ("ULC", "PCF", "IPC", "CPC")
    translations = (TURING, CURRY, GG)
    imports = ("initsyn",)

    def __init__(self, root: Path, out: Path):
        self.texts: list[str] = []

    def root_layer(self, op: Op) -> str:
        return "laws.check_monad_laws" if op.kind == "monad" else "laws.check_translation_laws"

    def build(self, seed: int) -> tuple[list[Op], list[Probe]]:
        # The case seeds are the acceptance seeds (1 for the monad laws, 2 for
        # the translation laws); the benchmark seed only orders the checks.
        checks = list(LAW_CHECKS)
        random.Random(seed).shuffle(checks)
        ops = []
        for kind, name in checks:
            if kind == "monad":
                subject = get_language(name)
                cfg = GenConfig(seed=1, max_depth=6, cases=MONAD_CASES)
            else:
                subject = get_translation(name)
                if not validate_translation(subject).ok:
                    raise RuntimeError(f"builtin translation {name} does not validate")
                cfg = GenConfig(seed=2, max_depth=6, cases=XLAT_CASES)
            self.texts.append(f"{kind} {name} {cfg}")
            ops.append(Op(f"{kind}-{name}", kind, (f"{kind}-{name}",), cfg.cases, (subject, cfg)))
        return ops, []

    def run(self, op: Op):
        subject, cfg = op.args
        if op.kind == "monad":
            # passed explicitly: the default is bound when initsyn.laws is
            # imported, so a traced run would miss it
            return initsyn.laws.check_monad_laws(
                subject, cfg, substitute_fn=initsyn.terms.substitute
            )
        return initsyn.laws.check_translation_laws(subject, cfg)

    def check(self, op: Op, report) -> str | None:
        if report.counterexample is not None:
            return f"counterexample: {report.counterexample[:200]}"
        if not report.passed:
            return f"report did not pass: {report}"
        return None

    def warm_up(self, ops: list[Op]) -> list[Op]:
        """The first law checks of a process pay for lazy set-up; 20 cases
        of each pay it before timing."""
        short = []
        for op in ops:
            subject, cfg = op.args
            cfg = GenConfig(cfg.seed, cfg.max_depth, 20)
            short.append(Op(f"{op.name}-warm-up", op.kind, op.labels, cfg.cases, (subject, cfg)))
        return short


# ---------------------------------------------------------------------------
# subst-wide

WIDTHS = (4, 32, 128, 384)
DEPTHS = (0, 8, 24, 60)
# term sizes, spread over the width-depth grid so that neither sets them
SUBST_SIZES = tuple(500 + 2500 * k // 15 for k in range(16))


def _binder_counts(sig) -> dict[str, tuple[int, ...]]:
    return {ar.name: tuple(len(spec.binders) for spec in ar.args) for ar in sig.terms}


def ref_map(binders, term, on_var, depth: int = 0):
    """Rebuild ``term`` with each variable replaced by ``on_var(index,
    binders above it)``; the one traversal the references below share."""
    if type(term) is Var:
        return on_var(term.index, depth)
    return Con(
        term.name,
        term.lit,
        term.inst,
        tuple(ref_map(binders, a, on_var, depth + k) for a, k in zip(term.args, binders[term.name])),
    )


def ref_shift(binders, term, by: int, cutoff: int = 0):
    return ref_map(binders, term, lambda i, d: Var(i + by) if i >= d + cutoff else Var(i))


def ref_substitute(binders, term, images):
    """Substitution that weakens an image only where a variable reaches it."""
    return ref_map(
        binders, term, lambda i, d: Var(i) if i < d else ref_shift(binders, images[i - d], d)
    )


def ref_rename(binders, term, f):
    return ref_map(binders, term, lambda i, d: Var(i) if i < d else Var(f(i - d) + d))


def binder_depth(binders, term) -> int:
    deepest = 0
    stack = [(term, 0)]
    while stack:
        t, d = stack.pop()
        deepest = max(deepest, d)
        if type(t) is Con:
            stack.extend((a, d + k) for a, k in zip(t.args, binders[t.name]))
    return deepest


class SubstWide:
    name = "subst-wide"
    languages = ("ULC", "PCF")
    translations = ()
    imports = ("initsyn",)

    def __init__(self, root: Path, out: Path):
        self.texts: list[str] = []

    def root_layer(self, op: Op) -> str:
        return "bench.subst_op"

    def _case(self, rng, lang: str, width: int, depth: int, size: int):
        """A term over a domain of ``width`` entries whose only binders are
        a spine of ``depth`` at the root, its substitution, and its type.
        Substitution work then follows width and depth and not the chance
        placement of binders."""
        cod_len = width // 2 + 2
        image_sizes = [1 + k % 5 for k in range(width)]
        if lang == "ULC":
            b = I.UlcBuilder(rng, 0.0)
            domain, cod = (I.STAR,) * width, (I.STAR,) * cod_len
            term = I.sized(lambda n: b.abs_spine(width, depth, n), size)
            images = tuple(b.term(cod_len, n) for n in image_sizes)
            ty = I.STAR
        else:
            b = I.PcfBuilder(rng, 0.0)
            domain = tuple(rng.choice(I.PCF_TYPES) for _ in range(width))
            cod = tuple(rng.choice(I.PCF_TYPES) for _ in range(cod_len))
            term = I.sized(lambda n: b.redex_spine(domain, depth, n), size)
            images = tuple(b.term(t, cod, n) for t, n in zip(domain, image_sizes))
            ty = I.NAT
        return domain, cod, term, images, ty

    def build(self, seed: int) -> tuple[list[Op], list[Probe]]:
        rng = random.Random(seed)
        ops = []
        for i, w in enumerate(WIDTHS):
            for j, d in enumerate(DEPTHS):
                lang = ("ULC", "PCF")[(i + j) % 2]
                sig = get_language(lang)
                binders = _binder_counts(sig)
                size = SUBST_SIZES[(5 * len(ops)) % len(SUBST_SIZES)]
                domain, cod, term, images, ty = self._case(rng, lang, w, d, size)
                cutoff, amount = rng.randint(0, len(cod)), rng.randint(1, 3)
                cod2 = cod[:cutoff] + tuple(rng.choice(cod) for _ in range(amount)) + cod[cutoff:]
                perm = list(range(len(cod2)))
                rng.shuffle(perm)
                cod3 = [None] * len(cod2)
                for i, t in enumerate(cod2):
                    cod3[perm[i]] = t
                rename = perm.__getitem__
                with deep_stack():
                    r1 = ref_substitute(binders, term, images)
                    r2 = ref_shift(binders, r1, amount, cutoff)
                    r3 = ref_rename(binders, r2, rename)
                nodes, nesting, _ = I.shape(term)
                self.texts.append(
                    f"{lang} {cutoff} {amount} {perm} {I.show_term(term)} "
                    + " ".join(I.show_term(img) for img in images)
                )
                ops.append(
                    Op(
                        f"{lang}-w{w}-d{d}",
                        "subst",
                        (f"w{w}", f"d{d}"),
                        nodes,
                        (sig, term, Substitution(domain, cod, images), cutoff, amount, rename, tuple(cod3)),
                        (r1, r2, r3, ty),
                        I.Props(nodes, w, nesting, width=w, binder_depth=binder_depth(binders, term)),
                    )
                )
        return ops, []

    def run(self, op: Op):
        sig, term, sub, cutoff, amount, rename, cod3 = op.args
        t = initsyn.terms
        r1 = t.substitute(sig, term, sub)
        r2 = t.weaken(sig, r1, cutoff, amount)
        r3 = t.rename(sig, r2, rename)
        return r1, r2, r3, t.infer(sig, cod3, r3)

    def check(self, op: Op, output) -> str | None:
        names = ("substitute", "weaken", "rename", "infer")
        for name, got, want in zip(names, output, op.expected):
            if got != want:
                return f"{name} result differs from the reference"
        return None

    def warm_up(self, ops: list[Op]) -> list[Op]:
        return ops[:4]


WORKLOADS = {w.name: w for w in (TranslateLarge, LawsAcceptance, SubstWide)}
