"""initsyn benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload translate-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in its own child

Run from the root of a checkout.  The program under test is ``src/initsyn``
of that checkout; the references for ``translate-large`` come from
``tests/oracles.py``.  Input files, digests and traces go to
``.perfbench_out/``.

``--trace 0`` measures the end-to-end metrics with tracing off.  After a
warm-up, the workload's operations run in passes, one at a time and each
once per pass, for about ``--seconds``.  End-to-end times are given in
units of the calibration kernel in ``kernel.py``; the raw figures are
printed on the ``named`` lines.

``--trace 1`` runs two untraced passes and then one traced pass over the
same operations and reports per-layer numbers from the traced pass (see
``tracing.py``).  Rows per bucket (context length for ``translate-large``,
substitution width and binder depth for ``subst-wide``, law check for
``laws-acceptance``) are printed and saved with the spans.

Every output is checked outside the timed region.  Every metric is printed
by name and unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics listed in
``BENCHMARK.json``.  Timed and traced calls run at the default recursion
limit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from kernel import KERNEL_REF_S, kernel_time

perf = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("translate-large", "laws-acceptance", "subst-wide")
SETUP_CHILDREN = 15

# Set-up is timed inside a fresh child from before ``import initsyn`` until
# the workload's builtins are loaded and validated, so interpreter start is
# left out.  Each call is timed on its own as the per-layer set-up numbers.
SETUP_CHILD = """
import importlib, json, sys, time
perf = time.perf_counter
languages, translations, imports = json.loads(sys.argv[1])
t0 = perf()
for name in imports:
    importlib.import_module(name)
t1 = perf()
from initsyn.languages import get_language, get_translation
from initsyn.translate import validate_translation
lang_s = xlat_s = valid_s = 0.0
for name in languages:
    a = perf(); get_language(name); lang_s += perf() - a
for name in translations:
    a = perf(); x = get_translation(name); b = perf()
    ok = validate_translation(x).ok; c = perf()
    xlat_s += b - a; valid_s += c - b
    if not ok:
        sys.exit(f"builtin translation {name} does not validate")
t2 = perf()
sys.path.insert(0, sys.argv[2])
from kernel import kernel_time
print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "kernel_s": kernel_time(),
    "languages.get_language.self_s": lang_s,
    "languages.get_translation.self_s": xlat_s,
    "translate.validate_translation.self_s": valid_s}))
"""


def measure_setup(wl) -> dict[str, float]:
    """Medians over fresh children, after one discarded child that also
    leaves the bytecode cache warm.  ``setup_scaled_s`` is in kernel units,
    from a kernel run in each child after its set-up."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spec = json.dumps([wl.languages, wl.translations, wl.imports])
    samples = []
    for _ in range(SETUP_CHILDREN + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, spec, str(Path(__file__).parent)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(json.loads(done.stdout))
    del samples[0]
    for s in samples:
        s["setup_scaled_s"] = s["setup_s"] * KERNEL_REF_S / s.pop("kernel_s")
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# Running and checking operations


class Runner:
    def __init__(self, wl, ops, probes):
        self.wl = wl
        self.ops = ops
        self.probes = probes
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.outputs: dict[str, object] = {}

    def run(self, op, call=None) -> float:
        """Run one operation and return its duration; its output is checked
        after the clock stops."""
        self.attempted += 1
        start = perf()
        try:
            output = call() if call else self.wl.run(op)
        except Exception as exc:  # a failing operation is counted, not fatal
            duration = perf() - start
            problem = f"raised {type(exc).__name__}: {exc}"[:300]
        else:
            duration = perf() - start
            self.outputs[op.name] = output
            problem = self.wl.check(op, output)
        if problem is not None:
            self.failed += 1
            self.failures.setdefault(op.name, problem)
        return duration

    def run_probes(self) -> None:
        for probe in self.probes:
            probe.outcomes.append(self.wl.probe(probe))

    def error_rate(self) -> float:
        outcomes = [o for p in self.probes for o in p.outcomes]
        bad = self.failed + sum(o != "ok" for o in outcomes)
        return bad / (self.attempted + len(outcomes))


def timed_passes(runner: Runner, seconds: float) -> tuple[list[list[tuple]], list[float]]:
    """Whole passes, while one more still fits in ``seconds``, and the
    median kernel time of each pass."""
    passes, kernels = [], []
    start = perf()
    while True:
        records, kernel = [], []
        stride = max(1, len(runner.ops) // 4)
        for i, op in enumerate(runner.ops):
            if i % stride == 0:
                kernel.append(kernel_time())
            records.append((op, runner.run(op)))
        passes.append(records)
        kernels.append(statistics.median(kernel))
        runner.run_probes()
        elapsed = perf() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, kernels


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (level, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


NAMED = {
    "translate-large": ("xlat_nodes_per_s", "xlat_file_p50_ms", "xlat_file_tail_ms"),
    "subst-wide": ("subst_nodes_per_s", "subst_op_p50_ms", "subst_op_tail_ms"),
    "laws-acceptance": ("laws_cases_per_s", "laws_check_p50_ms", "laws_check_tail_ms"),
}


def typical_durations(passes, scales) -> list[float]:
    """Each operation's median duration over the passes, after scaling each
    pass; one slow pass moves nothing."""
    return [
        statistics.median(records[i][1] * scale for records, scale in zip(passes, scales))
        for i in range(len(passes[0]))
    ]


def end_to_end(wl, runner, passes, kernels, setup) -> tuple[dict, dict]:
    """The end-to-end metrics of BENCHMARK.json in kernel units, and the raw
    numbers under the workload's own names with the ones only it has."""
    ops = runner.ops
    scaled = typical_durations(passes, [KERNEL_REF_S / k for k in kernels])
    raw = typical_durations(passes, [1.0] * len(passes))
    metrics = {
        "setup_s": (setup["setup_scaled_s"], "s"),
        "work_per_s": (sum(op.work for op in ops) / sum(scaled), "1/s"),
        "op_p50_ms": (1000 * statistics.median(scaled), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    latencies = [d for records in passes for _, d in records]
    level, pct = tail(latencies)
    rate_name, p50_name, tail_name = NAMED[wl.name]
    named = {
        rate_name: (sum(op.work for op in ops) / sum(raw), "1/s"),
        p50_name: (1000 * statistics.median(raw), "ms"),
        tail_name: (1000 * level, "ms", f"p{pct:.1f} of {len(latencies)} samples"),
        "setup_raw_s": (setup["setup_s"], "s"),
        "kernel_ms": (1000 * statistics.median(kernels), "ms", f"reference {1000 * KERNEL_REF_S:g} ms"),
        "error_rate": (runner.error_rate(), "ratio"),
        "passes": (len(passes), "count"),
    }
    if wl.name == "laws-acceptance":
        for kind in ("monad", "xlat"):
            chosen = [(op, t) for op, t in zip(ops, raw) if op.kind == kind]
            value = sum(op.work for op, _ in chosen) / sum(t for _, t in chosen)
            named[f"laws_{kind}_cases_per_s"] = (value, "1/s")
    return metrics, named


# ---------------------------------------------------------------------------
# The traced run

# Layers reported on every workload by call count and share of traced
# operation time; a layer a workload does not reach reads 0 there.
SHARED_LAYERS = (
    "surface.parse_term",
    "surface.print_term",
    "terms.infer",
    "terms.weaken",
    "terms.substitute",
    "terms.rename",
    "translate.translate_term",
    "translate.retype_context",
    "translate.instantiate_template",
    "laws.gen_term",
)


def traced_run(wl, runner: Runner, setup: dict):
    from tracing import Tracer  # imports initsyn, so only after sys.path is set

    untraced = []
    for _ in range(2):
        untraced.append(sum(runner.run(op) for op in runner.ops))
        runner.run_probes()
    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for index, op in enumerate(runner.ops):
            call = lambda op=op, index=index: tracer.op(
                index, wl.root_layer(op), op.labels, op.work, wl.run, op
            )
            traced += runner.run(op, call)
    finally:
        tracer.uninstall()
    runner.run_probes()
    roots = {wl.root_layer(op) for op in runner.ops}
    op_time: dict[str, float] = {}
    for (layer, label), s in tracer.stats.items():
        if layer in roots:
            op_time[label] = op_time.get(label, 0.0) + s.total

    metrics = {
        "import_s": (setup["import_s"], "s"),
        "languages.get_language.self_s": (setup["languages.get_language.self_s"], "s"),
        "trace.overhead_ratio": (traced / min(untraced), "ratio"),
        "error_rate": (runner.error_rate(), "ratio"),
    }
    for layer in ("terms.infer", "terms.weaken"):
        s = tracer.get(layer)
        metrics[f"{layer}.self_s"] = (s.self, "s")
        metrics[f"{layer}.nodes_per_s"] = (s.nodes / s.total, "1/s")
    for layer in SHARED_LAYERS:
        s = tracer.get(layer)
        metrics[f"{layer}.calls"] = (s.calls, "count")
        metrics[f"{layer}.share"] = (s.self / op_time["all"], "ratio")
    metrics["objtypes.translate_type.calls"] = (tracer.get("objtypes.translate_type").calls, "count")
    gen = tracer.get("laws.gen_term")
    metrics["laws.gen_term.var_share"] = (gen.bare_vars / gen.calls if gen.calls else 0.0, "ratio")
    metrics["laws.gen_term.nodes_mean"] = (gen.nodes / gen.calls if gen.calls else 0.0, "nodes")
    reports = [runner.outputs[op.name] for op in runner.ops if op.kind in ("monad", "xlat")]
    cases = sum(r.cases_run + r.cases_skipped for r in reports)
    skipped = sum(r.cases_skipped for r in reports)
    metrics["laws.skip_rate"] = (skipped / cases if cases else 0.0, "ratio")

    rows = {}
    for (layer, label), s in sorted(tracer.stats.items()):
        key = layer if label == "all" else f"{layer}[{label}]"
        rows[f"{key}.calls"] = (s.calls, "count")
        if s.total:
            rows[f"{key}.total_s"] = (s.total, "s")
            rows[f"{key}.self_s"] = (s.self, "s")
            rows[f"{key}.share"] = (s.self / op_time[label], "ratio")
        if s.nodes and s.total:
            rows[f"{key}.nodes_per_s"] = (s.nodes / s.total, "1/s")
        if layer == "laws.gen_term":
            rows[f"{key}.var_share"] = (s.bare_vars / s.calls, "ratio")
    for key in ("languages.get_translation.self_s", "translate.validate_translation.self_s"):
        rows[key] = (setup[key], "s")
    return metrics, rows, tracer.dump()


# ---------------------------------------------------------------------------
# Entry point


def check_digest(out: Path, seed: int, value: str) -> str | None:
    """Compare with the digest an earlier run recorded for this seed."""
    path = out / "digest.txt"
    if path.exists():
        earlier = path.read_text().strip()
        if earlier != value:
            return f"seed {seed} gave inputs {value}, an earlier run gave {earlier}"
    else:
        path.write_text(value + "\n")
    return None


def show(metrics: dict, prefix: str = "metric") -> None:
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note else ""
        print(f"{prefix} {name} = {value:.6g} {unit}{extra}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = ROOT / ".perfbench_out" / f"{name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](ROOT, out)
    setup = measure_setup(wl)
    ops, probes = wl.build(seed)
    digest = workloads.I.digest(wl.texts)
    digest_problem = check_digest(out, seed, digest)
    print(f"workload {name} seed {seed}: {len(ops)} operations per pass, inputs {digest}")
    for op in ops + probes:
        print(f"input {op.name}: {op.props or op.args[-1]}")

    runner = Runner(wl, ops, probes)
    for op in wl.warm_up(ops):
        runner.run(op)
    # The inputs and references stay alive for the whole run; keep them out
    # of the collector's way so that they do not slow the program's own
    # garbage collections.
    gc.collect()
    gc.freeze()
    if trace:
        metrics, rows, dump = traced_run(wl, runner, setup)
        show(rows, "layer")
        record = {"metrics": metrics, "rows": rows, **dump}
    else:
        passes, kernels = timed_passes(runner, seconds)
        metrics, named = end_to_end(wl, runner, passes, kernels, setup)
        for i, op in enumerate(ops):
            ms = statistics.median(1000 * records[i][1] for records in passes)
            print(f"op {op.name}: median {ms:.6g} ms over {len(passes)} passes")
        show(named, "named")
        record = {"metrics": metrics, "named": named}
    for probe in probes:
        print(f"probe {probe.name}: {', '.join(sorted(set(probe.outcomes)))}")
    for op_name, problem in runner.failures.items():
        print(f"FAILED {op_name}: {problem}")
    if digest_problem:
        print(f"FAILED digest: {digest_problem}")
    show(metrics)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": runner.failed == 0 and digest_problem is None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    record.update(inputs=digest, failures=runner.failures, result=result)
    (out / f"trace{int(trace)}.json").write_text(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own child process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        done = subprocess.run(
            [sys.executable, __file__, *argv, "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=900,
        )
        print(done.stdout, end="")
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/initsyn/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of initsyn: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
