"""Benchmark of axf: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload path-n4 --seed 1 --seconds 20 --trace 0

The run imports ``axf`` from ``src/`` next to this directory and builds the
workload's inputs from the seed, several times over to time set-up.  It then
runs passes over those inputs until ``--seconds`` are used up, at least
``MIN_PASSES`` of them.  Every pass makes the same calls into ``axf`` in the
same order; a call's time is its median over the passes, which keeps a
slow spell of a shared machine during one pass out of the run's figures.  Every verdict and
output is checked; failures are counted, not raised.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` they are the per-layer ones: passes with span recorders
around each module's entry points alternate with untraced passes, all at
AXF_THREADS=1, and the difference in time is the tracing overhead.  The line
before the result holds the run's environment, input fingerprint and sizes.
bench/METRICS.md says what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from math import ceil, exp, log
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5  # set-ups per run; setup_s is their median
PROBE_BURST = 5  # probes at each end of a pass, for calls too long to probe within
MIN_PASSES = 3


def import_axf() -> None:
    """Make ``axf`` (from src/) and the benchmark's modules importable."""
    if not (ROOT / "src" / "axf" / "__init__.py").is_file():
        raise SystemExit(f"error: no axf sources under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)


def fresh_axf():
    """Import axf anew, so that each set-up pays the import."""
    for name in [n for n in sys.modules if n == "axf" or n.startswith("axf.")]:
        del sys.modules[name]
    return importlib.import_module("axf"), importlib.import_module("axf.cli")


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def geomean(values) -> float:
    values = list(values)
    return exp(sum(log(v) for v in values) / len(values))


def call_times(passes, probe) -> list[float]:
    """Each call's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p.scaled(probe) for p in passes))]


def peak_rss_mb(with_children: bool) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


@contextlib.contextmanager
def count_pools(counter: list):
    """Count the process pools the verifier starts."""
    verifier = sys.modules["axf.verifier"]
    original = verifier.ProcessPoolExecutor

    class Counted(original):
        def __init__(self, *args, **kwargs):
            counter[0] += 1
            super().__init__(*args, **kwargs)

    verifier.ProcessPoolExecutor = Counted
    try:
        yield
    finally:
        verifier.ProcessPoolExecutor = original


class Run:
    def __init__(self, workload, seed: int, seconds: float) -> None:
        from workloads import Gate, SpeedProbe

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.gate = Gate()
        self.probe = SpeedProbe()
        self.setup_times: list[float] = []  # scaled like call times

    def setup(self) -> list[str]:
        for _ in range(SETUPS):
            self.probe.sample()
            start = perf_counter()
            self.ax, self.ax_cli = fresh_axf()
            texts = self.workload.setup(self.ax, self.seed)
            end = perf_counter()
            self.probe.sample()
            self.setup_times.append((end - start) * self.probe.scale(start, end))
        return texts

    def one_pass(self, threads: int, tracer=None):
        from workloads import PassStats, Timer

        os.environ["AXF_THREADS"] = str(threads)
        stats = PassStats(in_process=threads == 1)
        timer = Timer(self.gate, stats, self.probe, tracer)
        self.probe.sample(PROBE_BURST)
        self.workload.run_pass(self.ax, self.ax_cli, timer, self.gate)
        self.probe.sample(PROBE_BURST)
        return stats

    def time_left(self, start: float, last_pass: float) -> bool:
        """Whether another pass as long as the last one fits in the run."""
        return perf_counter() - start + last_pass <= self.seconds


def end_to_end(run: Run, passes) -> dict:
    wl = run.workload
    calls = call_times(passes, run.probe)
    ends = passes[0].program_ends
    programs = [sum(calls[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    wall = sum(calls)
    return {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "wall_s": (wall, "s"),
        "programs_per_s": (len(programs) / wall, "1/s"),
        "program_p50_ms": (1000 * statistics.median(programs), "ms"),
        "program_p90_ms": (1000 * percentile(programs, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(wl.threads > 1), "MiB"),
    }


def per_layer(run: Run, plain, untraced, traced, tracer, pools: int) -> dict:
    """Per-layer metrics.  ``plain`` holds the untraced passes at the
    workload's own thread count.  Span figures are means per traced pass,
    scaled by the traced passes' mean probe speed, so that they still add
    up to the traced pass time."""
    wl = run.workload
    n = len(traced)
    scale = statistics.fmean(run.probe.scale(p.spans[0][0], p.spans[-1][1]) for p in traced)
    total = {k: scale * v / n for k, v in tracer.total.items()}
    calls = {k: v / n for k, v in tracer.calls.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    module = {k: scale * v / n for k, v in tracer.module_self.items()}
    traced_wall = scale * statistics.fmean(p.wall for p in traced)
    untraced_wall = statistics.fmean(sum(p.scaled(run.probe)) for p in untraced)
    typical = call_times(plain, run.probe)

    def t(key):
        return total.get(key, 0.0)

    def per_state_ms(label):
        indices = plain[0].eval_calls.get(label)
        return 1000 * statistics.median(typical[i] for i in indices) if indices else 0.0

    parse_s = t("parser.parse_program") + t("parser.parse_state")
    metrics = {
        "states_per_s": (plain[0].states / sum(typical), "1/s"),
        "gen_eval_ms": (per_state_ms("transformed"), "ms"),
        "error_rate": (run.gate.failed / max(run.gate.attempted, 1), "ratio"),
        "output_nodes": (sum(after for _, after in wl.outputs), "count"),
        "output_growth_geomean": (geomean(after / before for before, after in wl.outputs), "ratio"),
        "parser.parse_s": (parse_s, "s"),
        "parser.print_s": (t("parser.print_program") + t("parser.print_state"), "s"),
        "parser.bytes_per_s": (counts.get("parser.bytes", 0) / parse_s if parse_s else 0.0, "B/s"),
        "logic.program_build_s": (t("logic.__init__"), "s"),
        "logic.program_builds": (calls.get("logic.__init__", 0), "count"),
        "logic.check_stratified_s": (t("logic.check_stratified"), "s"),
        "logic.negative_occurrences_s": (t("logic.negative_occurrences"), "s"),
        "transformer.eliminate_s": (
            scale * tracer.self_time.get("transformer.eliminate_negative_occurrences", 0.0) / n, "s"),
        "transformer.eliminate_calls": (calls.get("transformer.eliminate_negative_occurrences", 0), "count"),
        "transformer.stage_axioms_s": (t("transformer.generate_stage_axioms"), "s"),
        "transformer.stage_axioms_calls": (calls.get("transformer.generate_stage_axioms", 0), "count"),
        "transformer.merge_s": (t("transformer.merge_to_single_stratum"), "s"),
        "transformer.iterations": (counts.get("transformer.iterations", 0), "count"),
        "transformer.families": (counts.get("transformer.families", 0), "count"),
        "evaluator.engine_build_s": (t("evaluator.__init__"), "s"),
        "evaluator.engines_built": (calls.get("evaluator.__init__", 0), "count"),
        "evaluator.run_s": (t("evaluator.run"), "s"),
        "evaluator.runs": (calls.get("evaluator.run", 0), "count"),
        "evaluator.staged_run_s": (t("evaluator.run_with_stages"), "s"),
        "evaluator.stage_relations_s": (t("evaluator.stage_relations"), "s"),
        "evaluator.atoms_out": (counts.get("evaluator.atoms_out", 0), "count"),
        "evaluator.run_original_ms": (per_state_ms("original"), "ms"),
        "evaluator.run_transformed_ms": (per_state_ms("transformed"), "ms"),
        "evaluator.run_merged_ms": (per_state_ms("merged"), "ms"),
        "verifier.theorem1_s": (t("verifier.verify_theorem1"), "s"),
        "verifier.theorem2_s": (t("verifier.verify_theorem2"), "s"),
        "verifier.equivalence_s": (t("verifier.verify_equivalence"), "s"),
        "verifier.aux_s": (t("verifier.verify_aux"), "s"),
        "verifier.order_s": (t("verifier.verify_order_independence"), "s"),
        "verifier.polarity_s": (t("verifier.check_polarity"), "s"),
        "verifier.states_checked": (counts.get("verifier.states_checked", 0), "count"),
        "verifier.pools_started": (pools, "count"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.other_s": (traced_wall - sum(module.values()), "s"),
        "trace_overhead_s": (traced_wall - untraced_wall, "s"),
    }
    from tracing import MODULES

    for name in MODULES:
        metrics[f"{name}.self_s"] = (module.get(name, 0.0), "s")
    return metrics


def measure(workload, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run: set-up, passes, output checks; returns (info, result)."""
    load_start = os.getloadavg()
    run = Run(workload, seed, seconds)
    texts = run.setup()
    fingerprint = hashlib.sha256("\n\x00".join(texts).encode("utf-8")).hexdigest()

    start = perf_counter()
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        pools = [0]
        with count_pools(pools):
            plain = [run.one_pass(workload.threads)]
        untraced = list(plain) if workload.threads == 1 else []
        traced = []
        done = list(plain)
        while True:
            before = perf_counter()
            if len(untraced) == len(traced):
                untraced.append(run.one_pass(1))
                done.append(untraced[-1])
            tracer.install()
            try:
                traced.append(run.one_pass(1, tracer))
            finally:
                tracer.uninstall()
            done.append(traced[-1])
            if not run.time_left(start, perf_counter() - before):
                break
    else:
        done = []
        while True:
            before = perf_counter()
            done.append(run.one_pass(workload.threads))
            if len(done) >= MIN_PASSES and not run.time_left(start, perf_counter() - before):
                break
    workload.final_checks(run.ax, run.gate)

    if trace:
        metrics = per_layer(run, plain, untraced, traced, tracer, pools[0])
    else:
        metrics = end_to_end(run, done)
    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "axf_threads": 1 if trace else workload.threads,
        "sizes": workload.sizes(),
        "passes": len(done),
        "setups": [round(s, 6) for s in run.setup_times],
        "raw_pass_s": [round(p.wall, 6) for p in done],
        "probe_s": {
            "nominal": run.probe.nominal,
            "median": statistics.median(run.probe.took),
            "min": min(run.probe.took),
            "max": max(run.probe.took),
            "samples": len(run.probe.took),
        },
        "input_fingerprint": fingerprint,
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "failures": run.gate.notes,
    }
    result = {
        "correct": run.gate.failed == 0,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("path-n4", "random-n2", "compile", "path-pool")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_axf()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    info, result = measure(workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
