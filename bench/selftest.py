"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload at a size that takes seconds, untraced and traced, and
checks that every metric BENCHMARK.json names is emitted with its unit, that
the output check passes on the unmodified code, that exact counts and the
input fingerprint repeat under the same seed, that the traced self times add
up to the traced wall time, and that the output check bites: a sabotaged
(eq1) stage family where a passing one is expected, or a corrupted
transformed program, must give a non-zero error rate.  Exits 1 on the first
broken expectation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

EXACT = (
    "output_nodes",
    "output_growth_geomean",
    "verifier.states_checked",
    "evaluator.atoms_out",
    "transformer.iterations",
)
SELF_TIMES = ("parser", "logic", "transformer", "evaluator", "verifier", "cli")


def tiny(name: str, **hooks):
    from workloads import Compile, PathN4, PathPool, RandomN2

    return {
        "path-n4": lambda: PathN4(slots=((1, False), (2, True)), **hooks),
        "random-n2": lambda: RandomN2(n=3),
        "compile": lambda: Compile(n=2),
        "path-pool": lambda: PathPool(universe=("2",)),
    }[name]()


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        raise SystemExit(1)
    print(f"ok   {what}")


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    run.import_axf()
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in (0, 1):
            info, result = run.measure(tiny(name), seed=3, seconds=0.0, trace=trace)
            metrics = result["metrics"]
            for metric in wanted[trace]:
                got = metrics.get(metric["name"])
                expect(
                    got is not None
                    and got["unit"] == metric["unit"]
                    and isinstance(got["value"], (int, float)),
                    f"{name} trace={trace}: {metric['name']} emitted in {metric['unit']}",
                )
            expect(
                set(metrics) == {m["name"] for m in wanted[trace]},
                f"{name} trace={trace}: no metric beyond BENCHMARK.json",
            )
            expect(result["failed"] == 0 and result["correct"], f"{name} trace={trace}: output check passes")
            if trace:
                covered = sum(metrics[f"{m}.self_s"]["value"] for m in SELF_TIMES)
                covered += metrics["bench.other_s"]["value"]
                wall = metrics["bench.traced_wall_s"]["value"]
                expect(abs(covered - wall) <= 1e-9 * max(wall, 1.0), f"{name}: self times add up to the traced wall")
                again_info, again = run.measure(tiny(name), seed=3, seconds=0.0, trace=1)
                expect(
                    all(again["metrics"][k] == metrics[k] for k in EXACT)
                    and again_info["input_fingerprint"] == info["input_fingerprint"],
                    f"{name}: exact counts and fingerprint repeat under the same seed",
                )
    for hooks, what in (
        ({"unmutated": "eq1"}, "a sabotaged (eq1) family where a passing one is expected"),
        ({"corrupt_transformed": True}, "a corrupted transformed program"),
    ):
        _, result = run.measure(tiny("path-n4", **hooks), seed=3, seconds=0.0, trace=1)
        rate = result["metrics"]["error_rate"]["value"]
        expect(rate > 0 and not result["correct"], f"gate bites on {what} (error_rate {rate:.3f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
