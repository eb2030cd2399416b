"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs one *pass* over them per call of ``run_pass``.  A pass times every call
it makes into ``axf`` and checks every verdict and output it gets back
against ``Gate``; the checks run outside the timed calls.  ``final_checks``
runs once per run, after the passes, for checks too slow to repeat (the
reference interpreter) and for the output-size accounting.

Workloads reach ``axf`` only through the module object handed to them
(``ax`` for the package, ``ax_cli`` for ``axf.cli``), because the set-up
measurement re-imports the package and older class objects must not leak
into a pass.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import log
from pathlib import Path
from time import perf_counter

from reference import reference_extension, staged_fixpoint

ROOT = Path(__file__).resolve().parent.parent
PATH_FILE = ROOT / "samples" / "path.axp"
GOLDEN_FILE = ROOT / "tests" / "golden" / "path_transformed.axp"
MUTATIONS = ("eq1", "eq2", "eq3", "eq4", "eq5")


class Gate:
    """Counts operations and failed operations.

    An operation is one checked verdict or output, or one call into ``axf``
    that raised.  A failure is recorded, never raised, so a run always
    finishes and reports its error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


# One probe is a fixed piece of pure-Python work shaped like the engine's:
# closures over a variable environment testing tuple keys against a frozen
# set of a few thousand atoms.  Timed next to the calls into axf, it
# measures how fast the machine runs at that moment; every call time is
# scaled by PROBE_S / (probe time around it), so the figures read as
# seconds on a machine where the probe takes PROBE_S.
PROBE_S = 0.010
PROBE_EVERY = 0.25  # seconds of work between probes
PROBE_WINDOW = 2.0  # seconds around a call whose probes set its scale
_PROBE_ATOMS = frozenset(
    (f"P{i % 7}", (f"o{i % 5}", f"o{i % 11}", f"o{i % 13}", f"o{i % 3}")) for i in range(6000)
)
_PROBE_OBJECTS = tuple(f"o{i}" for i in range(13))


def _probe_work() -> int:
    def atom(name, env, atoms):
        return (name, (env["x"], env["y"], env["z"], env["w"])) in atoms

    def body(env, atoms):
        return atom("P3", env, atoms) or (atom("P5", env, atoms) and not atom("P1", env, atoms))

    env: dict = {}
    hits = 0
    for _ in range(4):
        for x in _PROBE_OBJECTS[:5]:
            env["x"] = x
            for y in _PROBE_OBJECTS[:11]:
                env["y"] = y
                for z in _PROBE_OBJECTS:
                    env["z"] = z
                    for w in _PROBE_OBJECTS[:3]:
                        env["w"] = w
                        hits += body(env, _PROBE_ATOMS)
    return hits


class SpeedProbe:
    """Timeline of probe timings over one run."""

    nominal = PROBE_S

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each probe
        self.took: list[float] = []
        self.last = float("-inf")

    def sample(self, count: int = 1) -> None:
        collecting = gc.isenabled()
        gc.disable()
        for _ in range(count):
            start = perf_counter()
            _probe_work()
            end = perf_counter()
            self.times.append((start + end) / 2)
            self.took.append(end - start)
        if collecting:
            gc.enable()
        self.last = end

    def maybe_sample(self) -> None:
        """Probe once per PROBE_EVERY of work since the last probe, up to
        four times, so that long calls are bracketed by several probes."""
        due = int((perf_counter() - self.last) / PROBE_EVERY)
        if due:
            self.sample(min(due, 4))

    def scale(self, start: float, end: float) -> float:
        """PROBE_S over the mean time of the probes within PROBE_WINDOW of
        the interval, and at least the last one before it and the first
        one after it."""
        lo = max(min(bisect_left(self.times, start - PROBE_WINDOW), bisect_right(self.times, start) - 1), 0)
        hi = max(bisect_right(self.times, end + PROBE_WINDOW), bisect_left(self.times, end) + 1)
        took = self.took[lo:hi] or self.took[-1:]
        return PROBE_S * len(took) / sum(took)


@dataclass
class PassStats:
    """What one pass measured.  Every pass over the same inputs makes the
    same calls in the same order, so call k of one pass and call k of
    another are the same work."""

    calls: list[float] = field(default_factory=list)  # seconds per timed call
    spans: list[tuple[float, float]] = field(default_factory=list)  # start, end of each call
    program_ends: list[int] = field(default_factory=list)  # call count at each program's end
    states: int = 0  # states_checked summed over every sweep
    eval_calls: dict[str, list[int]] = field(default_factory=dict)  # per-state extend call indices
    in_process: bool = True  # False when AXF_THREADS > 1 lets sweeps run in pool workers

    @property
    def wall(self) -> float:
        return sum(self.calls)

    def end_program(self) -> None:
        self.program_ends.append(len(self.calls))

    def scaled(self, probe: SpeedProbe) -> list[float]:
        """Call times scaled to the probe's nominal machine speed.  The probe
        runs in this process, so it cannot speak for work done in pool
        workers: such passes keep their measured times."""
        if not self.in_process:
            return list(self.calls)
        return [t * probe.scale(*span) for t, span in zip(self.calls, self.spans)]


class Timer:
    """Times calls into ``axf`` for one pass, probing the machine's speed
    between them, and turns the tracer on around them; an exception from
    ``axf`` becomes a failed operation."""

    def __init__(self, gate: Gate, stats: PassStats, probe: SpeedProbe, tracer=None) -> None:
        self.gate = gate
        self.stats = stats
        self.probe = probe
        self.tracer = tracer

    def __call__(self, what: str, fn, *args, **kwargs):
        self.probe.maybe_sample()
        if self.tracer is not None:
            self.tracer.active = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - any axf exception is a failed operation
            self.gate.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        finally:
            end = perf_counter()
            if self.tracer is not None:
                self.tracer.active = False
            self.stats.calls.append(end - start)
            self.stats.spans.append((start, end))


def _state_text(atoms) -> str:
    return " ".join(f"({name} {' '.join(args)})" for name, args in sorted(atoms))


def _read_path(ax):
    return ax.parse_program(PATH_FILE.read_text(encoding="utf-8"), str(PATH_FILE))


def _golden_check(ax, gate: Gate, transformed) -> None:
    gate.check(
        transformed is not None
        and ax.print_program(transformed) == GOLDEN_FILE.read_text(encoding="utf-8"),
        "path transform differs from tests/golden/path_transformed.axp",
    )


class Workload:
    name = ""
    threads = 1

    def __init__(self) -> None:
        self.outputs: list[tuple[int, int]] = []  # (size before, size after) per transform

    def setup(self, ax, seed: int) -> list[str]:
        """Build the inputs; return the texts that fingerprint them."""
        raise NotImplementedError

    def run_pass(self, ax, ax_cli, timer: Timer, gate: Gate) -> None:
        raise NotImplementedError

    def final_checks(self, ax, gate: Gate) -> None:
        pass

    def sizes(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# path-n4: the evaluator's workload

# The run time of a state on path-n4 follows the number of rounds the
# stage-relation stratum needs, which is set by the rounds f of the path
# stratum and by whether every path atom is derived.  Each slot asks for
# one such class; the mix follows their frequency among uniform draws.
PATH_SLOTS = ((1, True), (1, False), (1, False), (2, True), (2, True), (2, True),
              (2, False), (2, False), (3, True), (3, False))


class PathN4(Workload):
    """Every check on K sampled 4-object states of ``samples/path.axp``,
    plus extension of the original, transformed and merged programs on
    each state and the five generator sabotages on the 2-object universe.

    State k is the first draw of random density, from the seed, whose path
    stratum has the class ``PATH_SLOTS[k]``, so that every seed runs states
    of the same classes."""

    name = "path-n4"

    def __init__(self, slots=PATH_SLOTS, *, unmutated=None, corrupt_transformed: bool = False):
        super().__init__()
        self.slots = slots
        self.unmutated = unmutated  # self-test hook: sabotage the checks that must pass
        self.corrupt_transformed = corrupt_transformed  # self-test hook
        self.extensions: dict[str, list] = {}

    def sizes(self) -> dict:
        return {"K": len(self.slots), "draws": self.draws}

    def setup(self, ax, seed: int) -> list[str]:
        self.program = _read_path(ax)
        self.u4 = ax.universe_for(self.program, 4)
        self.u2 = ax.universe_for(self.program, 2)
        cells = ax.basic_cells(self.program, self.u4)
        self.states = []
        self.draws = 0
        for k, (rounds, full) in enumerate(self.slots):
            while True:
                rng = random.Random(f"{seed}:path-n4:{k}:{self.draws}")
                self.draws += 1
                density = rng.random()
                state = frozenset(c for c in cells if rng.random() < density)
                atoms = set(state)
                f = staged_fixpoint(self.program.strata[0], self.u4.objects, atoms)
                every_path = len(atoms) - len(state) == len(self.u4.objects) ** 2  # path is binary
                if (f, every_path) == (rounds, full):
                    break
            self.states.append(state)
        basic = frozenset(p.name for p in self.program.basic_predicates)
        self.assignments = [ax.TruthAssignment(self.u4, s, basic) for s in self.states]
        return [ax.print_program(self.program)] + [_state_text(s) for s in self.states]

    def run_pass(self, ax, ax_cli, timer: Timer, gate: Gate) -> None:
        program, u4, states = self.program, self.u4, self.states
        stats = timer.stats
        checks = [timer("check_polarity", ax.check_polarity, program)]
        for index in range(len(program.strata)):
            checks.append(
                timer("verify_theorem1", ax.verify_theorem1, program, index, u4,
                      states=states, mutation=self.unmutated)
            )
            checks.append(timer("verify_theorem2", ax.verify_theorem2, program, index, u4, states=states))
        checks.append(timer("verify_equivalence", ax.verify_equivalence, program, u4, states=states))
        checks.append(timer("verify_aux", ax.verify_aux, program, u4, states=states))
        checks.append(
            timer("verify_order_independence", ax.verify_order_independence, program, u4, states=states)
        )
        for result in checks:
            if result is not None:
                gate.check(result.passed, f"path-n4: {result.name} failed")
                stats.states += result.states_checked

        for mutation in MUTATIONS:
            result = timer(f"sabotage {mutation}", ax.verify_theorem1, program, 0, self.u2, mutation=mutation)
            if result is not None:
                gate.check(not result.passed, f"path-n4: sabotage {mutation} not caught")
                stats.states += result.states_checked

        made = timer("eliminate_negative_occurrences", ax.eliminate_negative_occurrences, program)
        transformed = made[0] if made is not None else None
        if self.corrupt_transformed and transformed is not None:
            transformed = _corrupt(ax, transformed)
        merged = timer("merge_to_single_stratum", ax.merge_to_single_stratum, transformed)
        programs = {"original": program, "transformed": transformed, "merged": merged}
        extensions: dict[str, list] = {}
        for label, prog in programs.items():
            calls = stats.eval_calls.setdefault(label, [])
            got = extensions.setdefault(label, [])
            for assignment in self.assignments:
                calls.append(len(stats.calls))
                ext = timer(f"extend {label}", ax.extend, prog, u4, assignment)
                got.append(None if ext is None else ext.true_atoms)
        stats.end_program()
        if not self.extensions:
            self.transformed, self.merged = transformed, merged
            self.extensions = extensions
            _golden_check(ax, gate, transformed)
        else:
            gate.check(extensions == self.extensions, "path-n4: extensions differ between passes")

    def final_checks(self, ax, gate: Gate) -> None:
        """Re-check the first pass's extensions on the reference interpreter."""
        programs = {"original": self.program, "transformed": self.transformed, "merged": self.merged}
        for label, got in self.extensions.items():
            if programs[label] is None:
                continue  # its calls already failed
            for atoms, state in zip(got, self.states):
                want = reference_extension(programs[label], self.u4.objects, state)
                gate.check(atoms == want, f"path-n4: {label} extension differs from the reference")
        _, report = ax.eliminate_negative_occurrences(self.program)
        self.outputs = [(report.metrics_before.total_size, report.metrics_after.total_size)]


def _corrupt(ax, program):
    """Swap the bodies of the first two stage axioms (self-test only)."""
    strata = [list(s) for s in program.strata]
    first, second = strata[1][0], strata[1][1]
    strata[1][0] = ax.Axiom(first.head_pred, first.head_vars, second.body)
    return ax.AxiomProgram(program.signature.values(), program.universe_hint, strata, validate=False)


# ---------------------------------------------------------------------------
# Random programs, drawn by cost bin
#
# The run time of a random program varies over two orders of magnitude, so
# a plain draw of a few hundred makes the total swing with the seed by more
# than any bound worth having.  The draw is therefore stratified: a static
# cost estimate, computed by the benchmark from the program text alone,
# puts each candidate in one of a fixed set of bins, and a candidate is kept
# only while its bin still has room.  Every seed then gets the same number
# of programs from each bin; which programs they are still depends on the
# seed alone.


def _negated_preds(formula, negative=False, out=None) -> set:
    out = set() if out is None else out
    kind = type(formula).__name__
    if kind == "Atom":
        if negative:
            out.add(formula.pred)
    elif kind == "Not":
        _negated_preds(formula.sub, not negative, out)
    elif kind in ("And", "Or"):
        for sub in formula.subs:
            _negated_preds(sub, negative, out)
    elif kind in ("Exists", "Forall"):
        _negated_preds(formula.sub, negative, out)
    return out


def _nodes(formula, objects: int) -> int:
    """Formula size, each node weighted by how often its quantifiers repeat
    it over ``objects`` objects."""
    kind = type(formula).__name__
    if kind in ("Exists", "Forall"):
        return 1 + objects ** len(formula.vars) * _nodes(formula.sub, objects)
    if kind == "Not":
        return 1 + _nodes(formula.sub, objects)
    if kind in ("And", "Or"):
        return 1 + sum(_nodes(s, objects) for s in formula.subs)
    return 1


def _strata(program, objects: int):
    """(members, max arity, weighted body nodes, head instances x weighted
    nodes, gets a stage family) per stratum."""
    negated: set = set()
    for stratum in program.strata:
        for axiom in stratum:
            _negated_preds(axiom.body, out=negated)
    for stratum in program.strata:
        heads = {ax.head_pred: len(ax.head_vars) for ax in stratum}
        yield (
            len(heads),
            max(heads.values()),
            sum(_nodes(ax.body, objects) for ax in stratum),
            sum(objects ** len(ax.head_vars) * _nodes(ax.body, objects) for ax in stratum),
            bool(negated & set(heads)),
        )


def sweep_cost(program) -> float:
    """Estimated work of ``run_checks`` at n=2: basic states times the
    formula nodes one state evaluates, stage families included.  Fitted to
    measured run times (log residual about 0.5)."""
    cells = sum(2 ** p.arity for p in program.basic_predicates)
    work = 10.0
    for m, r, weighted, instances, negated in _strata(program, 2):
        family = 5 * m * m * 4 ** r * weighted
        work += instances + 0.03 * family + (0.1 * family if negated else 0.0)
    return 2.0 ** cells * work


def stratified_draw(make, cost, edges, n: int):
    """``n`` programs from ``make(0), make(1), ...``, the same number from
    each bin between consecutive ``edges`` of log2(cost); programs outside
    the edges are skipped.  Returns the programs in draw order and the
    number of candidates drawn."""
    bins = len(edges) - 1
    room = [n // bins + (1 if b < n % bins else 0) for b in range(bins)]
    kept = []
    j = 0
    while any(room):
        program = make(j)
        j += 1
        c = log(cost(program), 2)
        if not edges[0] <= c < edges[-1]:
            continue
        b = sum(c >= edge for edge in edges[1:-1])
        if room[b]:
            room[b] -= 1
            kept.append(program)
    return kept, j


# Bin edges of log2(sweep_cost): eight equal-frequency bins over the 2,002
# programs with at most 3 basic cells among
# generate_random_program("pop:0" .. "pop:5999"), up to the population's
# 70th percentile.
SWEEP_EDGES = (0.0, 7.42, 7.92, 8.32, 8.66, 9.01, 9.39, 9.71, 10.12)


class RandomN2(Workload):
    """``run_checks`` at n=2 on N random default-profile programs whose
    exhaustive sweeps are tiny: at most 3 basic cells (8 states), and below
    the 70th percentile of the sweep cost estimate.  Here per-sweep set-up
    outweighs per-state work; large sweeps are path-n4's and path-pool's."""

    name = "random-n2"
    MAX_CELLS = 3

    def __init__(self, n: int = 200):
        super().__init__()
        self.n = n

    def sizes(self) -> dict:
        return {"N": self.n, "max_cells": self.MAX_CELLS, "candidates": self.candidates}

    def setup(self, ax, seed: int) -> list[str]:
        profile = ax.RandomProfile()

        def make(j):
            return ax.generate_random_program(f"{seed}:random-n2:{j}", profile)

        def cost(program):
            if sum(2 ** p.arity for p in program.basic_predicates) > self.MAX_CELLS:
                return float("inf")
            return sweep_cost(program)

        self.programs, self.candidates = stratified_draw(make, cost, SWEEP_EDGES, self.n)
        self.plan = ax.VerificationPlan(universe_sizes=(2,))
        return [ax.print_program(p) for p in self.programs]

    def run_pass(self, ax, ax_cli, timer: Timer, gate: Gate) -> None:
        for k, program in enumerate(self.programs):
            result = timer("run_checks", ax.run_checks, program, self.plan)
            timer.stats.end_program()
            if result is not None:
                gate.check(result.passed, f"random-n2: program {k} failed {result.to_json()}")
                timer.stats.states += sum(c.states_checked for c in result.checks)

    def final_checks(self, ax, gate: Gate) -> None:
        self.outputs = []
        for program in self.programs:
            _, report = ax.eliminate_negative_occurrences(program)
            self.outputs.append((report.metrics_before.total_size, report.metrics_after.total_size))


# ---------------------------------------------------------------------------
# compile: the compiler path, no evaluation

def growth_programs() -> list[str]:
    """Programs with m = 1..4 transitive closures in one stratum, each
    negated by a later stratum (acceptance criterion 6)."""
    texts = []
    for m in (1, 2, 3, 4):
        decls = " ".join(f"(D{k} 2)" for k in range(m))
        axioms = " ".join(
            f"(axiom (D{k} ?x ?y) (or (E ?x ?y) (exists (?z) (and (D{k} ?x ?z) (E ?z ?y)))))"
            for k in range(m)
        )
        neg = " ".join(f"(not (D{k} ?x ?x))" for k in range(m))
        texts.append(
            f"(program (objects a b) (basic (E 2)) (derived {decls} (S 1))"
            f" (stratum {axioms}) (stratum (axiom (S ?x) (and {neg} (E ?x ?x)))))"
        )
    return texts


# Member arities per stratum and body size per axiom.  Every stratum but
# the last gets a stage family, because the last one negates a member of
# each; so a shape fixes the transform's work and the seed fixes the rest.
COMPILE_SHAPES = (
    (((2,), (1,)), 12),
    (((2, 1), (1,)), 12),
    (((1, 1), (2,), (0,)), 10),
    (((2, 2), (1,), (0,)), 10),
    (((2,), (2,), (1,), (0,)), 8),
    (((1, 2, 1), (1,)), 8),
    (((2, 2, 1), (2,), (0,)), 8),
    (((2, 1), (1, 1), (2,), (0,)), 8),
)


def sized_program(ax, rng: random.Random, strata, body_size: int):
    """A random stratified program over objects a b c and basic predicates
    B1/2, B2/1, B3/0, with the given member arities per stratum and one
    axiom of exactly ``body_size`` formula nodes per member.  The last
    stratum also negates the first member of every earlier stratum."""
    objects = ("a", "b", "c")
    basics = [ax.Predicate("B1", 2, "basic"), ax.Predicate("B2", 1, "basic"), ax.Predicate("B3", 0, "basic")]
    predicates = list(basics)
    earlier: list = []
    firsts: list = []
    built = []
    for si, arities in enumerate(strata):
        members = [ax.Predicate(f"D{si + 1}_{k + 1}", r, "derived") for k, r in enumerate(arities)]
        predicates.extend(members)
        fresh = iter(range(1, 1000))

        def atom(scope, positive):
            pred = rng.choice(basics + earlier + (members if positive else []))
            args = tuple(
                ax.Var(rng.choice(scope)) if scope and rng.random() < 0.9 else ax.Const(rng.choice(objects))
                for _ in range(pred.arity)
            )
            return ax.Atom(pred.name, args)

        def gen(size, scope, positive):
            if size == 1:
                return atom(scope, positive)
            roll = rng.random()
            if size >= 3 and roll < 0.6:
                left = rng.randint(1, size - 2)
                kind = ax.And if rng.random() < 0.5 else ax.Or
                return kind((gen(left, scope, positive), gen(size - 1 - left, scope, positive)))
            if roll < 0.8:
                return ax.Not(gen(size - 1, scope, not positive))
            var = f"q{next(fresh)}"
            kind = ax.Exists if rng.random() < 0.5 else ax.Forall
            return kind((var,), gen(size - 1, scope + (var,), positive))

        axioms = []
        for member in members:
            head = ("x", "y")[: member.arity]
            body = gen(body_size, head, True)
            if si == len(strata) - 1 and firsts:
                negs = tuple(
                    ax.Not(ax.Atom(f.name, tuple(ax.Const(rng.choice(objects)) for _ in range(f.arity))))
                    for f in firsts
                )
                body = ax.And((body,) + negs)
            axioms.append(ax.Axiom(member.name, head, body))
        built.append(tuple(axioms))
        earlier.extend(members)
        firsts.append(members[0])
    return ax.AxiomProgram(predicates, objects, built)


class Compile(Workload):
    """print -> parse -> transform (plain and aux) -> merge -> simplify ->
    print -> parse, then the polarity check, on N random programs of fixed
    shapes (``COMPILE_SHAPES`` in turn), plus ``path`` and the four growth
    programs."""

    name = "compile"

    def __init__(self, n: int = 40):
        super().__init__()
        self.n = n

    def sizes(self) -> dict:
        return {"N": self.n, "fixed": 5}

    def setup(self, ax, seed: int) -> list[str]:
        self.programs = []
        for j in range(self.n):
            strata, body_size = COMPILE_SHAPES[j % len(COMPILE_SHAPES)]
            rng = random.Random(f"{seed}:compile:{j}")
            self.programs.append(sized_program(ax, rng, strata, body_size))
        self.programs.append(_read_path(ax))
        self.programs.extend(ax.parse_program(text) for text in growth_programs())
        return [ax.print_program(p) for p in self.programs]

    def run_pass(self, ax, ax_cli, timer: Timer, gate: Gate) -> None:
        self.outputs = []
        for k, program in enumerate(self.programs):
            got = timer("compile", _compile_one, ax, program)
            timer.stats.end_program()
            if got is None:
                continue
            out, report, merged, polarity = got
            text = ax.print_program(out)
            ok = (
                ax.print_program(ax.parse_program(text)) == text
                and not ax.lint_polarity(out)
                and not ax.lint_polarity(merged)
                and polarity.passed
            )
            gate.check(ok, f"compile: program {k} output fails the round trip or the lint")
            self.outputs.append((report.metrics_before.total_size, report.metrics_after.total_size))
            if k == self.n:  # samples/path.axp
                _golden_check(ax, gate, out)


def _compile_one(ax, program):
    parsed = ax.parse_program(ax.print_program(program))
    out, report = ax.eliminate_negative_occurrences(parsed)
    ax.eliminate_negative_occurrences(parsed, optimize_aux=True)
    merged = ax.merge_to_single_stratum(out)
    simplified = ax.AxiomProgram(
        merged.signature.values(),
        merged.universe_hint,
        tuple(
            tuple(ax.Axiom(a.head_pred, a.head_vars, ax.collapse_double_negation(a.body)) for a in s)
            for s in merged.strata
        ),
    )
    ax.parse_program(ax.print_program(simplified))
    polarity = ax.check_polarity(parsed)
    return out, report, merged, polarity


# ---------------------------------------------------------------------------
# path-pool: the CLI and the process-pool sweep

class PathPool(Workload):
    """``axf verify samples/path.axp --universe 2 3 --checks
    polarity,theorem2,order --json`` through ``axf.cli.main`` in-process."""

    name = "path-pool"
    threads = 2

    def __init__(self, universe=("2", "3")):
        super().__init__()
        self.universe = tuple(universe)
        self.expected = {"polarity": 0}
        for n in self.universe:
            states = 2 ** (int(n) ** 2)  # one binary E over n objects
            self.expected.update({
                f"theorem2[n={n},stratum=0]": states,
                f"theorem2[n={n},stratum=1]": states,
                f"order[n={n}]": states,
            })

    def setup(self, ax, seed: int) -> list[str]:
        # The command line is fixed; the seed has nothing to vary here.
        self.argv = ["verify", str(PATH_FILE), "--universe", *self.universe,
                     "--checks", "polarity,theorem2,order", "--json"]
        self.program = _read_path(ax)
        return [ax.print_program(self.program), " ".join(self.argv[2:])]

    def run_pass(self, ax, ax_cli, timer: Timer, gate: Gate) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = timer("cli.main", ax_cli.main, self.argv)
        timer.stats.end_program()
        try:
            payload = json.loads(out.getvalue())
        except ValueError:
            gate.check(False, f"path-pool: exit {code}, output is not JSON")
            return
        got = {c["name"]: c["states_checked"] for c in payload["checks"]}
        gate.check(
            code == 0 and payload["passed"] and got == self.expected,
            f"path-pool: exit {code}, verdicts {got}",
        )
        timer.stats.states += sum(got.values())

    def final_checks(self, ax, gate: Gate) -> None:
        transformed, report = ax.eliminate_negative_occurrences(self.program)
        _golden_check(ax, gate, transformed)
        self.outputs = [(report.metrics_before.total_size, report.metrics_after.total_size)]


WORKLOADS = {w.name: w for w in (PathN4, RandomN2, Compile, PathPool)}

