"""Brute-force semantic verification on small finite universes.

Everything here reduces a claim about the transformation to a finite sweep:
enumerate (or sample) basic states over a small universe, evaluate the
programs involved, and compare against an independent oracle computed by
the staged evaluator.  Checks:

  theorem1     the generated stage relations, evaluated as axioms, match
               the relations read off the staged oracle exactly
  theorem2     P_i(a) holds iff nleq_ii(a, a) does not
  equivalence  original, transformed, and merged programs agree on the
               original signature
  aux          the shared-conjunct optimization does not change any stage
               relation
  order        chaotic evaluation orders all reach the staged fixpoint
  polarity     the transformed program has no negative derived occurrence;
               one lint of the transform suffices, because every program is
               checked for stratification when it is built, and the merge of
               a lint-clean transform is stratified

``run_checks`` makes one pass per universe size: one stream of states feeds
every planned check.  A state is the tuple of its true basic cells in cell
order, from generation to counterexample.  A block of states becomes one
bit mask per basic atom, built once; each program runs once per block from
those masks, and each check compares the results for all the block's
states at once.  A sweep of more than one block spreads them over at most
AXF_THREADS processes (default: machine CPU count) of the run's pool; a
sweep of one block runs in process.  The least failing state (by its tuple)
is reported, so results do not depend on worker count or block order.

Every check gives the same verdict on a basic state and on any renaming of
its objects that fixes the constants of the programs checked, so an
exhaustive sweep runs one state per orbit of those renamings and counts its
failures once per state of the orbit.
"""

from __future__ import annotations

import os
import random
from array import array
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import count, islice, product
from math import log
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence

from .evaluator import Engine, GroundAtom, Universe, stage_relation_masks
from .logic import (
    And,
    Atom,
    Axiom,
    AxiomProgram,
    Bottom,
    Const,
    Exists,
    Forall,
    LogicError,
    Not,
    Or,
    Predicate,
    Term,
    Top,
    Var,
    lint_polarity,
)
from .parser import format_ground_atom, format_state
from .transformer import (
    eliminate_negative_occurrences,
    generate_stage_axioms,
    merge_to_single_stratum,
)


class VerifyError(LogicError):
    """The verification request itself is malformed or unsupported."""


class BudgetError(VerifyError):
    """A sweep would exceed the state or cell budget."""


_MAX_EXHAUSTIVE_BITS = 24
_MAX_SAMPLED_CELLS = 1 << 16
_HUGE = 1 << 64  # counts of cells from here up are refused, never computed
_MAX_WORKERS = 256  # a pool forks all its workers at its first task
# States per block.  The masks grow with the width, but each round's pass
# over every head instance costs the same at any width, so a block is never
# split to feed more workers.  `path` at n=4, all checks, 16,384 sampled
# states, 2 workers, 2 CPUs: blocks of 1,024 states took 3.7-4.8 s (largest
# process peak RSS 28 MiB), 4,096 1.6-1.9 s (45 MiB), and one block of 16,384
# 1.6-1.8 s (118 MiB): a larger block saves nothing for 2.6x the memory.
_MAX_BLOCK = 1 << 12
_ALL_CHECKS = ("polarity", "theorem1", "theorem2", "equivalence", "aux", "order")
# The checks that apply to a transformed program built elsewhere; the others
# need the transformer's own stage families.
TRANSFORMED_CHECKS = ("polarity", "equivalence")


@dataclass(frozen=True)
class VerificationPlan:
    """What to sweep: universe sizes, state source, and which checks.

    ``samples`` is the number of sampled states per size; None sweeps every
    basic state."""

    universe_sizes: tuple[int, ...] = (2, 3)
    samples: Optional[int] = None
    seed: int | str = 0
    checks: tuple[str, ...] = _ALL_CHECKS

    def __post_init__(self) -> None:
        if self.samples is not None and self.samples < 1:
            raise VerifyError("samples must be positive")
        if not self.checks:
            raise VerifyError("at least one check is required")
        for c in self.checks:
            if c not in _ALL_CHECKS:
                raise VerifyError(f"unknown check {c!r}")
        if not self.universe_sizes:
            raise VerifyError("at least one universe size is required")
        if any(n < 1 for n in self.universe_sizes):
            raise VerifyError("universe sizes must be positive")
        if len(set(self.universe_sizes)) != len(self.universe_sizes):
            raise VerifyError("universe sizes must not repeat")
        if len(set(self.checks)) != len(self.checks):
            raise VerifyError("checks must not repeat")


@dataclass(frozen=True)
class Counterexample:
    check: str
    universe: tuple[str, ...]
    state_atoms: tuple[GroundAtom, ...]
    detail: str

    def state_text(self) -> str:
        return format_state(self.state_atoms)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "universe": list(self.universe),
            "state": self.state_text(),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    states_checked: int
    failures: int
    counterexample: Optional[Counterexample]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "states_checked": self.states_checked,
            "failures": self.failures,
            "passed": self.passed,
            "counterexample": (
                None if self.counterexample is None else self.counterexample.to_json()
            ),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class VerificationResult:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


# ---------------------------------------------------------------------------
# State generation

def basic_cells(program: AxiomProgram, universe: Universe) -> tuple[GroundAtom, ...]:
    """All ground basic atoms, sorted; the sweep's bit positions."""
    cells = []
    for pred in program.basic_predicates:
        for combo in product(universe.objects, repeat=pred.arity):
            cells.append((pred.name, combo))
    return tuple(sorted(cells))


def enumerate_basic_states(
    cells: Sequence[GroundAtom], start: int = 0, stop: Optional[int] = None
) -> Iterator[tuple[GroundAtom, ...]]:
    stop = 1 << len(cells) if stop is None else stop
    return _states_at(cells, range(start, stop))


def _states_at(
    cells: Sequence[GroundAtom], indices: Iterable[int]
) -> Iterator[tuple[GroundAtom, ...]]:
    """The state of each index: the cells of its set bits, in cell order."""
    for index in indices:
        yield tuple(cells[k] for k in range(len(cells)) if index >> k & 1)


def sample_basic_state(
    cells: Sequence[GroundAtom], seed: int | str, index: int
) -> tuple[GroundAtom, ...]:
    """Deterministic per-index sample; density varies state to state."""
    rng = random.Random(f"{seed}:{index}")
    density = rng.random()
    return tuple(c for c in cells if rng.random() < density)


def _spec_states(spec: tuple) -> Iterable[tuple[GroundAtom, ...]]:
    """A block's states: given ones as they are, exhaustive ones decoded
    from their indices, sampled ones drawn by index."""
    kind, *source, items = spec
    if kind == "explicit":
        return items
    if kind == "exhaustive":
        return _states_at(*source, items)
    return (sample_basic_state(*source, index) for index in items)


def _orbit_tables(perm: Sequence[int], width: int) -> list[list[int]]:
    """Three tables, one per ``width``-bit part of a state index, each giving
    the permuted index of that part's cells; ``perm[k]`` is the cell that
    cell ``k`` becomes.  The permuted state's index is the union of the
    three entries its index selects."""
    tables = []
    for base in (0, width, 2 * width):
        table = [0]
        for target in perm[base:base + width]:
            table += [t | 1 << target for t in table]
        tables.append(table)
    return tables


def _orbits(
    cells: Sequence[GroundAtom], moved: Sequence[str]
) -> tuple[Sequence[int], Optional[array]]:
    """The index of the least state of each orbit, by its atoms, under every
    permutation of the objects ``moved``, and each orbit's size; every index
    and no sizes when no permutation moves a cell.

    A transposition and a cycle of ``moved`` generate every permutation of
    it.  States are visited in the order of their atoms, so the first one
    of an orbit seen is its least; its orbit is closed under the generators
    and marked seen."""
    total = 1 << len(cells)
    perms: list[list[int]] = []
    if len(moved) > 1:
        where = {cell: k for k, cell in enumerate(cells)}
        for image in (moved[1::-1] + moved[2:], moved[1:] + moved[:1]):
            rename = dict(zip(moved, image))
            perm = [where[pred, tuple(rename.get(o, o) for o in args)] for pred, args in cells]
            if perm != list(range(len(cells))) and perm not in perms:
                perms.append(perm)
    if not perms:
        return range(total), None
    width = -(-len(cells) // 3)
    part = (1 << width) - 1
    generators = [_orbit_tables(perm, width) for perm in perms]
    seen = bytearray(total)
    firsts, sizes = array("q"), array("q")
    top = total >> 1
    s = 0
    while True:
        if not seen[s]:
            seen[s] = 1
            orbit = [s]
            for t in orbit:
                low, mid, high = t & part, t >> width & part, t >> 2 * width
                for a, b, c in generators:
                    u = a[low] | b[mid] | c[high]
                    if not seen[u]:
                        seen[u] = 1
                        orbit.append(u)
            firsts.append(s)
            sizes.append(len(orbit))
        # the next state by its atoms: add the cell after the last one, or
        # else drop the last cell and advance the one before it
        if s < top:
            s |= 1 << s.bit_length()
        elif s == top:
            return firsts, sizes
        else:
            s -= top
            s += 1 << s.bit_length() - 1


def _constants(programs: Iterable[AxiomProgram]) -> frozenset[str]:
    """Every object the programs mention as a constant."""
    return frozenset(
        term.name
        for program in programs
        for stratum in program.strata
        for axiom in stratum
        for _, atom, _ in axiom.occurrences
        for term in atom.args
        if isinstance(term, Const)
    )


def _refuse_dropped_constants(
    constants: AbstractSet[str], objects: Sequence[str], size: int
) -> None:
    """Raise VerifyError if a universe of ``size`` objects, the first of
    ``objects`` padded with fresh names, would drop one of ``constants``."""
    if size < 1:
        raise VerifyError("universe size must be positive")
    missing = constants - set(objects[:size])
    if missing:
        raise VerifyError(
            f"universe of size {size} would drop constants: " + ", ".join(sorted(missing))
        )


def _padded(objects: Sequence[str], size: int) -> Universe:
    """The first ``size`` of ``objects``, padded with fresh names."""
    kept = tuple(objects[:size])
    taken = set(kept)
    names = (f"u{k}" for k in count(1))
    return Universe(kept + tuple(islice((n for n in names if n not in taken), size - len(kept))))


def universe_for(program: AxiomProgram, size: int) -> Universe:
    """The declared objects, truncated or padded to the requested size.

    Padding uses fresh names ``u1, u2, ...``; truncation refuses to drop an
    object the program mentions as a constant."""
    _refuse_dropped_constants(_constants((program,)), program.universe_hint, size)
    return _padded(program.universe_hint, size)


def _planned_states(program: AxiomProgram, size: int, plan: VerificationPlan) -> int:
    """The number of states a planned sweep over ``size`` objects visits.

    Raises BudgetError when the basic cells exceed the exhaustive or the
    sampled budget, or the samples exceed the exhaustive state budget; only
    the object count is needed, so nothing is built before the refusal."""
    bits = sum(
        _HUGE if size > 1 and p.arity > 64 else min(min(size, _HUGE + 1) ** p.arity, _HUGE)
        for p in program.basic_predicates
    )
    cells = "2^64 or more" if bits >= _HUGE else bits
    if plan.samples is None:
        if bits > _MAX_EXHAUSTIVE_BITS:
            raise BudgetError(
                f"2^{f'({cells})' if bits >= _HUGE else bits} basic states exceed the "
                f"exhaustive budget of 2^{_MAX_EXHAUSTIVE_BITS}; use sampled mode"
            )
        return 1 << bits
    if bits > _MAX_SAMPLED_CELLS:
        raise BudgetError(
            f"{cells} basic cells exceed the sampled budget of "
            f"{_MAX_SAMPLED_CELLS} cells; use a smaller universe"
        )
    if plan.samples > 1 << _MAX_EXHAUSTIVE_BITS:
        raise BudgetError(
            f"{plan.samples} sampled states exceed the state budget of "
            f"2^{_MAX_EXHAUSTIVE_BITS}; use fewer samples"
        )
    return plan.samples


# ---------------------------------------------------------------------------
# The sweep.  One pass runs every planned check over one universe's states.
# ``_plan`` builds, once per run, the runs the checks read, keyed by role
# ("original", ("family", i), "transformed", "merged", "optimized", and
# ("order", seed) for a chaotic run of the original), the
# ``(name, tags, compare, args)`` check tuples, which hold nothing of the
# universe, and the constants of every program the pass reads;
# ``_sweep`` labels each result ``name[n=<size>,<tags>]``.
# An exhaustive sweep runs one state per orbit under the renamings of the
# universe that fix those constants (padding names move freely): the least
# state of each orbit by its atoms, weighted by the orbit's size.  A query
# defined by a program commutes with such a renaming, so every state of an
# orbit gets its representative's verdict, and the least failing state is
# a representative: ``states_checked`` is the sum of the weights, and
# ``failures`` that of the failing representatives'.  The order check's
# chaotic runs reach the same fixpoint in any order, so they run on the
# representatives too.  Where no renaming moves a cell every state is its
# own orbit and the sweep runs all of them, unweighted; sampled and given
# states are never reduced.
# The states are split into blocks of at most ``_MAX_BLOCK``; a job carries
# its block's states, or its slice of state indices and their weights, and
# compiles one engine per program and runs each role once, to one ``Block``:
# the original staged, since theorem1's oracle reads its stages, and the
# other roles in place or, for the order check, in chaotic order.
# ``compare(*args, runs)`` reads the blocks' masks and yields its entries in
# order of precedence: ``(failing, first, text, other)``, where a state of
# ``failing`` fails with ``text`` if it is in ``first``, else with ``other``,
# unless an earlier entry names it.  Comparators and ``_run_chunk`` are top
# level so a process pool can pickle them.

_Entries = Iterator[tuple[int, int, str, str]]


def _differences(left: dict, right: dict, texts, names: Optional[AbstractSet] = None) -> _Entries:
    """An entry for each atom, of ``names`` unless None, whose masks in two
    runs differ, in atom order; ``texts(atom)`` gives the texts for where
    ``left`` holds it and for where ``right`` does."""
    keys = [key for key in left.keys() | right.keys() if names is None or key[0] in names]
    diffs = {key: left.get(key, 0) ^ right.get(key, 0) for key in keys}
    for key in sorted(key for key, diff in diffs.items() if diff):
        yield diffs[key], left.get(key, 0), *texts(format_ground_atom(*key))


def _theorem1(stratum_index, members, names, runs) -> _Entries:
    original, family = runs["original"], runs[("family", stratum_index)].masks
    oracle = stage_relation_masks(
        original.universe, original.added[stratum_index], original.every, members
    )
    for (rel, i, j), want in oracle.items():
        for (a, b), related in want.items():
            got = family.get((names[(rel, i, j)], a + b), 0)
            if got != related:
                text = f"{rel}[{i},{j}] disagrees on ({','.join(a)} ; {','.join(b)}): only the"
                yield got ^ related, got, f"{text} axioms relate them", f"{text} oracle relate them"


def _theorem2(stratum_index, members, names, runs) -> _Entries:
    """Reads the members off the full run of the original: a stratified
    program derives each predicate in one stratum, so later strata add no
    member atom."""
    original, family = runs["original"], runs[("family", stratum_index)].masks
    for k, member in enumerate(members, 1):
        nleq = names[("nleq", k, k)]
        for combo in product(original.universe.objects, repeat=member.arity):
            holds = original.masks.get((member.name, combo), 0)
            fails = original.every & ~(holds ^ family.get((nleq, combo + combo), 0))
            if fails:
                atom = format_ground_atom(member.name, combo)
                never = format_ground_atom(nleq, combo + combo)
                yield fails, holds, *(
                    f"{atom} is {truth} but {never} is {truth}" for truth in ("true", "false")
                )


def _equivalence(roles, derived_names, runs) -> _Entries:
    for role in roles[1:]:
        yield from _differences(runs[roles[0]].masks, runs[role].masks, lambda atom: (
            f"{atom} is true in the original but false in the {role} program",
            f"{atom} is false in the original but true in the {role} program",
        ), derived_names)


def _aux(shared_names, runs) -> _Entries:
    yield from _differences(runs["transformed"].masks, runs["optimized"].masks, lambda atom: (
        f"{atom} is true without the shared conjuncts but false with them",
        f"{atom} is false without the shared conjuncts but true with them",
    ), shared_names)


def _order(order_seeds, runs) -> _Entries:
    for seed in order_seeds:
        yield from _differences(runs[("order", seed)].masks, runs["original"].masks, lambda atom: (
            f"evaluation order {seed} adds {atom}", f"evaluation order {seed} misses {atom}"
        ))


def _run_chunk(job) -> list[tuple[int, int, Optional[Counterexample]]]:
    """A (checked, failures, least counterexample) triple for each check
    over one block of states: a check fails in the states of any of its
    entries, and its counterexample is the least failing state.  A state
    with a weight counts as that many states."""
    checks, programs, universe, spec, weights = job
    states = tuple(_spec_states(spec))
    basic: dict[GroundAtom, int] = {}
    for s, atoms in enumerate(states):
        for key in atoms:
            basic[key] = basic.get(key, 0) | 1 << s
    distinct = {id(program): program for program, _ in programs.values()}
    compiled = {key: Engine(program, universe) for key, program in distinct.items()}
    runs = {
        role: compiled[id(program)].run_block(
            basic,
            len(states),
            rng=None if order is None else random.Random(f"order:{order}"),
            staged=role == "original",
        )
        for role, (program, order) in programs.items()
    }
    checked = len(states) if weights is None else sum(weights)
    tallies = []
    for name, _, compare, args in checks:
        entries = list(compare(*args, runs))
        failing = 0
        for fails, *_ in entries:
            failing |= fails
        failures, least = 0, None
        if failing:
            failed = [s for s in range(len(states)) if failing >> s & 1]
            failures = len(failed) if weights is None else sum(weights[s] for s in failed)
            s = min(failed, key=states.__getitem__)
            detail = next(
                text if first >> s & 1 else other
                for fails, first, text, other in entries
                if fails >> s & 1
            )
            least = Counterexample(name, universe.objects, states[s], detail)
        tallies.append((checked, failures, least))
    return tallies


def worker_count() -> int:
    raw = os.environ.get("AXF_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise VerifyError("AXF_THREADS must be an integer") from None
        if not 1 <= n <= _MAX_WORKERS:
            raise VerifyError(f"AXF_THREADS must be between 1 and {_MAX_WORKERS}")
        return n
    return os.cpu_count() or 1


class _Pool:
    """The process pool of one verification run: the first sweep given more
    than one worker starts it; a sweep given more than it has replaces it."""

    _executor: Optional[ProcessPoolExecutor] = None
    _workers = 1

    def map_chunks(self, jobs: list, workers: int) -> list:
        if workers == 1:
            return [_run_chunk(job) for job in jobs]
        if workers > self._workers:
            self.close()
            self._executor, self._workers = ProcessPoolExecutor(max_workers=workers), workers
        return list(self._executor.map(_run_chunk, jobs))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()


def _sweep(
    checks: list,
    programs: dict,
    fixed: AbstractSet[str],
    program: AxiomProgram,
    universe: Universe,
    plan: Optional[VerificationPlan],
    states: Optional[Iterable[Iterable[GroundAtom]]],
    pool: _Pool,
) -> list[CheckResult]:
    """Run ``checks`` over the given states, or else the planned ones over
    ``program``'s basic cells, in the fewest blocks, on at most one worker of
    ``pool`` per block.  A given state must hold only basic cells.  An
    exhaustive sweep runs one state per orbit under the renamings that fix
    the objects ``fixed``."""
    plan = plan or VerificationPlan()
    weights = None
    if states is not None:
        items = tuple(tuple(sorted(set(s))) for s in states)
        arity, objects = {p.name: p.arity for p in program.basic_predicates}, set(universe.objects)
        stray = {(p, args) for s in items for p, args in s if arity.get(p) != len(args)}
        stray |= {(p, args) for s in items for p, args in s if not objects.issuperset(args)}
        if stray:
            atom = format_ground_atom(*min(stray))
            raise VerifyError(f"given state atom {atom} is not a basic cell over the universe")
        head = ("explicit",)
    else:
        total = _planned_states(program, len(universe.objects), plan)
        cells = basic_cells(program, universe)
        if plan.samples is None:
            moved = tuple(o for o in universe.objects if o not in fixed)
            items, weights = _orbits(cells, moved)
            head = ("exhaustive", cells)
        else:
            items, head = range(total), ("sampled", cells, plan.seed)
    blocks = max(1, -(-len(items) // _MAX_BLOCK))
    workers = min(worker_count(), blocks)
    bounds = [len(items) * k // blocks for k in range(blocks + 1)]
    jobs = [(checks, programs, universe, head + (items[a:b],),
             None if weights is None else weights[a:b])
            for a, b in zip(bounds, bounds[1:])]
    parts = pool.map_chunks(jobs, workers)
    size = (f"n={len(universe.objects)}",)
    results = []
    for (name, tags, _, _), tallies in zip(checks, zip(*parts)):
        checked, failures, found = zip(*tallies)
        best = min(filter(None, found), key=lambda c: (c.state_atoms, c.detail), default=None)
        label = f"{name}[{','.join(size + tags)}]"
        results.append(CheckResult(label, sum(checked), sum(failures), best))
    return results


def _plan(
    program: AxiomProgram,
    planned: Sequence[str],
    transformed: Optional[AxiomProgram] = None,
    strata: Iterable[int] = (),
    mutation: Optional[str] = None,
    orders: int = 8,
) -> tuple[dict, list[tuple], Optional[CheckResult], frozenset[str]]:
    """The programs the ``planned`` checks read, keyed by role; the check
    tuples for the ``planned`` names, in order, one per stage family of
    ``strata`` for theorem1 and theorem2 and none for polarity; the
    polarity result of the transform, or None when no transform is given or
    read; and the constants of ``program`` and of every program read.

    ``transformed`` stands in for the transform of ``program``.  The merged
    form is built only when the polarity lint passes, since merging needs a
    lint-clean program."""
    wanted = set(planned)
    if transformed is None and wanted & {"polarity", "equivalence", "aux"}:
        transformed, _ = eliminate_negative_occurrences(program)
    polarity = None
    if transformed is not None:
        notes = tuple(
            f"negative derived occurrence at {ref.to_json()}" for ref in lint_polarity(transformed)
        )
        polarity = CheckResult("polarity", 0, len(notes), None, notes)
    programs: dict = {}  # role -> (program, order seed of a chaotic run, or None)
    if wanted & {"theorem1", "theorem2", "equivalence", "order"}:
        programs["original"] = (program, None)
    families = []  # (tags, args) of each stage family's check
    if wanted & {"theorem1", "theorem2"}:
        for index in strata:
            family = generate_stage_axioms(program, index, mutation=mutation)
            programs[("family", index)] = (AxiomProgram(
                list(program.signature.values()) + list(family.predicates),
                program.universe_hint,
                program.strata[:index] + (family.axioms,),
            ), None)
            members = tuple(program.signature[m] for m in family.members)
            families.append(((f"stratum={index}",), (index, members, dict(family.names))))
    if wanted & {"equivalence", "aux"}:
        programs["transformed"] = (transformed, None)
    if "equivalence" in wanted and polarity.passed:
        programs["merged"] = (merge_to_single_stratum(transformed), None)
    if "aux" in wanted:
        programs["optimized"] = (eliminate_negative_occurrences(program, optimize_aux=True)[0], None)
    if "order" in wanted:
        programs.update({("order", seed): (program, seed) for seed in range(orders)})
    checks = []
    for check in planned:
        if check in ("theorem1", "theorem2"):
            compare = _theorem1 if check == "theorem1" else _theorem2
            checks += [(check, tags, compare, args) for tags, args in families]
        elif check == "equivalence":
            roles = tuple(r for r in ("original", "transformed", "merged") if r in programs)
            derived = frozenset(p.name for p in program.derived_predicates)
            checks.append((check, (), _equivalence, (roles, derived)))
        elif check == "aux":
            shared = set(transformed.signature) & set(programs["optimized"][0].signature)
            checks.append((check, (), _aux, (frozenset(shared),)))
        elif check == "order":
            checks.append((check, (), _order, (tuple(range(orders)),)))
    read = {id(p): p for p, _ in programs.values()}
    return programs, checks, polarity, _constants([program, *read.values()])


# ---------------------------------------------------------------------------
# Public checks.  Each ``verify_*`` function is a one-check form of the
# ``run_checks`` pass: the same builder, swept alone over one universe, with
# results named as ``run_checks`` names them.

def _verify_one(
    check: str,
    program: AxiomProgram,
    universe: Universe,
    plan: Optional[VerificationPlan],
    states: Optional[Iterable[Iterable[GroundAtom]]],
    *,
    transformed: Optional[AxiomProgram] = None,
    strata: Iterable[int] = (),
    mutation: Optional[str] = None,
    orders: int = 8,
) -> CheckResult:
    programs, checks, _, fixed = _plan(program, (check,), transformed, strata, mutation, orders)
    _refuse_dropped_constants(fixed, universe.objects, len(universe.objects))
    with closing(_Pool()) as pool:
        return _sweep(checks, programs, fixed, program, universe, plan, states, pool)[0]


def verify_theorem1(
    program: AxiomProgram,
    stratum_index: int,
    universe: Universe,
    plan: Optional[VerificationPlan] = None,
    *,
    states: Optional[Iterable[Iterable[GroundAtom]]] = None,
    mutation: Optional[str] = None,
) -> CheckResult:
    """Sweep: stage relations by axioms == stage relations by oracle."""
    return _verify_one(
        "theorem1", program, universe, plan, states, strata=(stratum_index,), mutation=mutation
    )


def verify_theorem2(
    program: AxiomProgram,
    stratum_index: int,
    universe: Universe,
    plan: Optional[VerificationPlan] = None,
    *,
    states: Optional[Iterable[Iterable[GroundAtom]]] = None,
) -> CheckResult:
    """Sweep: P_i(a) holds in the stratum's fixpoint iff nleq_ii(a,a) fails."""
    return _verify_one("theorem2", program, universe, plan, states, strata=(stratum_index,))


def verify_equivalence(
    original: AxiomProgram,
    universe: Universe,
    plan: Optional[VerificationPlan] = None,
    *,
    transformed: Optional[AxiomProgram] = None,
    states: Optional[Iterable[Iterable[GroundAtom]]] = None,
) -> CheckResult:
    """Sweep: the transformation preserves every original derived atom; the
    merged form joins in when the transform passes the polarity lint."""
    return _verify_one("equivalence", original, universe, plan, states, transformed=transformed)


def verify_aux(
    program: AxiomProgram,
    universe: Universe,
    plan: Optional[VerificationPlan] = None,
    *,
    states: Optional[Iterable[Iterable[GroundAtom]]] = None,
) -> CheckResult:
    """Sweep: the aux rewrite leaves every shared predicate's extension alone."""
    return _verify_one("aux", program, universe, plan, states)


def verify_order_independence(
    program: AxiomProgram,
    universe: Universe,
    plan: Optional[VerificationPlan] = None,
    *,
    orders: int = 8,
    states: Optional[Iterable[Iterable[GroundAtom]]] = None,
) -> CheckResult:
    """Sweep: chaotic evaluation agrees with the staged fixpoint."""
    return _verify_one("order", program, universe, plan, states, orders=orders)


def check_polarity(program: AxiomProgram) -> CheckResult:
    """Static check: transform, then lint the result for negative derived
    occurrences, one failure and one note for each."""
    return _plan(program, ("polarity",))[2]


def run_checks(
    program: AxiomProgram,
    plan: Optional[VerificationPlan] = None,
    *,
    transformed: Optional[AxiomProgram] = None,
) -> VerificationResult:
    """Run the planned checks over every planned universe size.

    ``transformed`` is a transformation of ``program`` built elsewhere, to be
    checked in place of the one built here; only ``TRANSFORMED_CHECKS`` apply
    to it.  The equivalence sweep includes the merged form only when the
    polarity lint passes, since merging needs a lint-clean program.

    The transforms, the merge, the stage families and the check tuples are
    built once, before the first size.  Each size is then one sweep of every planned check, and
    the sweeps share one process pool.  A size is checked for dropped
    constants of every program the sweep reads, and against the state
    budget, before its objects are built."""
    plan = plan or VerificationPlan()
    if transformed is not None:
        unsupported = set(plan.checks) - set(TRANSFORMED_CHECKS)
        if unsupported:
            raise VerifyError(
                f"--transformed only supports checks {','.join(TRANSFORMED_CHECKS)}; got "
                + ",".join(sorted(unsupported))
            )
    nonempty = [index for index, stratum in enumerate(program.strata) if stratum]
    programs, checks, polarity, fixed = _plan(program, plan.checks, transformed, nonempty)
    results = [polarity] if "polarity" in plan.checks else []
    with closing(_Pool()) as pool:
        for size in plan.universe_sizes:
            _refuse_dropped_constants(fixed, program.universe_hint, size)
            if checks:
                _planned_states(program, size, plan)
                universe = _padded(program.universe_hint, size)
                results.extend(_sweep(checks, programs, fixed, program, universe, plan, None, pool))
    return VerificationResult(tuple(results))


# ---------------------------------------------------------------------------
# Random programs

@dataclass(frozen=True)
class RandomProfile:
    """Shape of randomly generated programs; capped small so exhaustive
    sweeps stay cheap."""

    objects: int = 2
    basic_predicates: int = 2
    max_arity: int = 2
    strata: int = 2
    max_members: int = 2
    max_axioms: int = 1
    max_depth: int = 3
    negation_rate: float = 0.35
    constant_rate: float = 0.1

    def __post_init__(self) -> None:
        if not 1 <= self.objects <= 3:
            raise VerifyError("objects must be 1..3")
        if not 0 <= self.basic_predicates <= 4:
            raise VerifyError("basic_predicates must be 0..4")
        if not 0 <= self.max_arity <= 2:
            raise VerifyError("max_arity must be 0..2")
        if not 1 <= self.strata <= 4:
            raise VerifyError("strata must be 1..4")
        if not 1 <= self.max_members <= 3:
            raise VerifyError("max_members must be 1..3")
        if not 1 <= self.max_axioms <= 2:
            raise VerifyError("max_axioms must be 1..2")
        if not 1 <= self.max_depth <= 5:
            raise VerifyError("max_depth must be 1..5")
        if not 0.0 <= self.negation_rate <= 0.9:
            raise VerifyError("negation_rate must be in [0, 0.9]")
        if self.negation_rate > 0 and self.basic_predicates == 0 and self.strata == 1:
            raise VerifyError(
                "profile cannot honor negations: a single stratum with no basic "
                "predicates leaves nothing a negation may apply to"
            )


def generate_random_program(seed: int | str, profile: Optional[RandomProfile] = None) -> AxiomProgram:
    """A random well-stratified program; same seed, same program.

    Same-stratum predicates are only offered to positive positions, so the
    result is stratified by construction (and checked)."""
    pf = profile or RandomProfile()
    rng = random.Random(seed)
    objects = ("a", "b", "c")[: pf.objects]
    predicates: list[Predicate] = []
    basics: list[Predicate] = []
    for n in range(pf.basic_predicates):
        pred = Predicate(f"B{n + 1}", rng.randint(0, pf.max_arity), "basic")
        basics.append(pred)
        predicates.append(pred)

    strata = []
    earlier: list[Predicate] = []
    derived_counter = 0
    for _ in range(pf.strata):
        members = []
        for _ in range(rng.randint(1, pf.max_members)):
            derived_counter += 1
            pred = Predicate(f"D{derived_counter}", rng.randint(0, pf.max_arity), "derived")
            members.append(pred)
            predicates.append(pred)
        negatable = basics + earlier
        positive_pool = basics + earlier + members
        axioms = []
        for pred in members:
            for _ in range(rng.randint(1, pf.max_axioms)):
                head_vars = ("x", "y")[: pred.arity]
                quantifier_counter = [0]

                def args_for(arity: int, scope: tuple[str, ...]) -> tuple[Term, ...]:
                    out = []
                    for _ in range(arity):
                        if scope and rng.random() >= pf.constant_rate:
                            out.append(Var(rng.choice(scope)))
                        else:
                            out.append(Const(rng.choice(objects)))
                    return tuple(out)

                def atom(scope: tuple[str, ...], positive: bool):
                    pool = positive_pool if positive else negatable
                    roll = rng.random()
                    if roll < 0.04:
                        return Top()
                    if roll < 0.08:
                        return Bottom()
                    choice = rng.choice(pool)
                    return Atom(choice.name, args_for(choice.arity, scope))

                def gen(depth: int, scope: tuple[str, ...], positive: bool):
                    if depth <= 0:
                        return atom(scope, positive)
                    roll = rng.random()
                    if roll < pf.negation_rate and negatable:
                        return Not(gen(depth - 1, scope, not positive))
                    roll = rng.random()
                    if roll < 0.22:
                        quantifier_counter[0] += 1
                        name = f"q{quantifier_counter[0]}"
                        kind = Exists if rng.random() < 0.5 else Forall
                        return kind((name,), gen(depth - 1, scope + (name,), positive))
                    if roll < 0.55:
                        return And(
                            tuple(gen(depth - 1, scope, positive) for _ in range(2))
                        )
                    if roll < 0.85:
                        return Or(
                            tuple(gen(depth - 1, scope, positive) for _ in range(2))
                        )
                    return atom(scope, positive)

                body = gen(rng.randint(1, pf.max_depth), head_vars, True)
                axioms.append(Axiom(pred.name, head_vars, body))
        strata.append(tuple(axioms))
        earlier.extend(members)
    program = AxiomProgram(predicates, objects, tuple(strata))
    return program


def power_fit(pairs: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x."""
    if len(pairs) < 2:
        raise VerifyError("need at least two points to fit")
    if any(x <= 0 or y <= 0 for x, y in pairs):
        raise VerifyError("fit needs positive coordinates")
    xs = [log(x) for x, _ in pairs]
    ys = [log(y) for _, y in pairs]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise VerifyError("fit needs at least two distinct sizes")
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx
