"""Evaluation over finite universes: formula truth, extensions, stages.

A TruthAssignment is a closed-world set of true ground atoms over a fixed
object universe.  ``extend`` computes the unique extension of a basic state
stratum by stratum.  One per-stratum fixpoint loop runs in two orders:

 - staged: each round applies all axioms in parallel against a frozen
   snapshot of the state and records, for every derived atom, the first
   snapshot in which it holds;

 - chaotic: each round visits the axioms and their head instances in an
   order drawn from a caller-supplied RNG and reads the live state; any
   order reaches the same fixed point because same-stratum predicates only
   occur positively.

Stage convention: snapshot 0 is the state before anything is derived, and
round l (l = 1, 2, ...) adds every head instance whose body holds in
snapshot l-1.  stage(atom) is the least l whose snapshot contains the atom.
The fixpoint stage f is the number of productive rounds, so explicit stages
lie in 1..f and an underivable atom has implicit stage f+1.  With nothing
derivable at all, f = 0 and every atom of the stratum sits at stage 1 = f+1.

Formulas are compiled once into nested closures (short-circuiting And/Or,
early-exit quantifier loops).  Every variable is resolved to a slot of the
evaluation environment at compile time: head variables take the first
slots, and each quantifier gives its variables fresh slots for its scope, so
a rebound name is sound.  Engine keeps the compiled program around so sweeps
over many basic states pay compilation once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .logic import (
    And,
    Atom,
    AxiomProgram,
    Bottom,
    Const,
    Exists,
    Forall,
    Formula,
    LogicError,
    Not,
    Or,
    Predicate,
    Top,
    Var,
)

GroundAtom = tuple[str, tuple[str, ...]]


class EvalError(LogicError):
    """Evaluation was asked something the inputs do not support."""


@dataclass(frozen=True)
class Universe:
    """Nonempty ordered object domain; the order fixes enumeration order."""

    objects: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.objects:
            raise EvalError("universe must be nonempty")
        if len(set(self.objects)) != len(self.objects):
            raise EvalError("duplicate object in universe")


@dataclass(frozen=True)
class TruthAssignment:
    """True ground atoms over a universe, closed-world for ``covered``
    predicates.  A basic state covers exactly the basic predicates; an
    extension covers every predicate of its program."""

    universe: Universe
    true_atoms: frozenset[GroundAtom]
    covered: frozenset[str]

    def __post_init__(self) -> None:
        stray = {pred for pred, _ in self.true_atoms} - set(self.covered)
        if stray:
            raise EvalError(
                "true atoms outside the covered predicates: " + ", ".join(sorted(stray))
            )

    def holds(self, pred: str, args: Iterable[str] = ()) -> bool:
        if pred not in self.covered:
            raise EvalError(f"assignment does not cover predicate {pred}")
        return (pred, tuple(args)) in self.true_atoms


@dataclass(frozen=True)
class StageTable:
    """Stages of one stratum's staged run.

    ``stage`` holds every derived-true atom of the stratum's affected
    predicates; anything absent has implicit stage ``fixpoint_stage + 1``.
    """

    universe: Universe
    stage: Mapping[GroundAtom, int]
    fixpoint_stage: int

    def stage_of(self, pred: str, args: tuple[str, ...]) -> int:
        return self.stage.get((pred, args), self.fixpoint_stage + 1)


TuplePair = tuple[tuple[str, ...], tuple[str, ...]]

# The five stage-order relations, each as its condition on the stages sa of a
# and sb of b in a stratum with fixpoint stage f; stage f+1 means "never
# derived".  The key order is the order in which the transformer emits each
# family's axioms, so the golden transform files depend on it.
STAGE_ORDER: dict[str, Callable[[int, int, int], bool]] = {
    "lt": lambda sa, sb, f: sa < sb,
    "leq": lambda sa, sb, f: sa <= sb and sa <= f,
    "nlt": lambda sa, sb, f: sa >= sb,
    "nleq": lambda sa, sb, f: sa > sb or sa == f + 1,
    "tri": lambda sa, sb, f: sa + 1 == sb,
}
RELATION_NAMES = tuple(STAGE_ORDER)


# ---------------------------------------------------------------------------
# Formula compilation

_Compiled = Callable[[dict, frozenset], bool]


def compile_formula(
    formula: Formula, objects: Sequence[str], slots: Mapping[str, int]
) -> _Compiled:
    """Compile a formula to ``fn(env, atoms) -> bool``.

    Each variable is resolved to a slot at compile time: ``slots`` maps the
    names in scope to their slots, and ``env`` maps slots to object names.
    A quantifier gives its variables the slots after every slot in scope and
    writes them as it loops, so a rebound name never overwrites the slot an
    enclosing binding still reads.  A constant outside ``objects`` raises
    EvalError.
    """
    if isinstance(formula, Atom):
        pred = formula.pred
        for t in formula.args:
            if isinstance(t, Const) and t.name not in objects:
                raise EvalError(f"program mentions object {t.name} outside the universe")
        if not formula.args:
            key = (pred, ())
            return lambda env, atoms: key in atoms
        parts = tuple(
            (True, slots[t.name]) if isinstance(t, Var) else (False, t.name)
            for t in formula.args
        )
        if all(not isv for isv, _ in parts):
            key = (pred, tuple(n for _, n in parts))
            return lambda env, atoms: key in atoms

        def ev_atom(env: dict, atoms: frozenset) -> bool:
            return (pred, tuple(env[n] if isv else n for isv, n in parts)) in atoms

        return ev_atom
    if isinstance(formula, Top):
        return lambda env, atoms: True
    if isinstance(formula, Bottom):
        return lambda env, atoms: False
    if isinstance(formula, Not):
        sub = compile_formula(formula.sub, objects, slots)
        return lambda env, atoms: not sub(env, atoms)
    if isinstance(formula, (And, Or)):
        subs = tuple(compile_formula(s, objects, slots) for s in formula.subs)
        if isinstance(formula, And):
            if len(subs) == 2:
                s0, s1 = subs
                return lambda env, atoms: s0(env, atoms) and s1(env, atoms)
            if len(subs) == 3:
                s0, s1, s2 = subs
                return lambda env, atoms: (
                    s0(env, atoms) and s1(env, atoms) and s2(env, atoms)
                )
            return lambda env, atoms: all(s(env, atoms) for s in subs)
        if len(subs) == 2:
            s0, s1 = subs
            return lambda env, atoms: s0(env, atoms) or s1(env, atoms)
        if len(subs) == 3:
            s0, s1, s2 = subs
            return lambda env, atoms: (
                s0(env, atoms) or s1(env, atoms) or s2(env, atoms)
            )
        return lambda env, atoms: any(s(env, atoms) for s in subs)
    if isinstance(formula, (Exists, Forall)):
        first = max(slots.values(), default=-1) + 1
        scope = {**slots, **{var: first + n for n, var in enumerate(formula.vars)}}
        fn = compile_formula(formula.sub, objects, scope)
        objs = tuple(objects)
        want = isinstance(formula, Exists)
        for var in reversed(formula.vars):
            fn = _quantifier_loop(scope[var], fn, objs, want)
        return fn
    raise LogicError(f"unknown formula node {type(formula).__name__}")


def _quantifier_loop(slot: int, fn: _Compiled, objs: tuple[str, ...], want: bool) -> _Compiled:
    def ev(env: dict, atoms: frozenset) -> bool:
        for o in objs:
            env[slot] = o
            if fn(env, atoms) == want:
                return want
        return not want

    return ev


# ---------------------------------------------------------------------------
# Extension engine

_CompiledAxiom = tuple[str, int, _Compiled]


class Engine:
    """A program compiled against one universe, for repeated extension runs.

    Compiling refuses a constant outside the universe with EvalError; atoms
    compile in preorder, so the first such constant is the one named."""

    def __init__(self, program: AxiomProgram, universe: Universe):
        self.program = program
        self.universe = universe
        objects = universe.objects
        self.compiled: list[list[_CompiledAxiom]] = [
            [
                (
                    ax.head_pred,
                    len(ax.head_vars),
                    compile_formula(ax.body, objects, {v: n for n, v in enumerate(ax.head_vars)}),
                )
                for ax in stratum
            ]
            for stratum in program.strata
        ]
        self._combos: dict[int, tuple[tuple[str, ...], ...]] = {}

    def combos(self, arity: int) -> tuple[tuple[str, ...], ...]:
        got = self._combos.get(arity)
        if got is None:
            got = tuple(product(self.universe.objects, repeat=arity))
            self._combos[arity] = got
        return got

    def check_basic_state(self, basic_state: TruthAssignment) -> None:
        if basic_state.universe != self.universe:
            raise EvalError("basic state universe differs from the engine universe")
        basic = frozenset(p.name for p in self.program.basic_predicates)
        objects = set(self.universe.objects)
        if basic_state.covered != basic:
            raise EvalError("basic state must cover exactly the basic predicates")
        for name, args in basic_state.true_atoms:
            if len(args) != self.program.signature[name].arity:
                raise EvalError(f"state atom {name} has wrong arity")
            for c in args:
                if c not in objects:
                    raise EvalError(f"state mentions object {c} outside the universe")

    def run(
        self, basic_atoms: frozenset[GroundAtom], *, rng: Optional[random.Random] = None
    ) -> frozenset[GroundAtom]:
        """Extend a basic state through every stratum; ``rng`` switches to
        chaotic order for order-independence experiments."""
        atoms = set(basic_atoms)
        for compiled in self.compiled:
            self._fixpoint(compiled, atoms, rng)
        return frozenset(atoms)

    def run_with_stages(
        self, basic_atoms: frozenset[GroundAtom]
    ) -> tuple[frozenset[GroundAtom], list[StageTable]]:
        atoms = set(basic_atoms)
        tables: list[StageTable] = []
        for compiled in self.compiled:
            stage, f = self._fixpoint(compiled, atoms, None)
            tables.append(StageTable(self.universe, stage, f))
        return frozenset(atoms), tables

    def _fixpoint(
        self,
        compiled: list[_CompiledAxiom],
        atoms: set[GroundAtom],
        rng: Optional[random.Random],
    ) -> tuple[dict[GroundAtom, int], int]:
        """Add the stratum's derivable atoms to ``atoms``; return each added
        atom's round and the number of productive rounds.  Without ``rng``
        every body reads the snapshot taken at the start of its round, so
        rounds are stages; with it, each round shuffles the axioms, then each
        axiom's head instances, and every body reads the live set."""
        stage: dict[GroundAtom, int] = {}
        rounds = 0
        env: dict[int, str] = {}
        while True:
            if rng is None:
                order, reads = compiled, frozenset(atoms)
            else:
                order, reads = list(compiled), atoms
                rng.shuffle(order)
            added: list[GroundAtom] = []
            for head, arity, body in order:
                combos = self.combos(arity)
                if rng is not None:
                    combos = list(combos)
                    rng.shuffle(combos)
                for combo in combos:
                    key = (head, combo)
                    if key in atoms:
                        continue
                    env.update(enumerate(combo))
                    if body(env, reads):
                        added.append(key)
                        atoms.add(key)
            if not added:
                return stage, rounds
            rounds += 1
            for key in added:
                stage[key] = rounds

    def full_cover(self) -> frozenset[str]:
        return frozenset(self.program.signature)


def extend(
    program: AxiomProgram,
    universe: Universe,
    basic_state: TruthAssignment,
    *,
    rng: Optional[random.Random] = None,
) -> TruthAssignment:
    """The extension of a basic state: all strata evaluated in order."""
    engine = Engine(program, universe)
    engine.check_basic_state(basic_state)
    atoms = engine.run(basic_state.true_atoms, rng=rng)
    return TruthAssignment(universe, atoms, engine.full_cover())


def extend_in_stages(
    program: AxiomProgram, universe: Universe, basic_state: TruthAssignment
) -> tuple[TruthAssignment, list[StageTable]]:
    """Like extend, also returning the per-stratum stage tables."""
    engine = Engine(program, universe)
    engine.check_basic_state(basic_state)
    atoms, tables = engine.run_with_stages(basic_state.true_atoms)
    return TruthAssignment(universe, atoms, engine.full_cover()), tables


def stage_relations(
    table: StageTable, preds: Sequence[Predicate]
) -> dict[tuple[str, int, int], frozenset[TuplePair]]:
    """The stage-order relations of ``STAGE_ORDER`` over all tuple pairs,
    keyed ``(rel, i, j)`` for members i, j (1-based), relation-major."""
    objs = table.universe.objects
    f = table.fixpoint_stage
    stages = [
        [(a, table.stage_of(p.name, a)) for a in product(objs, repeat=p.arity)] for p in preds
    ]
    members = range(1, len(preds) + 1)
    return {
        (rel, i, j): frozenset(
            (a, b) for a, sa in stages[i - 1] for b, sb in stages[j - 1] if holds(sa, sb, f)
        )
        for rel, holds in STAGE_ORDER.items()
        for i in members
        for j in members
    }
