"""Evaluation over finite universes: formula truth, extensions, stages.

A TruthAssignment is a closed-world set of true ground atoms over a fixed
object universe.  ``extend`` computes the unique extension of a basic state
stratum by stratum.  The engine extends a block of basic states at once:
each ground atom has one Python ``int`` mask whose bit s is its truth in
state s, so ``and``, ``or`` and ``not`` are ``&``, ``|`` and complement, and
a quantifier ORs or ANDs its body over the objects.  A block comes in as
its width and its basic atoms' masks, built once by the caller; a single
state is a block of one.  A run holds the masks in a list, one entry per
atom id of a predicate some axiom mentions: p(o1, ..., ok) has id
offset(p) plus the base-n value of the objects' indices; the atoms of a
predicate no axiom mentions get no id and pass through a run unread.  One
per-stratum fixpoint loop runs in two orders:

 - staged: each round applies all axioms in parallel against a frozen
   snapshot of the masks and records, for every derived atom, the first
   snapshot in which it holds;

 - chaotic: each round visits the axioms and their head instances in an
   order drawn from a caller-supplied RNG and reads the live masks; any
   order reaches the same fixed point because same-stratum predicates only
   occur positively.  Round r draws the same shuffles for every state.

The live mask holds the states that gained an atom in the previous round; a
round evaluates a head instance only in the live states that lack it, and
the loop ends when no state is live.  A staged round after the first
narrows that further, semi-naively: a body false in the snapshot before can
turn true only where a same-stratum atom it reads grew in the previous
round, so the engine indexes that round's additions by the argument
pattern of each such atom in the body (head variable, constant, or a
quantified variable read as any object) and evaluates a head instance only
in the states its index entries hold.  Each state thus runs the rounds it
would run alone.  A run returns its ``Block``: the final masks and each
stratum's additions by round, off which ``stage_relation_masks`` reads the
stage-order relations of every state of the block at once.

Stage convention: snapshot 0 is the state before anything is derived, and
round l (l = 1, 2, ...) adds every head instance whose body holds in
snapshot l-1.  stage(atom) is the least l whose snapshot contains the atom.
The fixpoint stage f is the number of productive rounds, so explicit stages
lie in 1..f and an underivable atom has implicit stage f+1.  With nothing
derivable at all, f = 0 and every atom of the stratum sits at stage 1 = f+1.

Formulas are compiled once into nested closures that evaluate a subformula
only in the states still undecided (short-circuiting And/Or, early-exit
quantifier loops).  Each variable is resolved at compile time to a slot of
the environment, a list of object indices: head variables take the first
slots, and each quantifier gives its variables fresh slots for its scope,
so a rebound name is sound.  An atom reads ``masks[base + env[a] * ca +
...]``, its constants folded into ``base``.  Engine keeps the compiled
program around so sweeps over many blocks pay compilation once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import chain, product
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .logic import (
    And,
    Atom,
    AxiomProgram,
    Bottom,
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

_Compiled = Callable[[list, list, int], int]


def compile_formula(
    formula: Formula, engine: Engine, slots: Mapping[str, int], atoms: list
) -> _Compiled:
    """Compile a formula to ``fn(env, masks, care) -> mask`` over the atom
    ids of ``engine``: ``masks`` lists each ground atom's mask at its id,
    ``engine.offsets[p]`` plus the base-n value of the object indices
    (``engine.index``) of p's arguments.  The result is the formula's truth
    in each state of ``care``, with no bit outside it.  ``slots`` maps the
    variables in scope to slots of ``env``, a list of the object index bound
    to each slot; constants fold into an atom's base id.  A quantifier gives
    its variables the slots after every slot in scope, so a rebound name
    never overwrites a slot an enclosing binding still reads, and raises
    ``engine.env_size`` past them.  Each atom is appended to ``atoms``, in
    preorder, as its predicate and per argument its slot or constant.  A
    constant outside the universe raises EvalError.
    """
    if isinstance(formula, Atom):
        refs = tuple(slots[t.name] if isinstance(t, Var) else t.name for t in formula.args)
        n, base, terms = len(engine.index), engine.offsets[formula.pred], {}  # slot -> coefficient
        for k, ref in enumerate(refs, 1):
            if isinstance(ref, int):
                terms[ref] = terms.get(ref, 0) + n ** (len(refs) - k)
            elif ref in engine.index:
                base += engine.index[ref] * n ** (len(refs) - k)
            else:
                raise EvalError(f"program mentions object {ref} outside the universe")
        atoms.append((formula.pred, refs))
        pairs = tuple(terms.items())
        if not pairs:
            return lambda env, masks, care: masks[base] & care
        if len(pairs) == 1:
            ((a, ca),) = pairs
            return lambda env, masks, care: masks[base + env[a] * ca] & care
        if len(pairs) == 2:
            (a, ca), (b, cb) = pairs
            return lambda env, masks, care: masks[base + env[a] * ca + env[b] * cb] & care
        if len(pairs) == 3:
            (a, ca), (b, cb), (c, cc) = pairs
            return lambda env, masks, care: (
                masks[base + env[a] * ca + env[b] * cb + env[c] * cc] & care
            )
        if len(pairs) == 4:
            (a, ca), (b, cb), (c, cc), (d, cd) = pairs
            return lambda env, masks, care: (
                masks[base + env[a] * ca + env[b] * cb + env[c] * cc + env[d] * cd] & care
            )
        return lambda env, masks, care: masks[base + sum([env[s] * c for s, c in pairs])] & care
    if isinstance(formula, Top):
        return lambda env, masks, care: care
    if isinstance(formula, Bottom):
        return lambda env, masks, care: 0
    if isinstance(formula, Not):
        sub = compile_formula(formula.sub, engine, slots, atoms)
        return lambda env, masks, care: care ^ sub(env, masks, care)
    if isinstance(formula, (And, Or)):
        # A conjunct is evaluated only in ``c``, where the earlier ones hold;
        # a disjunct only in ``r``, where the earlier ones fail.
        subs = tuple(compile_formula(s, engine, slots, atoms) for s in formula.subs)
        if isinstance(formula, And):
            if len(subs) == 2:
                s0, s1 = subs
                return lambda env, masks, care: (c := s0(env, masks, care)) and s1(env, masks, c)
            if len(subs) == 3:
                s0, s1, s2 = subs
                return lambda env, masks, care: (
                    (c := s0(env, masks, care)) and (c := s1(env, masks, c)) and s2(env, masks, c)
                )

            def ev_and(env: list, masks: list, care: int) -> int:
                for sub in subs:
                    care = care and sub(env, masks, care)
                return care

            return ev_and
        if len(subs) == 2:
            s0, s1 = subs
            return lambda env, masks, care: care ^ (
                (r := care ^ s0(env, masks, care)) and r ^ s1(env, masks, r)
            )
        if len(subs) == 3:
            s0, s1, s2 = subs
            return lambda env, masks, care: care ^ (
                (r := care ^ s0(env, masks, care))
                and (r := r ^ s1(env, masks, r))
                and r ^ s2(env, masks, r)
            )

        def ev_or(env: list, masks: list, care: int) -> int:
            r = care
            for sub in subs:
                r = r and r ^ sub(env, masks, r)
            return care ^ r

        return ev_or
    if isinstance(formula, (Exists, Forall)):
        first = max(slots.values(), default=-1) + 1
        scope = {**slots, **{var: first + n for n, var in enumerate(formula.vars)}}
        engine.env_size = max(engine.env_size, first + len(formula.vars))
        fn = compile_formula(formula.sub, engine, scope, atoms)
        codes = tuple(range(len(engine.index)))
        want = isinstance(formula, Exists)
        for var in reversed(formula.vars):
            fn = _quantifier_loop(scope[var], fn, codes, want)
        return fn
    raise LogicError(f"unknown formula node {type(formula).__name__}")


def _quantifier_loop(slot: int, fn: _Compiled, codes: tuple[int, ...], want: bool) -> _Compiled:
    """``exists`` (``want``) as a disjunction and ``forall`` as a
    conjunction of ``fn`` over the object indices, each bound to ``slot``."""
    def ev_exists(env: list, masks: list, care: int) -> int:
        rest = care
        for o in codes:
            env[slot] = o
            rest ^= fn(env, masks, rest)
            if not rest:
                break
        return care ^ rest

    def ev_forall(env: list, masks: list, care: int) -> int:
        for o in codes:
            env[slot] = o
            care = fn(env, masks, care)
            if not care:
                break
        return care

    return ev_exists if want else ev_forall


# ---------------------------------------------------------------------------
# Extension engine

# The atoms a same-stratum atom occurrence can read: (predicate,
# (position, constant) pairs to match, getter of the arguments at the
# positions that read head variables).
_Shape = tuple[str, tuple[tuple[int, str], ...], Callable[[tuple[str, ...]], object]]
# An occurrence in a body: (index of its shape among the stratum's shapes,
# getter that takes a head instance to the key, under its shape's getter,
# of the atoms the occurrence reads for that instance).
_Occurrence = tuple[int, Callable[[tuple[str, ...]], object]]
# A head instance: (atom id, object indices, object names).
_Instance = tuple[int, tuple[int, ...], tuple[str, ...]]
_CompiledAxiom = tuple[str, tuple[_Instance, ...], _Compiled, tuple[_Occurrence, ...]]
# A stratum's additions in the order made: (round, atom, mask of the states
# that gained the atom in that round).
_Added = list[tuple[int, GroundAtom, int]]


def _split(refs: tuple, width: int) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """An atom's compiled arguments, of an axiom with ``width`` head
    variables, as (position, name) of each constant, the positions that read
    a head variable and the head variables they read.  Head variables hold
    the slots below ``width``; a quantifier's variables, a rebound name's
    included, hold the slots above."""
    consts = tuple((i, r) for i, r in enumerate(refs) if isinstance(r, str))
    at = tuple(i for i, r in enumerate(refs) if isinstance(r, int) and r < width)
    return consts, at, tuple(refs[i] for i in at)


def _getter(positions: tuple[int, ...]) -> Callable[[tuple[str, ...]], object]:
    """The items of a tuple at ``positions``: one item as itself, several
    as a tuple, none as ``()``."""
    return itemgetter(*positions) if positions else lambda _: ()


def _grown(shapes: Sequence[_Shape], additions: _Added) -> list[dict[object, int]]:
    """Per shape, the states where an atom of that shape was added among
    ``additions``, keyed by the atom's arguments at the shape's head-variable
    positions."""
    by_pred: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for _, (pred, args), got in additions:
        by_pred.setdefault(pred, []).append((args, got))
    out = []
    for pred, consts, key in shapes:
        index: dict[object, int] = {}
        for args, got in by_pred.get(pred, ()):
            if all(args[i] == c for i, c in consts):
                k = key(args)
                index[k] = index.get(k, 0) | got
        out.append(index)
    return out


class Block(NamedTuple):
    """One program's run over a block of basic states, bit s of each mask
    being state s: ``masks`` holds every ground atom true in some state,
    ``added`` each stratum's additions and ``every`` the mask of all the
    block's states."""

    universe: Universe
    masks: dict[GroundAtom, int]
    added: list[_Added]
    every: int


class Engine:
    """A program compiled against one universe, for repeated extension runs.

    Compiling refuses a constant outside the universe with EvalError; atoms
    compile in preorder, so the first such constant is the one named."""

    def __init__(self, program: AxiomProgram, universe: Universe):
        self.program = program
        self.universe = universe
        objects = universe.objects
        self.index = {o: k for k, o in enumerate(objects)}
        # Only the predicates some axiom mentions are numbered; p's atoms
        # take ids offsets[p], ... in product order.
        axioms = [ax for stratum in program.strata for ax in stratum]
        mentioned = {atom.pred for ax in axioms for _, atom, _ in ax.occurrences}
        mentioned.update(ax.head_pred for ax in axioms)
        self.offsets: dict[str, int] = {}
        self.size = 0  # the number of ground atoms numbered
        for pred in program.signature.values():
            if pred.name in mentioned:
                self.offsets[pred.name] = self.size
                self.size += len(objects) ** pred.arity
        names = cache(lambda arity: tuple(product(objects, repeat=arity)))  # shared per arity
        codes = cache(lambda arity: tuple(product(range(len(objects)), repeat=arity)))
        split, getter = cache(_split), cache(_getter)  # patterns repeat across axioms
        self.env_size = 0  # the environment's length: one past the highest slot handed out
        self.compiled: list[list[_CompiledAxiom]] = []
        self.shapes: list[list[_Shape]] = []
        for stratum in program.strata:
            same = {ax.head_pred for ax in stratum}
            shapes: dict[tuple[str, tuple, tuple[int, ...]], int] = {}
            compiled = []
            for ax in stratum:
                width = len(ax.head_vars)
                self.env_size = max(self.env_size, width)
                atoms: list[tuple[str, tuple]] = []
                slots = dict(zip(ax.head_vars, range(width)))
                body = compile_formula(ax.body, self, slots, atoms)
                occurs: dict[tuple[int, tuple[int, ...]], None] = {}
                for pred, refs in atoms:
                    if pred in same:
                        consts, at, hv = split(refs, width)
                        shape = shapes.setdefault((pred, consts, at), len(shapes))
                        occurs[shape, hv] = None
                occurrences = tuple((shape, getter(hv)) for shape, hv in occurs)
                ids = range(self.offsets[ax.head_pred], self.size)
                instances = tuple(zip(ids, codes(width), names(width)))
                compiled.append((ax.head_pred, instances, body, occurrences))
            self.compiled.append(compiled)
            self.shapes.append([(pred, consts, getter(at)) for pred, consts, at in shapes])

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
        return frozenset(self.run_block(dict.fromkeys(basic_atoms, 1), 1, rng=rng).masks)

    def run_with_stages(
        self, basic_atoms: frozenset[GroundAtom]
    ) -> tuple[frozenset[GroundAtom], list[StageTable]]:
        block = self.run_block(dict.fromkeys(basic_atoms, 1), 1)
        stages = [{key: rnd for rnd, key, _ in added} for added in block.added]
        tables = [StageTable(self.universe, got, max(got.values(), default=0)) for got in stages]
        return frozenset(block.masks), tables

    def run_block(
        self, basic: Mapping[GroundAtom, int], width: int, *, rng: Optional[random.Random] = None
    ) -> Block:
        """Extend ``width`` states, in staged order unless ``rng`` switches
        to chaotic order, on a list of masks indexed by atom id; the run's
        ``Block.masks`` is ``basic`` plus each derived atom's final mask.  An
        atom the program does not declare at its arity reads as false."""
        masks, n = [0] * self.size, len(self.index)
        for (pred, args), got in basic.items():
            if pred in self.offsets and self.program.signature[pred].arity == len(args):
                at = sum(self.index[name] * n ** k for k, name in enumerate(reversed(args)))
                masks[self.offsets[pred] + at] = got
        every = (1 << width) - 1
        added = [
            self._fixpoint(compiled, shapes, masks, every, rng)
            for compiled, shapes in zip(self.compiled, self.shapes)
        ]
        out = dict(basic)
        for _, key, got in chain.from_iterable(added):
            out[key] = out.get(key, 0) | got
        return Block(self.universe, out, added, every)

    def _fixpoint(
        self,
        compiled: list[_CompiledAxiom],
        shapes: list[_Shape],
        masks: list[int],
        live: int,
        rng: Optional[random.Random],
    ) -> _Added:
        """Add the stratum's derivable atoms to ``masks``; return the
        additions.  A round evaluates a head instance only in the ``live``
        states that lack it; a state stays live while it gains atoms.
        Without ``rng`` every body reads the snapshot taken at the start of
        its round, so rounds are stages, and a round after the first also
        skips the states where no same-stratum atom the body reads grew in
        the round before: there the body is still false.  With ``rng``, each
        round shuffles the axioms, then each axiom's head instances, and
        every body reads the live masks."""
        added: _Added = []
        rounds = start = 0
        env = [0] * self.env_size
        while live:
            rounds += 1
            grew = None
            if rng is None:
                order, reads = compiled, masks[:]
                if rounds > 1:
                    grew = _grown(shapes, added[start:])
                start = len(added)
            else:
                order, reads = list(compiled), masks
                rng.shuffle(order)
            gained = 0
            for head, instances, body, occurrences in order:
                deltas = None
                if grew is not None:
                    deltas = [(grew[i], project) for i, project in occurrences if grew[i]]
                    if not deltas:
                        continue
                if rng is not None:
                    instances = list(instances)
                    rng.shuffle(instances)
                for at, codes, names in instances:
                    old = masks[at]
                    need = live & ~old
                    if need and deltas:
                        grown = 0
                        for index, project in deltas:
                            grown |= index.get(project(names), 0)
                        need &= grown
                    if need:
                        env[: len(codes)] = codes
                        got = body(env, reads, need)
                        if got:
                            masks[at] = old | got
                            added.append((rounds, (head, names), got))
                            gained |= got
            live = gained
        return added

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


def stage_relation_masks(
    universe: Universe, added: _Added, every: int, preds: Sequence[Predicate]
) -> dict[tuple[str, int, int], dict[TuplePair, int]]:
    """The stage-order relations of ``STAGE_ORDER`` over all tuple pairs of
    ``preds``, in the states of ``every`` whose stratum made the additions
    ``added``: keyed ``(rel, i, j)`` for members i, j (1-based),
    relation-major, the mask of the states where ``rel`` relates each pair,
    the pairs in sorted order.

    A state's fixpoint stage f is its last productive round, so the states
    at f are ``productive_f & ~productive_{f+1}``, productive_0 being every
    state; there, an atom never derived has stage f+1.  Each condition is
    tested once per (stage of a, stage of b, f) present."""
    productive = {0: every}  # round -> the states that gained an atom in it
    rounds: dict[GroundAtom, list[tuple[int, int]]] = {}
    for rnd, key, got in added:
        productive[rnd] = productive.get(rnd, 0) | got
        rounds.setdefault(key, []).append((rnd, got))
    fixpoints = [(f, productive[f] & ~productive.get(f + 1, 0)) for f in productive]

    def stages(key: GroundAtom) -> dict[int, list[tuple[int, int]]]:
        """f -> (stage, states) of ``key`` in the states at f."""
        out = {}
        for f, at_f in fixpoints:
            cells = [(rnd, got & at_f) for rnd, got in rounds.get(key, ()) if got & at_f]
            never = at_f & ~sum(got for _, got in cells)  # an atom is added once per state
            out[f] = cells + [(f + 1, never)] if never else cells
        return out

    @cache
    def holding(sa: int, sb: int, f: int) -> list[str]:
        return [rel for rel, test in STAGE_ORDER.items() if test(sa, sb, f)]

    objects = sorted(universe.objects)
    tuples = [[(a, stages((p.name, a))) for a in product(objects, repeat=p.arity)] for p in preds]
    members = range(1, len(preds) + 1)
    out = {(rel, i, j): {} for rel in STAGE_ORDER for i in members for j in members}
    for i, j in product(members, repeat=2):
        for (a, at_a), (b, at_b) in product(tuples[i - 1], tuples[j - 1]):
            related = dict.fromkeys(STAGE_ORDER, 0)
            for f, cells in at_a.items():
                for (sa, in_a), (sb, in_b) in product(cells, at_b[f]):
                    both = in_a & in_b
                    if both:
                        for rel in holding(sa, sb, f):
                            related[rel] |= both
            for rel, held in related.items():
                out[rel, i, j][a, b] = held
    return out


def stage_relations(
    table: StageTable, preds: Sequence[Predicate]
) -> dict[tuple[str, int, int], frozenset[TuplePair]]:
    """The stage-order relations over all tuple pairs of one state, keyed as
    ``stage_relation_masks`` keys them: its case of a block of one, for a
    table whose fixpoint stage is its last round, as the engine makes it."""
    added = [(rnd, key, 1) for key, rnd in table.stage.items()]
    return {
        key: frozenset(pair for pair, held in related.items() if held)
        for key, related in stage_relation_masks(table.universe, added, 1, preds).items()
    }
