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
per-stratum fixpoint loop runs in three orders:

 - staged: each round applies all axioms in parallel against a frozen
   snapshot of the masks and records, for every derived atom, the first
   snapshot in which it holds;

 - in place: each round visits the axioms in program order and reads the
   live masks, so a body sees what earlier bodies of its round added;

 - chaotic: each round visits the axioms and their head instances in an
   order drawn from a caller-supplied RNG and reads the live masks.  Round
   r draws the same shuffles for every state.

Any order reaches the same fixed point, because same-stratum predicates
only occur positively, but only a staged run's rounds are stages: only the
staged ``Block.added`` holds them.  ``run_with_stages`` and
``extend_in_stages`` run staged, ``run`` and ``extend`` in place.

The live mask holds the states that gained an atom in the previous round; a
round evaluates a head instance only in the live states that lack it, and
the loop ends when no state is live.  A staged or in-place round after the
first narrows that further, semi-naively: a body false where it last ran
can turn true only where a same-stratum atom it reads was added since, so
each addition is indexed as it is made, per shape of its atom (predicate,
constants and the positions that read head variables; a quantified
variable reads any object), by an integer key, the base-n number of its
object indices at those positions.  A head instance's key under each
occurrence in its body comes from a table shared by the process, and the
instance is evaluated only in the states its index entries hold: the
additions of the round before when staged, so that each state runs the
rounds it would run alone, and those since the start of the round before
when in place.  A chaotic run narrows nothing.  A run returns its
``Block``: the final masks and each stratum's additions by round, off
which ``stage_relation_masks`` reads the stage-order relations of every
state of a staged block at once.

Stage convention: snapshot 0 is the state before anything is derived, and
round l (l = 1, 2, ...) adds every head instance whose body holds in
snapshot l-1.  stage(atom) is the least l whose snapshot contains the atom.
The fixpoint stage f is the number of productive rounds, so explicit stages
lie in 1..f and an underivable atom has implicit stage f+1.  With nothing
derivable at all, f = 0 and every atom of the stratum sits at stage 1 = f+1.

Formulas compile in two tiers, both evaluating a subformula only in the
states still undecided (short-circuiting And/Or, early-exit quantifier
loops).  Each variable is resolved at compile time to a slot of the
environment, a list of object indices: head variables take the first
slots, and each quantifier gives its variables fresh slots for its scope,
so a rebound name is sound.  An atom reads ``masks[base + env[a] * ca +
...]``, its constants folded into ``base``.  Every body compiles to nested
closures, one call per formula node.  A heavy body, whose work estimate
n ** (width + quantifier depth), its head instances times the bindings of
its deepest quantifier nest, reaches ``_GENERATE_AT`` (1,024), is then
generated as the source of one Python function, with slots as locals,
quantifiers as ``for`` loops and connectives as ``if`` blocks, unless it
nests deeper than CPython compiles; a lighter body keeps its closures,
since compiling source would cost it more than the calls it saves.  The
source holds only integers and the generator's own names, and compiles
through a process-wide cache keyed by the source text and bounded at
``_CACHED_BODIES`` (256) functions.  Engine keeps the compiled program
around so sweeps over many blocks pay compilation once.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain, count, product
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
    preorder, as its predicate, per argument its slot or constant, its base
    id and its (slot, coefficient) pairs.  A constant outside the universe
    raises EvalError.
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
        pairs = tuple(terms.items())
        atoms.append((formula.pred, refs, base, pairs))
        # One lambda per pair count up to 4: on 2 CPUs under Python 3.11 the
        # benchmark's path-pool pass ran 26% slower without the 3- and 4-pair
        # ones, and 40% slower with one itemgetter/map(mul) closure for every
        # atom of 2 or more pairs.
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
        # A conjunct is evaluated only in the states of ``care`` where the
        # earlier ones hold; a disjunct only in ``r``, where they all fail.
        subs = tuple(compile_formula(s, engine, slots, atoms) for s in formula.subs)
        if isinstance(formula, And):
            def ev_and(env: list, masks: list, care: int) -> int:
                for sub in subs:
                    care = care and sub(env, masks, care)
                return care

            return ev_and

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


# A body is generated as one function when its work estimate, its head
# instances times the bindings of its deepest quantifier nest, n ** (width +
# depth), reaches this.  Below it, compiling the source costs more than the
# closure calls it saves: every body of the random n=2 programs estimates at
# most 256, and generating them all made the benchmark's random-n2 pass more
# than twice as slow.
_GENERATE_AT = 1024
# CPython refuses a line indented 100 levels deep, or more than 20 nested
# loops in one function; a body that would need more keeps its closures.
_MAX_INDENT = 99
_MAX_LOOPS = 20
# Generated functions kept per process, the most recently used first.
_CACHED_BODIES = 256


def _body_source(formula: Formula, width: int, n: int, atoms: list) -> Optional[str]:
    """The source of ``body(env, masks, care)``, one function computing
    what ``compile_formula`` compiled ``formula`` to for an axiom with
    ``width`` head variables over ``n`` objects; ``atoms`` is the list that
    compile filled.  Slot k is the local ``s<k>``: the head slots are read
    from ``env`` once, and each quantified variable is a ``for`` loop over
    the object indices in the slot after every slot in scope, as
    ``compile_formula`` numbers them.  Names of the program never enter the
    source.  None if the function would nest deeper than Python allows."""
    lines = ["def body(env, masks, care):"]
    lines += [f"    s{k} = env[{k}]" for k in range(width)]
    resolved, temps = iter(atoms), (f"t{k}" for k in count())
    objects = "(" + "".join(f"{o}, " for o in range(n)) + ")"
    deepest = loops = 0

    def emit(node: Formula, care: str, out: str, depth: int, slot: int) -> None:
        """Lines at indentation ``depth`` that set ``out`` to the node's
        truth in the states of ``care``, with the closures' short-circuits;
        they write only ``out`` and fresh temporaries, and read ``care``
        only before they write ``out``, so ``out`` may be ``care``."""
        nonlocal deepest, loops
        deepest, loops = max(deepest, depth), max(loops, slot - width)
        pad = "    " * depth
        if isinstance(node, Atom):
            _, _, base, pairs = next(resolved)
            terms = [f"s{a}" if c == 1 else f"s{a} * {c}" for a, c in pairs]
            index = " + ".join([str(base)] * (base > 0 or not terms) + terms)
            lines.append(f"{pad}{out} = masks[{index}] & {care}")
        elif isinstance(node, (Top, Bottom)):
            lines.append(f"{pad}{out} = {care if isinstance(node, Top) else 0}")
        elif isinstance(node, Not):
            got = next(temps)
            emit(node.sub, care, got, depth, slot)
            lines.append(f"{pad}{out} = {care} ^ {got}")
        elif isinstance(node, And):
            # Each conjunct narrows ``out`` to where the earlier ones hold.
            first, *rest = node.subs
            emit(first, care, out, depth, slot)
            for sub in rest:
                lines.append(f"{pad}if {out}:")
                emit(sub, out, out, depth + 1, slot)
        elif isinstance(node, Or):
            # ``left`` holds the states where every disjunct so far fails.
            left, got = next(temps), next(temps)
            first, *rest = node.subs
            emit(first, care, got, depth, slot)
            lines.append(f"{pad}{left} = {care} ^ {got}")
            for sub in rest:
                lines.append(f"{pad}if {left}:")
                emit(sub, left, got, depth + 1, slot)
                lines.append(f"{pad}    {left} ^= {got}")
            lines.append(f"{pad}{out} = {care} ^ {left}")
        else:  # a quantifier: compile_formula refused any other node
            # ``exists`` narrows ``left`` to the states no binding satisfies
            # yet, ``forall`` narrows ``out`` to those every binding does;
            # each loop stops once no state is left.
            want = isinstance(node, Exists)
            watch = next(temps) if want else out
            if watch != care:
                lines.append(f"{pad}{watch} = {care}")
            k = len(node.vars)
            for i in range(k):
                lines.append(f"{pad}{'    ' * i}for s{slot + i} in {objects}:")
            if want:
                got = next(temps)
                emit(node.sub, watch, got, depth + k, slot + k)
                lines.append(f"{pad}{'    ' * k}{watch} ^= {got}")
            else:
                emit(node.sub, watch, watch, depth + k, slot + k)
            for i in reversed(range(k)):
                lines.append(f"{pad}{'    ' * (i + 1)}if not {watch}: break")
            if want:
                lines.append(f"{pad}{out} = {care} ^ {watch}")

    emit(formula, "care", "care", 1, width)
    lines.append("    return care")
    return "\n".join(lines) + "\n" if deepest <= _MAX_INDENT and loops <= _MAX_LOOPS else None


@lru_cache(maxsize=_CACHED_BODIES)
def _generated(source: str) -> _Compiled:
    """The function ``source`` defines, compiled once while it stays among
    the ``_CACHED_BODIES`` most recently used: verifier workers build an
    engine per block, and their engines share few distinct bodies.  The
    code object's file name is a digest of the source, so a profile keeps
    each generated body apart."""
    digest = hashlib.blake2s(source.encode(), digest_size=6).hexdigest()
    namespace: dict = {"__builtins__": {}}
    exec(compile(source, f"<axf body {digest}>", "exec"), namespace)
    return namespace["body"]


# ---------------------------------------------------------------------------
# Extension engine

# A head instance: (atom id, object indices, object names).
_Instance = tuple[int, tuple[int, ...], tuple[str, ...]]
# A compiled axiom: (head predicate, head instances, body, (reads, writes)).
# ``reads`` holds, per same-stratum atom occurrence in the body, the index of
# its shape among the stratum's shapes and each head instance's key under
# it; ``writes`` holds, per shape of the head predicate, its index, its
# (position, object index) constants and each head atom's key under it.
_CompiledAxiom = tuple[str, tuple[_Instance, ...], _Compiled, tuple[tuple, tuple]]
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


@lru_cache(maxsize=_CACHED_BODIES)
def _keys(n: int, width: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    """Per tuple of ``width`` object indices, in product order, the base-n
    number of its indices at ``positions``: the semi-naive key of a head
    instance, or of an added atom, under one occurrence or shape.  Shared by
    every engine of the process, like the generated bodies."""
    weights = tuple((p, n ** k) for k, p in enumerate(reversed(positions)))
    tuples = product(range(n), repeat=width)
    return tuple(sum([codes[p] * w for p, w in weights]) for codes in tuples)


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
        objects, n = universe.objects, len(universe.objects)
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
                self.size += n ** pred.arity
        names = cache(lambda arity: tuple(product(objects, repeat=arity)))  # shared per arity
        codes = cache(lambda arity: tuple(product(range(n), repeat=arity)))
        split = cache(_split)  # patterns repeat across axioms
        self.env_size = 0  # the environment's length: one past the highest slot handed out
        self.compiled: list[list[_CompiledAxiom]] = []
        self.shapes: list[int] = []  # per stratum, the number of shapes its bodies read
        for stratum in program.strata:
            same = {ax.head_pred for ax in stratum}
            shapes: dict[tuple[str, tuple, tuple[int, ...]], int] = {}
            made = []
            for ax in stratum:
                width = len(ax.head_vars)
                atoms: list[tuple[str, tuple, int, tuple]] = []
                slots = dict(zip(ax.head_vars, range(width)))
                outer, self.env_size = self.env_size, width  # count this body's slots
                body = compile_formula(ax.body, self, slots, atoms)
                if n ** self.env_size >= _GENERATE_AT:  # head instances x quantifier bindings
                    source = _body_source(ax.body, width, n, atoms)
                    body = body if source is None else _generated(source)
                self.env_size = max(outer, self.env_size)
                occurs: dict[tuple[int, tuple[int, ...]], None] = {}
                for pred, refs, *_ in atoms:
                    if pred in same:
                        consts, at, hv = split(refs, width)
                        occurs[shapes.setdefault((pred, consts, at), len(shapes)), hv] = None
                reads = tuple((shape, _keys(n, width, hv)) for shape, hv in occurs)
                ids = range(self.offsets[ax.head_pred], self.size)
                instances = tuple(zip(ids, codes(width), names(width)))
                made.append((ax.head_pred, instances, body, reads))
            writes: dict[str, tuple] = {}  # head predicate -> the shapes of its atoms
            for (pred, consts, at), shape in shapes.items():
                consts = tuple((i, self.index[c]) for i, c in consts)
                keys = _keys(n, program.signature[pred].arity, at)
                writes[pred] = writes.get(pred, ()) + ((shape, consts, keys),)
            self.compiled.append([
                (head, instances, body, (reads, writes.get(head, ())))
                for head, instances, body, reads in made
            ])
            self.shapes.append(len(shapes))

    def check_basic_state(self, basic_state: TruthAssignment) -> None:
        if basic_state.universe != self.universe:
            raise EvalError("basic state universe differs from the engine universe")
        basic = frozenset(p.name for p in self.program.basic_predicates)
        objects = set(self.universe.objects)
        if basic_state.covered != basic:
            raise EvalError("basic state must cover exactly the basic predicates")
        for name, args in sorted(basic_state.true_atoms):  # the least bad atom is reported
            if len(args) != self.program.signature[name].arity:
                raise EvalError(f"state atom {name} has wrong arity")
            for c in args:
                if c not in objects:
                    raise EvalError(f"state mentions object {c} outside the universe")

    def run(
        self, basic_atoms: frozenset[GroundAtom], *, rng: Optional[random.Random] = None
    ) -> frozenset[GroundAtom]:
        """Extend a basic state through every stratum, in place; ``rng``
        switches to chaotic order for order-independence experiments."""
        block = self.run_block(dict.fromkeys(basic_atoms, 1), 1, rng=rng, staged=False)
        return frozenset(block.masks)

    def run_with_stages(
        self, basic_atoms: frozenset[GroundAtom]
    ) -> tuple[frozenset[GroundAtom], list[StageTable]]:
        block = self.run_block(dict.fromkeys(basic_atoms, 1), 1)
        stages = [{key: rnd for rnd, key, _ in added} for added in block.added]
        tables = [StageTable(self.universe, got, max(got.values(), default=0)) for got in stages]
        return frozenset(block.masks), tables

    def run_block(
        self,
        basic: Mapping[GroundAtom, int],
        width: int,
        *,
        rng: Optional[random.Random] = None,
        staged: bool = True,
    ) -> Block:
        """Extend ``width`` states on a list of masks indexed by atom id: in
        chaotic order if ``rng`` is given, else in staged order, or in place
        if not ``staged``.  The run's ``Block.masks`` is ``basic`` plus each
        derived atom's final mask; only a staged run's ``Block.added`` holds
        stages.  An atom the program does not declare at its arity reads as
        false."""
        masks, n = [0] * self.size, len(self.index)
        for (pred, args), got in basic.items():
            if pred in self.offsets and self.program.signature[pred].arity == len(args):
                at = sum(self.index[name] * n ** k for k, name in enumerate(reversed(args)))
                masks[self.offsets[pred] + at] = got
        every = (1 << width) - 1
        added = [
            self._fixpoint(compiled, shapes, masks, every, rng, staged)
            for compiled, shapes in zip(self.compiled, self.shapes)
        ]
        out = dict(basic)
        for _, key, got in chain.from_iterable(added):
            out[key] = out.get(key, 0) | got
        return Block(self.universe, out, added, every)

    def _fixpoint(
        self,
        compiled: list[_CompiledAxiom],
        shapes: int,
        masks: list[int],
        live: int,
        rng: Optional[random.Random],
        staged: bool,
    ) -> _Added:
        """Add the stratum's derivable atoms to ``masks``, in the order the
        module docstring describes; return the additions.  ``cur`` indexes
        this round's additions per shape and ``prev`` the round before's:
        a staged round narrows by ``prev``, an in-place one by both."""
        added: _Added = []
        rounds = 0
        env = [0] * self.env_size
        prev, cur = None, [{} for _ in range(shapes)]  # per shape, key -> states
        while live:
            rounds += 1
            order, reads = compiled, masks
            if rng is not None:
                order = list(compiled)
                rng.shuffle(order)
            elif staged:
                reads = masks[:]
            gained = 0
            for head, instances, body, (occurrences, writes) in order:
                deltas = None
                if prev is not None:
                    deltas = [(prev[i], keys) for i, keys in occurrences if prev[i]]
                    if not staged:
                        deltas += [(cur[i], keys) for i, keys in occurrences if cur[i]]
                    if not deltas:
                        continue
                if rng is not None:  # a chaotic run narrows nothing, so it indexes nothing
                    instances, writes = list(instances), ()
                    rng.shuffle(instances)
                for k, (at, codes, names) in enumerate(instances):
                    old = masks[at]
                    need = live & ~old
                    if need and deltas:
                        grown = 0
                        for index, keys in deltas:
                            grown |= index.get(keys[k], 0)
                        need &= grown
                    if need:
                        env[: len(codes)] = codes
                        got = body(env, reads, need)
                        if got:
                            masks[at] = old | got
                            added.append((rounds, (head, names), got))
                            gained |= got
                            for i, consts, keys in writes:
                                if not consts or all(codes[p] == c for p, c in consts):
                                    index, key = cur[i], keys[k]
                                    index[key] = index.get(key, 0) | got
            live = gained
            if rng is None:
                prev, cur = cur, [{} for _ in range(shapes)]
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
