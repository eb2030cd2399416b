"""Fixpoint evaluation, derivation stages, and the stage relations."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axf import (
    And,
    Atom,
    Axiom,
    AxiomProgram,
    Bottom,
    Const,
    Engine,
    EvalError,
    Exists,
    Forall,
    Not,
    Or,
    Predicate,
    RELATION_NAMES,
    RandomProfile,
    SignatureError,
    Top,
    TruthAssignment,
    Universe,
    Var,
    extend,
    extend_in_stages,
    eliminate_negative_occurrences,
    generate_random_program,
    merge_to_single_stratum,
    parse_program,
    stage_relations,
)
from axf.evaluator import stage_relation_masks

U3 = Universe(("a", "b", "c"))


def basic_state(universe, atoms, covered=("E",)):
    return TruthAssignment(universe, frozenset(atoms), frozenset(covered))


class TestUniverseAndAssignment:
    def test_universe_guards(self):
        with pytest.raises(EvalError):
            Universe(())
        with pytest.raises(EvalError):
            Universe(("a", "a"))

    def test_holds_outside_cover_raises(self):
        state = basic_state(U3, {("E", ("a", "b"))})
        assert state.holds("E", ("a", "b"))
        assert not state.holds("E", ("b", "a"))
        with pytest.raises(EvalError):
            state.holds("path", ("a", "b"))

    def test_atoms_must_be_covered(self):
        with pytest.raises(EvalError):
            TruthAssignment(U3, frozenset({("path", ("a", "b"))}), frozenset({"E"}))


class TestEvalFormula:
    """Formula truth, read off ``Engine`` runs of a one-axiom program."""

    atoms = frozenset({("E", ("a", "b")), ("E", ("b", "c"))})

    def holds(self, formula, head_vars=(), args=(), objects=U3.objects):
        """Whether ``formula`` holds with ``head_vars`` bound to ``args``;
        ``objects`` declares the program's constants."""
        program = AxiomProgram(
            [Predicate("E", 2, "basic"), Predicate("Q", len(head_vars), "derived")],
            objects,
            [[Axiom("Q", head_vars, formula)]],
        )
        return ("Q", args) in Engine(program, U3).run(self.atoms)

    def test_quantifiers_and_connectives(self):
        reaches = Exists(("y",), Atom("E", (Var("x"), Var("y"))))
        assert self.holds(reaches, ("x",), ("a",))
        assert not self.holds(reaches, ("x",), ("c",))
        assert self.holds(Not(reaches), ("x",), ("c",))

    def test_constants(self):
        assert self.holds(Atom("E", (Const("a"), Const("b"))))
        assert not self.holds(Atom("E", (Const("b"), Const("a"))))

    def test_uncovered_predicate(self):
        with pytest.raises(SignatureError):
            self.holds(Atom("path", (Const("a"), Const("b"))))

    def test_unknown_constant(self):
        with pytest.raises(EvalError):
            self.holds(Atom("E", (Const("zz"), Const("a"))), objects=U3.objects + ("zz",))

    def test_first_outside_constant_named(self):
        """Compilation refuses constants in preorder: ``zz`` in the first
        axiom's second conjunct comes before ``yy`` in the second axiom."""
        def edge(x, y):
            return Atom("E", (Const(x), Const(y)))

        program = AxiomProgram(
            [Predicate("E", 2, "basic"), Predicate("Q", 0, "derived")],
            U3.objects + ("yy", "zz"),
            [[Axiom("Q", (), And((edge("a", "b"), edge("a", "zz")))), Axiom("Q", (), edge("yy", "a"))]],
        )
        with pytest.raises(EvalError) as info:
            Engine(program, U3)
        assert str(info.value) == "program mentions object zz outside the universe"

    def test_rebound_names_match_reference(self):
        """A quantifier that rebinds ``x`` under an outer ``x`` binds its own
        variable, and the outer ``x`` reads its own binding again once the
        inner quantifier has run."""
        x, y = Var("x"), Var("y")

        def E(s, t):
            return Atom("E", (s, t))

        loop = Exists(("x",), E(x, x))
        bodies = [
            ((), Exists(("x",), loop)),
            (("x",), And((loop, E(x, Const("b"))))),
            (("x",), Exists(("x",), And((E(x, x), Forall(("x",), E(x, x)))))),
            (("x",), Forall(("y",), Or((Not(E(x, y)), Exists(("x",), E(y, x)), E(x, x))))),
            (
                ("x", "y"),
                Exists(("y",), And((E(x, y), Exists(("x", "y"), E(y, x)), E(y, x)))),
            ),
        ]
        cells = [("E", pair) for pair in product(U3.objects, repeat=2)]
        for head_vars, body in bodies:
            program = AxiomProgram(
                [Predicate("E", 2, "basic"), Predicate("Q", len(head_vars), "derived")],
                U3.objects,
                [[Axiom("Q", head_vars, body)]],
            )
            engine = Engine(program, U3)
            for mask in range(0, 1 << len(cells), 7):
                atoms = frozenset(c for k, c in enumerate(cells) if mask >> k & 1)
                assert engine.run(atoms) == reference_extend(program, U3.objects, atoms)


class TestStages:
    def test_path_stage_table(self, path_program, path_state):
        final, tables = extend_in_stages(path_program, U3, path_state)
        assert len(tables) == 2
        table = tables[0]
        assert table.fixpoint_stage == 2
        assert table.stage == {
            ("path", ("a", "b")): 1,
            ("path", ("b", "c")): 1,
            ("path", ("a", "c")): 2,
        }
        assert table.stage_of("path", ("a", "b")) == 1
        assert table.stage_of("path", ("a", "c")) == 2
        # everything underivable sits one past the fixpoint
        assert table.stage_of("path", ("c", "a")) == 3
        assert final.holds("acyclic", ())

    def test_empty_state_has_empty_table(self, path_program):
        state = basic_state(U3, set())
        _, tables = extend_in_stages(path_program, U3, state)
        assert tables[0].fixpoint_stage == 0
        assert tables[0].stage == {}
        assert tables[0].stage_of("path", ("a", "a")) == 1

    def test_cycle_derives_everything_reachable(self, path_program):
        atoms = {("E", ("a", "b")), ("E", ("b", "a"))}
        final = extend(path_program, U3, basic_state(U3, atoms))
        assert final.holds("path", ("a", "a"))
        assert not final.holds("acyclic", ())
        assert not final.holds("path", ("a", "c"))

    def test_check_basic_state_guards(self, path_program):
        engine = Engine(path_program, U3)
        wrong_universe = basic_state(Universe(("a", "b")), set())
        with pytest.raises(EvalError):
            engine.check_basic_state(wrong_universe)
        not_basic = TruthAssignment(U3, frozenset(), frozenset({"E", "path"}))
        with pytest.raises(EvalError):
            engine.check_basic_state(not_basic)

    @pytest.mark.parametrize(
        "atoms, covered, message",
        [
            ({("E", ("a",))}, ("E",), "state atom E has wrong arity"),
            ({("E", ("a", "z"))}, ("E",), "state mentions object z outside the universe"),
            (set(), ("E", "path"), "basic state must cover exactly the basic predicates"),
        ],
    )
    def test_extend_refusals(self, path_program, atoms, covered, message):
        with pytest.raises(EvalError) as err:
            extend(path_program, U3, basic_state(U3, atoms, covered))
        assert str(err.value) == message

    def test_full_cover(self, path_program):
        assert Engine(path_program, U3).full_cover() == {"E", "path", "acyclic"}


class TestStageRelations:
    def fixture(self, path_program, path_state):
        table = extend_in_stages(path_program, U3, path_state)[1][0]
        preds = [path_program.signature["path"]]
        return table, stage_relations(table, preds)

    def test_path_relations(self, path_program, path_state):
        table, rel = self.fixture(path_program, path_state)
        assert set(rel) == {(r, 1, 1) for r in RELATION_NAMES}
        ab, bc, ac = ("a", "b"), ("b", "c"), ("a", "c")
        lt = rel["lt", 1, 1]
        assert (ab, ac) in lt and (ac, ab) not in lt
        assert (ab, bc) not in lt  # equal stages
        leq = rel["leq", 1, 1]
        assert (ab, bc) in leq and (ab, ac) in leq
        # stage f+1 tuples never sit on the left of leq
        assert all(table.stage_of("path", a) <= 2 for a, _ in leq)
        tri = rel["tri", 1, 1]
        assert (ab, ac) in tri and (ab, bc) not in tri
        # fixpoint-stage tuples step to the underivable ones
        assert (ac, ("c", "a")) in tri

    def test_complement_laws(self, path_program, path_state):
        table, rel = self.fixture(path_program, path_state)
        objs = U3.objects
        all_pairs = {
            ((x1, x2), (y1, y2))
            for x1 in objs
            for x2 in objs
            for y1 in objs
            for y2 in objs
        }
        assert rel["nlt", 1, 1] == all_pairs - rel["lt", 1, 1]
        assert rel["nleq", 1, 1] == all_pairs - rel["leq", 1, 1]

    def test_keys_are_relation_major(self):
        # _theorem1 reports the first disagreeing key in this order
        program = parse_program(
            "(program (objects a b) (basic (E 2)) (derived (P 1) (Q 2))"
            " (stratum (axiom (P ?x) (exists (?y) (E ?x ?y)))"
            " (axiom (Q ?x ?y) (and (P ?x) (E ?x ?y)))))"
        )
        u = Universe(("a", "b"))
        table = extend_in_stages(program, u, basic_state(u, {("E", ("a", "b"))}))[1][0]
        preds = [program.signature["P"], program.signature["Q"]]
        assert list(stage_relations(table, preds)) == [
            (rel, i, j) for rel in RELATION_NAMES for i in (1, 2) for j in (1, 2)
        ]

    def test_no_members(self, path_program, path_state):
        table, _ = self.fixture(path_program, path_state)
        assert stage_relations(table, []) == {}

    def test_relation_names_constant(self):
        assert RELATION_NAMES == ("lt", "leq", "nlt", "nleq", "tri")


def all_states(cells):
    for mask in range(1 << len(cells)):
        yield frozenset(c for k, c in enumerate(cells) if mask >> k & 1)


E_CELLS = [("E", (x, y)) for x in "ab" for y in "ab"]


def test_stage_invariants_exhaustive(path_program):
    """Stage-table laws over every two-object basic state."""
    u = Universe(("a", "b"))
    pred = [path_program.signature["path"]]
    for atoms in all_states(E_CELLS):
        state = basic_state(u, atoms)
        table = extend_in_stages(path_program, u, state)[1][0]
        f = table.fixpoint_stage
        stages = set(table.stage.values())
        assert all(1 <= s <= f for s in stages)
        if f:
            assert set(range(1, f + 1)) == stages  # every round productive
        rel = stage_relations(table, pred)
        tuples = [(x, y) for x in u.objects for y in u.objects]
        for a in tuples:
            sa = table.stage_of("path", a)
            for b in tuples:
                sb = table.stage_of("path", b)
                assert ((a, b) in rel["lt", 1, 1]) == (sa < sb)
                assert ((a, b) in rel["leq", 1, 1]) == (sa <= sb and sa <= f)
                assert ((a, b) in rel["tri", 1, 1]) == (sa + 1 == sb)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=0, max_value=255))
@settings(max_examples=60, deadline=None)
def test_staged_equals_chaotic(seed, state_seed):
    """Derived atoms do not depend on rule application order."""
    prog = generate_random_program(seed)
    universe = Universe(prog.universe_hint or ("a", "b"))
    cells = sorted(
        (p.name, combo)
        for p in prog.signature.values()
        if p.kind == "basic"
        for combo in _combos(universe.objects, p.arity)
    )
    rng = random.Random(state_seed)
    atoms = frozenset(c for c in cells if rng.random() < 0.5)
    state = TruthAssignment(
        universe, atoms, frozenset(p.name for p in prog.signature.values() if p.kind == "basic")
    )
    ordered = extend(prog, universe, state)
    for order_seed in (0, 1):
        chaotic = extend(prog, universe, state, rng=random.Random(order_seed))
        assert chaotic.true_atoms == ordered.true_atoms


def _combos(objects, arity):
    from itertools import product

    return product(objects, repeat=arity)


def test_extend_is_deterministic(path_program, path_state):
    a = extend(path_program, U3, path_state)
    b = extend(path_program, U3, path_state)
    assert a == b
    ra, ta = extend_in_stages(path_program, U3, path_state)
    rb, tb = extend_in_stages(path_program, U3, path_state)
    assert ra == rb and [t.stage for t in ta] == [t.stage for t in tb]


# A reference interpreter that shares no code with the engine: it walks the
# formula tree, and each round evaluates every axiom on the atoms known when
# the round starts, until a round adds nothing.  It records each derived
# atom's round, so its rounds are the stages of the engine's convention.

def _holds(formula, env, atoms, objects):
    if isinstance(formula, Atom):
        args = tuple(env[t.name] if isinstance(t, Var) else t.name for t in formula.args)
        return (formula.pred, args) in atoms
    if isinstance(formula, (Top, Bottom)):
        return isinstance(formula, Top)
    if isinstance(formula, Not):
        return not _holds(formula.sub, env, atoms, objects)
    if isinstance(formula, (And, Or)):
        test = all if isinstance(formula, And) else any
        return test(_holds(sub, env, atoms, objects) for sub in formula.subs)
    if isinstance(formula, (Exists, Forall)):
        test = any if isinstance(formula, Exists) else all
        return test(
            _holds(formula.sub, {**env, **dict(zip(formula.vars, combo))}, atoms, objects)
            for combo in product(objects, repeat=len(formula.vars))
        )
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def reference_stages(program, objects, basic_atoms):
    """The extension, and per stratum each derived atom's stage and the
    number of productive rounds."""
    atoms = frozenset(basic_atoms)
    tables = []
    for stratum in program.strata:
        stage, rounds = {}, 0
        while True:
            new = {
                (ax.head_pred, combo)
                for ax in stratum
                for combo in product(objects, repeat=len(ax.head_vars))
                if _holds(ax.body, dict(zip(ax.head_vars, combo)), atoms, objects)
            } - atoms
            if not new:
                break
            rounds += 1
            stage.update(dict.fromkeys(new, rounds))
            atoms |= new
        tables.append((stage, rounds))
    return atoms, tables


def reference_extend(program, objects, basic_atoms):
    return reference_stages(program, objects, basic_atoms)[0]


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_extend_matches_reference_interpreter(seed):
    """The original, transformed and merged programs extend one seeded state
    exactly as the reference interpreter does."""
    original = generate_random_program(
        seed, RandomProfile(objects=3, strata=3, max_members=2)
    )
    transformed, _ = eliminate_negative_occurrences(original)
    universe = Universe(original.universe_hint)
    basic = [p for p in original.signature.values() if p.kind == "basic"]
    rng = random.Random(seed)
    atoms = frozenset(
        (p.name, combo)
        for p in basic
        for combo in product(universe.objects, repeat=p.arity)
        if rng.random() < 0.5
    )
    state = TruthAssignment(universe, atoms, frozenset(p.name for p in basic))
    for program in (original, transformed, merge_to_single_stratum(transformed)):
        got = extend(program, universe, state).true_atoms
        assert got == reference_extend(program, universe.objects, atoms)


def block_states(cells, width, seed):
    """``width`` seeded states of varied density, settling at different
    rounds, with the empty state first, the full state last and, from
    width 4 on, a duplicate in the middle."""
    rng = random.Random(seed)
    states = []
    for _ in range(width):
        density = rng.random()
        states.append(frozenset(c for c in cells if rng.random() < density))
    if width:
        states[0] = frozenset()
    if width > 1:
        states[-1] = frozenset(cells)
    if width > 3:
        states[width // 2] = states[1]
    return states


def run_states(engine, states, rng=None):
    """``engine.run_block`` over ``states``, each an iterable of basic
    atoms: bit s of an atom's mask is its truth in state s."""
    basic = {}
    for s, atoms in enumerate(states):
        for key in atoms:
            basic[key] = basic.get(key, 0) | 1 << s
    return engine.run_block(basic, len(states), rng=rng)


def state_of(block, s):
    """State ``s``'s atoms and, per stratum, its stage of each derived atom
    and its fixpoint stage, read bit by bit off a block."""
    atoms = frozenset(key for key, held in block.masks.items() if held >> s & 1)
    tables = []
    for added in block.added:
        stage = {key: rnd for rnd, key, got in added if got >> s & 1}
        tables.append((stage, max(stage.values(), default=0)))
    return atoms, tables


@pytest.mark.parametrize("width", [0, 1, 2, 63, 64, 65, 200])
@pytest.mark.parametrize("role, size", [("original", 3), ("transformed", 2), ("merged", 2)])
def test_block_matches_reference(path_program, role, size, width):
    """A block run holds, state by state, the reference interpreter's atoms
    and stage tables; a chaotic block run its atoms."""
    transformed, _ = eliminate_negative_occurrences(path_program)
    program = {
        "original": path_program,
        "transformed": transformed,
        "merged": merge_to_single_stratum(transformed),
    }[role]
    universe = Universe(("a", "b", "c")[:size])
    cells = [("E", pair) for pair in product(universe.objects, repeat=2)]
    states = block_states(cells, width, f"{role}:{width}")
    engine = Engine(program, universe)
    want = {s: reference_stages(program, universe.objects, s) for s in set(states)}
    block = run_states(engine, states)
    assert block.every == (1 << width) - 1
    for s, state in enumerate(states):
        atoms, tables = state_of(block, s)
        assert atoms == want[state][0]
        assert tables == want[state][1]
    if width > 60:
        assert len({want[s][1][0][1] for s in states}) > 1  # settled at different rounds
    for seed in (0, 1):
        chaotic = run_states(engine, states, random.Random(f"order:{seed}"))
        assert [state_of(chaotic, s)[0] for s in range(width)] == [want[s][0] for s in states]


def _recursive_programs():
    """One-stratum programs over ``E`` whose bodies read ``Q`` itself: under
    a quantifier that rebinds a head variable's name, with a constant
    argument, and with a head variable repeated."""
    x, y, z = Var("x"), Var("y"), Var("z")

    def E(s, t):
        return Atom("E", (s, t))

    def Q(s, t):
        return Atom("Q", (s, t))

    a, b = Const("a"), Const("b")
    bodies = {
        # Q(x, y) reads Q(x', y) for every x', not Q(x, y).
        "rebound": Or((E(x, y), Exists(("x",), And((E(y, x), Q(x, y)))))),
        # Q(x, y) reads Q(x, y') and Q(x', x') for every y' and x'.
        "rebound-inner": Or(
            (E(x, y), Exists(("y",), And((Q(x, y), Exists(("x",), And((E(y, x), Q(x, x))))))))
        ),
        "constant": Or(
            (E(x, y), And((Q(x, b), E(b, y))), And((Q(a, x), E(x, y))))
        ),
        "repeated": Or(
            (E(x, y), And((Q(x, x), E(y, x))), Exists(("z",), And((Q(x, z), Q(z, y)))))
        ),
    }
    for name, body in bodies.items():
        program = AxiomProgram(
            [Predicate("E", 2, "basic"), Predicate("Q", 2, "derived")],
            U3.objects,
            [[Axiom("Q", ("x", "y"), body)]],
        )
        yield pytest.param(program, id=name)


@pytest.mark.parametrize("width", [1, 64, 200])
@pytest.mark.parametrize("program", _recursive_programs())
def test_same_stratum_reads_match_reference(program, width):
    """Rounds after the first re-evaluate a head instance only where a
    ``Q`` atom its body reads grew; the atoms and stage tables of every
    state still match the reference interpreter's."""
    cells = [("E", pair) for pair in product(U3.objects, repeat=2)]
    states = block_states(cells, width, f"recursive:{width}")
    want = {s: reference_stages(program, U3.objects, s) for s in set(states)}
    block = run_states(Engine(program, U3), states)
    for s, state in enumerate(states):
        assert state_of(block, s) == want[state]
    if width > 1:
        assert max(want[s][1][0][1] for s in states) > 1  # a round after the first derives


# Predicates of arity 0, 1, 3 and 5.  Atoms carry the constant ``a`` first,
# in the middle and last, repeat a variable (``(W ?x ?x a ?x ?x)`` reads one
# slot at two coefficients), and ``(W ?v ?w ?x ?y ?z)`` reads five distinct
# variables.  R and P also read themselves.
ARITIES = """
(program
  (objects a b c)
  (basic (Z 0) (U 1) (T 3))
  (derived (R 3) (W 5) (P 1) (B 0))
  (stratum
    (axiom (R ?x ?y ?z)
      (or (T ?x ?y ?z)
          (and (T a ?y ?x) (U ?z))
          (exists (?w) (and (R ?x ?w ?y) (R ?w a ?z)))
          (R ?z ?z a)))
    (axiom (W ?v ?w ?x ?y ?z) (and (R ?v ?w ?x) (R ?x ?y ?z) (not (Z)))))
  (stratum
    (axiom (P ?x)
      (or (and (Z) (not (U ?x)))
          (exists (?v ?w ?y ?z) (W ?v ?w ?x ?y ?z))
          (W ?x ?x a ?x ?x)
          (exists (?y) (and (P ?y) (T ?y ?x ?y)))))
    (axiom (B) (forall (?x) (P ?x)))))
"""


@pytest.mark.parametrize("width", [1, 64])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_atom_numbering_matches_reference(size, width):
    """Over one, two and three objects, a staged block holds the reference
    interpreter's atoms and stage tables state by state, and a chaotic
    block its atoms, for atoms of every arity and argument pattern."""
    program = parse_program(ARITIES)
    universe = Universe(("a", "b", "c")[:size])
    cells = [
        (p.name, args)
        for p in program.basic_predicates
        for args in product(universe.objects, repeat=p.arity)
    ]
    states = block_states(cells, width, f"arities:{size}:{width}")
    want = {s: reference_stages(program, universe.objects, s) for s in set(states)}
    engine = Engine(program, universe)
    block = run_states(engine, states)
    chaotic = run_states(engine, states, random.Random(f"order:{size}"))
    for s, state in enumerate(states):
        assert state_of(block, s) == want[state]
        assert state_of(chaotic, s)[0] == want[state][0]
    if width > 1:
        assert any(pred == "W" for s in states for pred, _ in want[s][0])  # W is derived
        assert max(want[s][1][1][1] for s in states) > 1  # P reads itself


def test_environment_holds_every_quantified_variable():
    """A body under 100 nested quantifiers needs 101 slots of environment;
    the engine sizes it from the slots the compiler hands out."""
    body = Atom("E", (Var("x"), Var("v99")))
    for k in reversed(range(100)):
        body = Exists((f"v{k}",), body)
    program = AxiomProgram(
        [Predicate("E", 2, "basic"), Predicate("Q", 1, "derived")],
        ("a",),
        [[Axiom("Q", ("x",), body)]],
    )
    universe = Universe(("a",))
    states = [frozenset(), frozenset({("E", ("a", "a"))})]
    block = run_states(Engine(program, universe), states)
    for s, state in enumerate(states):
        assert state_of(block, s) == reference_stages(program, universe.objects, state)
    assert block.masks[("Q", ("a",))] == 0b10


def test_only_mentioned_predicates_are_numbered():
    """A declared predicate that no axiom mentions gets no atom ids, so the
    10-ary ``B`` over four objects costs no 4**10 entries per run; its atoms
    pass through the run unread, and the extension is the reference's."""
    program = parse_program(
        "(program (objects a b c d) (basic (B 10) (E 1)) (derived (P 1))"
        " (stratum (axiom (P ?x) (E ?x))))"
    )
    universe = Universe(("a", "b", "c", "d"))
    engine = Engine(program, universe)
    assert engine.size == 8
    state = frozenset({("B", ("a",) * 10), ("E", ("a",)), ("E", ("c",))})
    want, tables = reference_stages(program, universe.objects, state)
    assert ("P", ("c",)) in want and ("B", ("a",) * 10) in want
    assert engine.run(state) == want
    got, stages = extend_in_stages(program, universe, basic_state(universe, state, ("B", "E")))
    assert got.true_atoms == want
    assert [table.stage for table in stages] == [stage for stage, _ in tables]


def test_later_rounds_skip_unchanged_bodies(path_program):
    """A staged block of all 512 three-object states of the transformed
    ``path`` program calls the compiled bodies 2,818 times over 433,553
    states in all.  Evaluating every head instance in every live state that
    lacks it, as each round did before rounds read the previous round's
    additions, takes 3,250 calls over 985,325 states.  A chaotic run still
    does that: its count is the same as before."""
    transformed, _ = eliminate_negative_occurrences(path_program)
    engine = Engine(transformed, U3)
    calls = []

    def counted(body):
        def run(env, masks, care):
            calls.append(bin(care).count("1"))
            return body(env, masks, care)

        return run

    engine.compiled = [
        [(head, combos, counted(body), *rest) for head, combos, body, *rest in stratum]
        for stratum in engine.compiled
    ]
    states = list(all_states([("E", pair) for pair in product(U3.objects, repeat=2)]))
    block = run_states(engine, states)
    assert (len(calls), sum(calls)) == (2818, 433553)
    assert sum(map(len, block.added)) == 1852
    calls.clear()
    run_states(engine, states, random.Random("order:0"))
    assert (len(calls), sum(calls)) == (2836, 837641)


# The five stage-order conditions, written out apart from
# ``evaluator.STAGE_ORDER``: sa and sb are the stages of a and b, f the
# fixpoint stage, and f+1 the stage of an atom never derived.
SCALAR_ORDER = {
    "lt": lambda sa, sb, f: sa < sb,
    "leq": lambda sa, sb, f: sa <= f and not sb < sa,
    "nlt": lambda sa, sb, f: not sa < sb,
    "nleq": lambda sa, sb, f: sa == f + 1 or sb < sa,
    "tri": lambda sa, sb, f: sb - sa == 1,
}

# One stratum of two members that derive each other: R holds of S and of
# everything reachable from it along E, and T of the E edges leaving R.
TWO_MEMBERS = """
(program
  (objects a b c)
  (basic (E 2) (S 1))
  (derived (R 1) (T 2))
  (stratum
    (axiom (R ?x) (or (S ?x) (exists (?y) (and (T ?y ?x) (R ?y)))))
    (axiom (T ?x ?y) (and (E ?x ?y) (R ?x)))))
"""


@pytest.mark.parametrize("width", [1, 64, 200])
@pytest.mark.parametrize("source", ["path", "two-member"])
def test_stage_relation_masks_match_scalar_conditions(path_source, source, width):
    """Over a block of states, each relation's mask holds state by state
    what the scalar conditions say of the reference interpreter's stages."""
    program = parse_program(path_source if source == "path" else TWO_MEMBERS)
    stratum = program.strata[0]
    preds = [program.signature[head] for head in dict.fromkeys(ax.head_pred for ax in stratum)]
    cells = sorted(
        (p.name, args)
        for p in program.basic_predicates
        for args in product(U3.objects, repeat=p.arity)
    )
    states = block_states(cells, width, f"oracle:{source}:{width}")
    block = run_states(Engine(program, U3), states)
    got = stage_relation_masks(U3, block.added[0], block.every, preds)
    members = range(1, len(preds) + 1)
    assert list(got) == [(rel, i, j) for rel in SCALAR_ORDER for i in members for j in members]
    tuples = [list(product(U3.objects, repeat=p.arity)) for p in preds]
    fixpoints = []
    for s, state in enumerate(states):
        stage, f = reference_stages(program, U3.objects, state)[1][0]
        fixpoints.append(f)
        for (rel, i, j), related in got.items():
            want = {
                (a, b): SCALAR_ORDER[rel](
                    stage.get((preds[i - 1].name, a), f + 1),
                    stage.get((preds[j - 1].name, b), f + 1),
                    f,
                )
                for a, b in product(tuples[i - 1], tuples[j - 1])
            }
            assert list(related) == sorted(want)
            assert {pair: bool(held >> s & 1) for pair, held in related.items()} == want
    assert fixpoints[0] == 0  # the empty state derives nothing
    if width > 1:
        assert len(set(fixpoints)) > 2  # states settled at different rounds
