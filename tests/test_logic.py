"""Core AST behavior: construction guards, polarity, substitution,
simplification, and the stratification checks."""

import dataclasses
import pickle
from dataclasses import dataclass

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
    Exists,
    Forall,
    Formula,
    LogicError,
    Not,
    Or,
    Predicate,
    RandomProfile,
    SignatureError,
    StratificationError,
    Top,
    Var,
    affected_predicates,
    check_stratified,
    collapse_double_negation,
    free_vars,
    generate_random_program,
    iter_atoms,
    lint_polarity,
    negative_occurrences,
    node_count,
    prune_constants,
    substitute,
)
from axf.logic import (
    NEGATIVE,
    POSITIVE,
    formula_at,
    make_conj,
    make_disj,
    make_exists,
    make_forall,
    make_not,
)


def atom(pred, *names):
    return Atom(pred, tuple(Var(n) for n in names))


class TestConstruction:
    def test_connectives_need_two_children(self):
        with pytest.raises(LogicError):
            And((atom("P", "x"),))
        with pytest.raises(LogicError):
            Or(())

    def test_quantifier_vars_distinct_and_nonempty(self):
        with pytest.raises(LogicError):
            Exists((), atom("P", "x"))
        with pytest.raises(LogicError):
            Forall(("x", "x"), atom("P", "x"))

    def test_axiom_head_vars_distinct(self):
        with pytest.raises(LogicError):
            Axiom("P", ("x", "x"), Top())

    def test_axiom_free_vars_within_head(self):
        with pytest.raises(LogicError):
            Axiom("P", ("x",), atom("Q", "x", "y"))
        # unused head variables are fine
        Axiom("P", ("x", "y"), atom("Q", "x"))

    def test_duplicate_predicate_rejected(self):
        with pytest.raises(SignatureError):
            AxiomProgram(
                [Predicate("P", 1, "basic"), Predicate("P", 2, "derived")]
            )

    def test_duplicate_object_rejected(self):
        with pytest.raises(SignatureError):
            AxiomProgram([Predicate("P", 1, "basic")], ("a", "a"))

    @pytest.mark.parametrize(
        "head, head_vars, body, message",
        [
            ("Z", ("x",), Top(), "undeclared predicate Z (stratum 1, axiom 1)"),
            ("B", ("x",), Top(), "head predicate B is basic, not derived (stratum 1, axiom 1)"),
            (
                "P",
                ("x", "y"),
                Top(),
                "head of P has 2 arguments, declared arity is 1 (stratum 1, axiom 1)",
            ),
            (
                "P",
                ("x",),
                Exists(("y",), atom("B", "x", "y")),
                "atom B has 2 arguments, declared arity is 1 (stratum 1, axiom 1)",
            ),
        ],
    )
    def test_axiom_signature_errors(self, head, head_vars, body, message):
        preds = [Predicate("P", 1, "derived"), Predicate("B", 1, "basic")]
        with pytest.raises(SignatureError) as err:
            AxiomProgram(preds, (), [[Axiom(head, head_vars, body)]])
        assert str(err.value) == message


class TestNodeProtocol:
    def nodes(self):
        a, b = atom("P", "x"), atom("Q", "x")
        return [
            Atom("P", (Var("x"),)),
            Top(),
            Bottom(),
            Not(a),
            And((a, b)),
            Or((a, b)),
            Exists(("y",), a),
            Forall(("y",), a),
        ]

    def test_every_node_kind_is_covered(self):
        kinds = {c for c in Formula.__subclasses__() if c.__module__ == "axf.logic"}
        assert {type(f) for f in self.nodes()} == kinds

    def test_rebuild_of_children_is_identity(self):
        for f in self.nodes():
            out = f.rebuild(f.children())
            assert out == f and type(out) is type(f)

    def test_nodes_and_axioms_hold_only_their_logic(self):
        """Source spans stay in the parser: no node kind and no axiom has a
        field beyond its logical parts.  An axiom's two derived fields, the
        occurrences and the size its body walk stored, are not set by a
        caller and are left out of equality and ``repr``."""
        logical = {
            Atom: ("pred", "args"),
            Top: (),
            Bottom: (),
            Not: ("sub",),
            And: ("subs",),
            Or: ("subs",),
            Exists: ("vars", "sub"),
            Forall: ("vars", "sub"),
            Axiom: ("head_pred", "head_vars", "body", "occurrences", "size"),
        }
        for cls, names in logical.items():
            assert tuple(f.name for f in dataclasses.fields(cls)) == names
        derived = [(f.name, f.init, f.compare, f.repr) for f in dataclasses.fields(Axiom)][3:]
        assert derived == [("occurrences", False, False, False), ("size", False, False, False)]

    def test_rebuild_replaces_children_in_order(self):
        c = atom("R", "x")
        for f in self.nodes():
            new = [c] * len(f.children())
            assert list(f.rebuild(new).children()) == new

    def test_foreign_node_is_refused(self):
        @dataclass(frozen=True)
        class Foreign(Formula):
            pass

        for f in (Foreign(), Not(Foreign())):
            with pytest.raises(LogicError, match="unknown formula node Foreign"):
                substitute(f, {"x": Var("y")})
            with pytest.raises(LogicError, match="unknown formula node Foreign"):
                collapse_double_negation(f)


class TestPolarity:
    def test_alternating_negation(self):
        # not (P(x) and not (P(y) and not P(z)))
        body = Not(
            And(
                (
                    atom("P", "x"),
                    Not(And((atom("P", "y"), Not(atom("P", "z"))))),
                )
            )
        )
        seen = [(a.args[0].name, pol) for _, a, pol in iter_atoms(body)]
        assert seen == [("x", NEGATIVE), ("y", POSITIVE), ("z", NEGATIVE)]

    def test_paths_resolve(self):
        body = Or((atom("P", "x"), Exists(("z",), atom("Q", "z"))))
        entries = list(iter_atoms(body))
        for path, found, _ in entries:
            assert formula_at(body, path) == found


def _reference_walk(f, path=(), negations=0):
    """(path, atom, polarity) per atom occurrence in preorder, and the free
    variables, by a recursion that shares no code with ``logic``."""
    if isinstance(f, Atom):
        pol = NEGATIVE if negations % 2 else POSITIVE
        return [(path, f, pol)], {t.name for t in f.args if isinstance(t, Var)}
    negations += isinstance(f, Not)
    occurrences, free = [], set()
    for i, sub in enumerate(f.children()):
        found, loose = _reference_walk(sub, path + (i,), negations)
        occurrences += found
        free |= loose
    if isinstance(f, (Exists, Forall)):
        free -= set(f.vars)
    return occurrences, free


class TestStoredOccurrences:
    """Each axiom walks its body once, when it is built, and keeps the
    occurrences that ``iter_atoms`` would yield."""

    PROFILES = (
        RandomProfile(),
        RandomProfile(
            objects=3, basic_predicates=3, constant_rate=0.3, strata=4, max_members=3, max_depth=4
        ),
    )

    def test_occurrences_match_the_walk(self, path_program):
        programs = [path_program] + [
            generate_random_program(seed, profile)
            for profile in self.PROFILES
            for seed in range(100)
        ]
        axioms = 0
        for program in programs:
            for stratum in program.strata:
                for ax in stratum:
                    occurrences, free = _reference_walk(ax.body)
                    assert ax.occurrences == tuple(iter_atoms(ax.body)) == tuple(occurrences)
                    assert free_vars(ax.body) == frozenset(free) <= set(ax.head_vars)
                    axioms += 1
        assert axioms > 400

    def test_free_variable_error_text_unchanged(self):
        body = And((atom("B", "x", "z"), Exists(("x",), atom("B", "x", "y"))))
        with pytest.raises(LogicError) as err:
            Axiom("P", ("x",), body)
        assert str(err.value) == (
            "body of axiom for P has free variables not in the head: y, z"
        )

    def test_stored_state_is_not_identity(self):
        ax = Axiom("P", ("x",), Not(atom("B", "x")))
        twin = Axiom("P", ("x",), Not(atom("B", "x")))
        object.__setattr__(twin, "occurrences", ())
        assert ax == twin and hash(ax) == hash(twin)
        assert repr(ax) == (
            "Axiom(head_pred='P', head_vars=('x',), "
            "body=Not(sub=Atom(pred='B', args=(Var(name='x'),))))"
        )
        back = pickle.loads(pickle.dumps(ax))
        assert back == ax
        assert back.occurrences == ax.occurrences == (((0,), atom("B", "x"), NEGATIVE),)


class TestSubstitution:
    def test_simultaneous_swap(self):
        body = And((atom("P", "x", "y"), atom("P", "y", "x")))
        swapped = substitute(body, {"x": Var("y"), "y": Var("x")})
        assert swapped == And((atom("P", "y", "x"), atom("P", "x", "y")))

    def test_bound_variables_untouched(self):
        body = Exists(("z",), atom("P", "z", "x"))
        out = substitute(body, {"x": Const("a"), "z": Const("b")})
        assert out == Exists(("z",), Atom("P", (Var("z"), Const("a"))))

    def test_capture_is_refused(self):
        body = Exists(("z",), atom("P", "z", "x"))
        with pytest.raises(LogicError):
            substitute(body, {"x": Var("z")})

    def test_free_vars(self):
        body = Forall(("x",), Or((atom("P", "x", "y"), Atom("Q", (Const("a"),)))))
        assert free_vars(body) == frozenset({"y"})


class TestSimplification:
    def test_prune_drops_constants(self):
        f = And((atom("P", "x"), Top()))
        assert prune_constants(f) == atom("P", "x")
        f = And((atom("P", "x"), Bottom()))
        assert prune_constants(f) == Bottom()
        f = Or((atom("P", "x"), Top()))
        assert prune_constants(f) == Top()
        f = Exists(("x",), Bottom())
        assert prune_constants(f) == Bottom()
        f = Not(Bottom())
        assert prune_constants(f) == Top()

    def test_prune_keeps_double_negation(self):
        f = Not(Not(atom("P", "x")))
        assert prune_constants(f) == f

    def test_collapse_double_negation(self):
        f = Not(Not(Not(Not(atom("P", "x")))))
        assert collapse_double_negation(f) == atom("P", "x")
        g = Forall(("x",), Not(Not(atom("P", "x"))))
        assert collapse_double_negation(g) == Forall(("x",), atom("P", "x"))
        # a single negation stays
        assert collapse_double_negation(Not(atom("P", "x"))) == Not(atom("P", "x"))

    def test_node_count(self):
        assert node_count(Top()) == 1
        assert node_count(atom("P", "x", "y")) == 3
        assert node_count(Exists(("x",), atom("P", "x"))) == 2 + 2
        assert node_count(And((Top(), Bottom()))) == 3
        body = Or((Not(atom("P", "x")), Forall(("y", "z"), atom("Q", "x", "y", "z"))))
        assert node_count(body) == Axiom("R", ("x",), body).size == 1 + 3 + 7


def program_of(text_preds, strata, objects=("a",)):
    return AxiomProgram(text_preds, objects, strata)


class TestStratification:
    B = Predicate("B", 1, "basic")
    P = Predicate("P", 1, "derived")
    Q = Predicate("Q", 1, "derived")

    def test_head_in_two_strata_is_bullet_a(self):
        prog = AxiomProgram(
            [self.B, self.P],
            ("a",),
            (
                (Axiom("P", ("x",), atom("B", "x")),),
                (Axiom("P", ("x",), atom("B", "x")),),
            ),
            validate=False,
        )
        bullets = {v.bullet for v in check_stratified(prog)}
        assert "a" in bullets

    def test_affected_in_earlier_body_is_bullet_b(self):
        prog = AxiomProgram(
            [self.B, self.P, self.Q],
            ("a",),
            (
                (Axiom("P", ("x",), atom("Q", "x")),),
                (Axiom("Q", ("x",), atom("B", "x")),),
            ),
            validate=False,
        )
        bullets = {v.bullet for v in check_stratified(prog)}
        assert "b" in bullets

    def test_bullet_b_once_per_affecting_stratum(self):
        # P has two axioms in stratum 2 and occurs in stratum 1.
        prog = AxiomProgram(
            [self.B, self.P, self.Q],
            ("a",),
            (
                (Axiom("Q", ("x",), atom("P", "x")),),
                (Axiom("P", ("x",), atom("B", "x")), Axiom("P", ("x",), atom("B", "x"))),
            ),
            validate=False,
        )
        assert [v.bullet for v in check_stratified(prog)] == ["b", "c"]

    def test_violations_in_source_order(self):
        R = Predicate("R", 1, "derived")
        prog = AxiomProgram(
            [self.B, self.P, self.Q, R],
            ("a",),
            (
                (Axiom("Q", ("x",), And((atom("P", "x"), Not(atom("R", "x"))))),),
                (
                    Axiom("P", ("x",), atom("B", "x")),
                    Axiom("P", ("x",), atom("B", "x")),
                    Axiom("R", ("x",), Not(atom("P", "x"))),
                ),
                (Axiom("R", ("x",), atom("B", "x")),),
            ),
            validate=False,
        )
        found = [
            (v.bullet, v.stratum_index, v.axiom_index, v.occurrence and v.occurrence.path)
            for v in check_stratified(prog)
        ]
        assert found == [
            ("a", 2, 0, None),
            ("b", 0, 0, (0,)),
            ("c", 0, 0, (0,)),
            ("b", 0, 0, (1, 0)),
            ("d", 0, 0, (1, 0)),
            ("b", 0, 0, (1, 0)),
            ("d", 0, 0, (1, 0)),
            ("d", 1, 2, (0,)),
        ]

    def test_same_stratum_negative_is_bullet_d(self):
        prog = AxiomProgram(
            [self.B, self.P],
            ("a",),
            ((Axiom("P", ("x",), Not(atom("P", "x"))),),),
            validate=False,
        )
        violations = check_stratified(prog)
        assert [v.bullet for v in violations] == ["d"]
        assert violations[0].occurrence is not None

    def test_negative_of_earlier_stratum_is_fine(self):
        prog = AxiomProgram(
            [self.B, self.P, self.Q],
            ("a",),
            (
                (Axiom("P", ("x",), atom("B", "x")),),
                (Axiom("Q", ("x",), Not(atom("P", "x"))),),
            ),
        )
        assert check_stratified(prog) == []

    def test_unaffected_derived_is_vacuously_fine(self):
        prog = AxiomProgram(
            [self.B, self.P, self.Q],
            ("a",),
            ((Axiom("Q", ("x",), Not(atom("P", "x"))),),),
        )
        assert check_stratified(prog) == []

    def test_validate_raises_with_violations(self):
        with pytest.raises(StratificationError) as info:
            AxiomProgram(
                [self.B, self.P],
                ("a",),
                ((Axiom("P", ("x",), Not(atom("P", "x"))),),),
            )
        assert info.value.violations

    def test_constants_must_be_declared(self):
        with pytest.raises(SignatureError):
            AxiomProgram(
                [self.B, self.P],
                ("a",),
                ((Axiom("P", ("x",), Atom("B", (Const("zz"),))),),),
            )

    def test_one_body_walk_per_axiom(self, path_program, monkeypatch):
        """Building an axiom walks its body exactly once; the program-level
        scans read the stored occurrences and walk no built body again."""
        import axf.logic
        from axf.transformer import compute_metrics, eliminate_negative_occurrences
        from axf.verifier import _refuse_dropped_constants

        walked, built = [], [0]
        real_scan, real_post_init = axf.logic._scan, Axiom.__post_init__

        def counting(formula):
            walked.append(formula)
            return real_scan(formula)

        def building(axiom):
            built[0] += 1
            real_post_init(axiom)

        monkeypatch.setattr(axf.logic, "_scan", counting)
        monkeypatch.setattr(Axiom, "__post_init__", building)
        axioms = [ax for stratum in path_program.strata for ax in stratum]
        again = [Axiom(ax.head_pred, ax.head_vars, ax.body) for ax in axioms]
        assert walked == [ax.body for ax in axioms]
        assert [ax.occurrences for ax in again] == [ax.occurrences for ax in axioms]
        assert [ax.size for ax in again] == [ax.size for ax in axioms]

        walked.clear()
        assert check_stratified(path_program) == []
        assert lint_polarity(path_program)
        compute_metrics(path_program)
        _refuse_dropped_constants(path_program, 2)
        assert walked == []

        # The elimination walks only the bodies of the axioms it builds: the
        # rewritten ones and the stage family, each once.
        built[0] = 0
        out, report = eliminate_negative_occurrences(path_program)
        assert report.iterations == 1 and len(walked) == built[0] > 0
        before = {id(ax.body) for ax in axioms}
        assert not any(id(body) in before for body in walked)
        assert len({id(body) for body in walked}) == len(walked)

    def test_first_signature_error_in_source_order(self):
        """The first axiom's undeclared body predicate is reported before
        the second axiom's basic head."""
        prog = AxiomProgram(
            [self.B, self.P],
            ("a",),
            ((Axiom("P", ("x",), atom("Z", "x")), Axiom("B", ("x",), atom("B", "x"))),),
            validate=False,
        )
        with pytest.raises(SignatureError) as info:
            check_stratified(prog)
        assert str(info.value) == "undeclared predicate Z (stratum 1, axiom 1)"

    def test_negative_occurrences_listing(self):
        prog = AxiomProgram(
            [self.B, self.P, self.Q],
            ("a",),
            (
                (Axiom("P", ("x",), atom("B", "x")),),
                (
                    Axiom(
                        "Q",
                        ("x",),
                        And((Not(atom("P", "x")), Not(Not(atom("P", "x"))))),
                    ),
                ),
            ),
        )
        refs = negative_occurrences(prog, ["P"])
        assert len(refs) == 1
        assert refs[0].stratum_index == 1 and refs[0].path == (0, 0)

    def test_affected_predicates_order(self):
        stratum = (
            Axiom("Q", ("x",), atom("B", "x")),
            Axiom("P", ("x",), atom("B", "x")),
            Axiom("Q", ("x",), atom("B", "x")),
        )
        assert affected_predicates(stratum) == ("Q", "P")


# ---------------------------------------------------------------------------
# Property tests: simplification preserves truth on random formulas.

_OBJECTS = ("a", "b")
_SIG = {"P": 1, "Q": 2, "Z": 0}


def _terms():
    return st.one_of(
        st.sampled_from([Var("x"), Var("y")]),
        st.sampled_from([Const("a"), Const("b")]),
    )


def _atoms():
    return st.one_of(
        [
            st.builds(lambda ts: Atom(name, tuple(ts)), st.tuples(*([_terms()] * arity)))
            for name, arity in _SIG.items()
        ]
    )


_fresh_q = st.integers(min_value=0, max_value=10 ** 6)


def _formulas():
    return st.recursive(
        st.one_of(_atoms(), st.just(Top()), st.just(Bottom())),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(lambda a, b: And((a, b)), sub, sub),
            st.builds(lambda a, b: Or((a, b)), sub, sub),
            st.builds(lambda n, s: Exists((f"q{n}",), s), _fresh_q, sub),
            st.builds(lambda n, s: Forall((f"q{n}",), s), _fresh_q, sub),
        ),
        max_leaves=12,
    )


def _naive_eval(formula, atoms, env):
    """Independent reference evaluation by explicit substitution."""
    if isinstance(formula, Atom):
        args = []
        for t in formula.args:
            if isinstance(t, Var):
                if t.name not in env:
                    return False  # stray bound name from shadowing; skip via assume
                args.append(env[t.name])
            else:
                args.append(t.name)
        return (formula.pred, tuple(args)) in atoms
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Not):
        return not _naive_eval(formula.sub, atoms, env)
    if isinstance(formula, And):
        return all(_naive_eval(s, atoms, env) for s in formula.subs)
    if isinstance(formula, Or):
        return any(_naive_eval(s, atoms, env) for s in formula.subs)

    def bindings(vars_left, env):
        if not vars_left:
            yield env
            return
        for obj in _OBJECTS:
            yield from bindings(vars_left[1:], {**env, vars_left[0]: obj})

    inner = formula.sub
    results = (_naive_eval(inner, atoms, e) for e in bindings(list(formula.vars), env))
    return any(results) if isinstance(formula, Exists) else all(results)


def _all_cells():
    from itertools import product

    out = []
    for name, arity in _SIG.items():
        for combo in product(_OBJECTS, repeat=arity):
            out.append((name, combo))
    return out


_CELLS = _all_cells()


@st.composite
def _formula_and_state(draw):
    formula = draw(_formulas())
    mask = draw(st.integers(min_value=0, max_value=(1 << len(_CELLS)) - 1))
    atoms = frozenset(c for k, c in enumerate(_CELLS) if mask >> k & 1)
    env = {"x": draw(st.sampled_from(_OBJECTS)), "y": draw(st.sampled_from(_OBJECTS))}
    return formula, atoms, env


@given(_formula_and_state())
@settings(max_examples=150, deadline=None)
def test_prune_constants_preserves_truth(case):
    formula, atoms, env = case
    pruned = prune_constants(formula)
    assert _naive_eval(formula, atoms, env) == _naive_eval(pruned, atoms, env)


def _nary_formulas():
    """Formulas whose And and Or nodes have two to four parts."""
    return st.recursive(
        st.one_of(_atoms(), st.just(Top()), st.just(Bottom())),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.lists(sub, min_size=2, max_size=4).map(lambda parts: And(tuple(parts))),
            st.lists(sub, min_size=2, max_size=4).map(lambda parts: Or(tuple(parts))),
            st.builds(lambda n, s: Exists((f"q{n}",), s), _fresh_q, sub),
            st.builds(lambda n, s: Forall((f"q{n}",), s), _fresh_q, sub),
        ),
        max_leaves=16,
    )


def _through_constructors(formula):
    """The same formula built bottom-up through the ``make_*`` constructors."""
    subs = [_through_constructors(s) for s in formula.children()]
    if isinstance(formula, Not):
        return make_not(subs[0])
    if isinstance(formula, (And, Or)):
        return (make_conj if isinstance(formula, And) else make_disj)(subs)
    if isinstance(formula, (Exists, Forall)):
        return (make_exists if isinstance(formula, Exists) else make_forall)(formula.vars, subs[0])
    return formula


@given(_nary_formulas())
@settings(max_examples=150, deadline=None)
def test_constructors_fold_as_prune_constants(formula):
    """Folding lives in the constructors: a formula built through them is
    the built-plainly formula pruned."""
    assert _through_constructors(formula) == prune_constants(formula)


@given(_formula_and_state())
@settings(max_examples=150, deadline=None)
def test_collapse_double_negation_preserves_truth(case):
    formula, atoms, env = case
    collapsed = collapse_double_negation(formula)
    assert _naive_eval(formula, atoms, env) == _naive_eval(collapsed, atoms, env)


@given(_formulas())
@settings(max_examples=150, deadline=None)
def test_negation_flips_every_polarity(formula):
    inner = [(path, pol) for path, _, pol in iter_atoms(formula)]
    outer = {path: pol for path, _, pol in iter_atoms(Not(formula))}
    for path, pol in inner:
        flipped = outer[(0,) + path]
        assert flipped != pol
