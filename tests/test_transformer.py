"""Stage-axiom generation and the negative-occurrence elimination loop."""

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
    Not,
    Or,
    Predicate,
    StageMode,
    TransformError,
    Universe,
    Var,
    check_stratified,
    compute_metrics,
    eliminate_negative_occurrences,
    extend,
    format_formula,
    generate_stage_axioms,
    merge_to_single_stratum,
    negative_occurrences,
    normalize_stratum,
    parse_program,
    print_program,
    prune_constants,
    substitute_stage,
)
from axf.logic import NEGATIVE, formula_at, free_vars, iter_atoms
from axf.transformer import MUTATIONS

from conftest import ROOT, THREE_STRATA_SOURCE

GOLDEN_FAMILIES = ROOT / "tests" / "golden" / "two_member_families.axp"


def atom(pred, *names):
    return Atom(pred, tuple(Var(n) for n in names))


MEMBERS = {"P": 1, "Q": 2}
NAMES = {
    (rel, i, j): f"{rel}_{i}{j}"
    for rel in ("lt", "leq", "nlt", "nleq", "tri")
    for i in (1, 2)
    for j in (1, 2)
}


class TestSubstituteStage:
    body = And((atom("P", "x"), atom("E", "x")))

    def test_bottom_mode(self):
        out = substitute_stage(self.body, MEMBERS, NAMES, StageMode.BOTTOM)
        assert out == Bottom()  # a Bottom conjunct absorbs its And

    def test_bottom_under_quantifier_not_folded(self):
        f = Exists(("w1",), And((atom("E", "w1"), atom("P", "w1"))))
        out = substitute_stage(f, MEMBERS, NAMES, StageMode.BOTTOM)
        assert out == Bottom()  # and a quantifier over Bottom is Bottom

    def test_leq_appends_extras(self):
        extra = (Var("y1"), Var("y2"))
        out = substitute_stage(self.body, MEMBERS, NAMES, StageMode.LEQ, 2, extra)
        assert out == And((atom("leq_12", "x", "y1", "y2"), atom("E", "x")))

    def test_lt_mode(self):
        out = substitute_stage(atom("Q", "u", "v"), MEMBERS, NAMES, StageMode.LT, 1, (Var("t"),))
        assert out == atom("lt_21", "u", "v", "t")

    def test_negated_modes_wrap(self):
        out = substitute_stage(atom("P", "x"), MEMBERS, NAMES, StageMode.NOT_NLT, 1, (Var("t"),))
        assert out == Not(atom("nlt_11", "x", "t"))
        out = substitute_stage(atom("P", "x"), MEMBERS, NAMES, StageMode.NOT_NLEQ, 1, (Var("t"),))
        assert out == Not(atom("nleq_11", "x", "t"))

    def test_non_member_atoms_untouched(self):
        f = Or((atom("E", "x"), Not(atom("E", "x"))))
        assert substitute_stage(f, MEMBERS, NAMES, StageMode.LEQ, 1, (Var("t"),)) == f

    def test_extra_capture_rejected(self):
        f = Exists(("t",), atom("P", "t"))
        with pytest.raises(TransformError):
            substitute_stage(f, MEMBERS, NAMES, StageMode.LEQ, 1, (Var("t"),))


class TestNormalizeStratum:
    def test_heads_canonicalized(self):
        stratum = (Axiom("P", ("u", "v"), atom("E", "v", "u")),)
        (ax,) = normalize_stratum(stratum)
        assert ax.head_vars == ("v1", "v2")
        assert ax.body == atom("E", "v2", "v1")

    def test_multiple_axioms_become_disjunction(self):
        stratum = (
            Axiom("P", ("u",), atom("E", "u", "u")),
            Axiom("P", ("w",), Exists(("z",), atom("E", "w", "z"))),
        )
        (ax,) = normalize_stratum(stratum)
        assert ax.head_vars == ("v1",)
        assert isinstance(ax.body, Or) and len(ax.body.subs) == 2
        assert ax.body.subs[0] == atom("E", "v1", "v1")

    def test_bound_names_distinct_across_members(self):
        stratum = (
            Axiom("P", ("u",), Exists(("z",), atom("E", "u", "z"))),
            Axiom("Q", ("u",), Exists(("z",), atom("E", "z", "u"))),
        )
        p_ax, q_ax = normalize_stratum(stratum)
        p_bound = p_ax.body.vars
        q_bound = q_ax.body.vars
        assert set(p_bound).isdisjoint(q_bound)
        for ax in (p_ax, q_ax):
            assert all(v.startswith("w") for v in ax.body.vars)

    def test_member_order_follows_first_head(self):
        stratum = (
            Axiom("Q", ("u",), atom("E", "u", "u")),
            Axiom("P", ("u",), atom("E", "u", "u")),
            Axiom("Q", ("u",), atom("E", "u", "u")),
        )
        heads = [ax.head_pred for ax in normalize_stratum(stratum)]
        assert heads == ["Q", "P"]

    def test_renaming_edge_cases(self):
        """Fresh names w1.. go to the quantifiers in preorder, member by
        member, and skip every name the stratum uses (here w1, w3 and v1)."""
        stratum = (
            # a quantifier rebinding the head variable x, then a nested
            # rebinding of z
            Axiom("P", ("x",), And((
                atom("E", "x", "x"),
                Exists(("x",), Exists(("z",), And((
                    atom("E", "x", "z"), Forall(("z",), atom("E", "z", "x")))))),
            ))),
            # two sibling quantifiers binding z, in a head that uses w1
            Axiom("Q", ("w1", "y"), Or((
                Exists(("z",), atom("E", "w1", "z")), Forall(("z",), atom("E", "z", "y"))
            ))),
            # a second axiom for P, whose binders use w3 and v1
            Axiom("P", ("u",), Exists(("w3", "v1"), atom("E", "u", "w3"))),
        )
        p_ax, q_ax = normalize_stratum(stratum)
        assert (p_ax.head_vars, q_ax.head_vars) == (("v1",), ("v1", "v2"))
        assert format_formula(p_ax.body) == (
            "(or (and (E ?v1 ?v1) (exists (?w2) (exists (?w4) "
            "(and (E ?w2 ?w4) (forall (?w5) (E ?w5 ?w2)))))) (exists (?w6 ?w7) (E ?v1 ?w6)))"
        )
        assert format_formula(q_ax.body) == "(or (exists (?w8) (E ?v1 ?w8)) (forall (?w9) (E ?w9 ?v2)))"


class TestFamilyStructure:
    def test_path_family_names_and_shapes(self, path_program):
        fam = generate_stage_axioms(path_program, 0)
        assert fam.members == ("path",)
        assert fam.arities == (2,)
        assert fam.round_index == 1
        assert fam.names[("nleq", 1, 1)] == "nleq__path__path__r1"
        assert len(fam.axioms) == 5
        order = [ax.head_pred.split("__")[0] for ax in fam.axioms]
        assert order == ["lt", "leq", "nlt", "nleq", "tri"]
        for ax in fam.axioms:
            assert len(ax.head_vars) == 4
        assert fam.aux_empty is None and fam.aux_fix == {}
        assert {p.name for p in fam.predicates} == {
            f"{rel}__path__path__r1" for rel in ("lt", "leq", "nlt", "nleq", "tri")
        }
        assert all(p.kind == "derived" and p.arity == 4 for p in fam.predicates)

    def test_generated_bodies_have_no_negative_derived(self, path_program):
        fam = generate_stage_axioms(path_program, 0)
        extended = AxiomProgram(
            list(path_program.signature.values()) + list(fam.predicates),
            path_program.universe_hint,
            (path_program.strata[0], fam.axioms),
        )
        assert check_stratified(extended) == []

    def test_two_member_family_counts(self):
        prog = parse_program(
            """
            (program
              (objects a)
              (basic (E 2))
              (derived (P 1) (Q 2))
              (stratum
                (axiom (P ?x) (E ?x ?x))
                (axiom (Q ?x ?y) (and (E ?x ?y) (P ?x)))))
            """
        )
        fam = generate_stage_axioms(prog, 0)
        assert fam.members == ("P", "Q")
        assert len(fam.axioms) == 5 * 4
        assert len(fam.predicates) == 20
        by_name = {p.name: p.arity for p in fam.predicates}
        assert by_name["lt__P__Q__r1"] == 3
        assert by_name["tri__Q__P__r1"] == 3
        assert by_name["nleq__Q__Q__r1"] == 4
        # (i, j) pairs enumerate lexicographically within each relation
        heads = [ax.head_pred for ax in fam.axioms]
        assert heads[0:4] == [
            "lt__P__P__r1",
            "lt__P__Q__r1",
            "lt__Q__P__r1",
            "lt__Q__Q__r1",
        ]

    def test_aux_predicates(self, path_program):
        fam = generate_stage_axioms(path_program, 0, optimize_aux=True)
        assert fam.aux_empty == "aux_empty__r1"
        assert fam.aux_fix == {1: "aux_fix__path__r1"}
        arity = {p.name: p.arity for p in fam.predicates}
        assert arity["aux_empty__r1"] == 0
        assert arity["aux_fix__path__r1"] == 2
        assert len(fam.axioms) == 7
        assert [ax.head_pred for ax in fam.axioms[-2:]] == [
            "aux_empty__r1",
            "aux_fix__path__r1",
        ]

    def test_name_collision_bumps_round(self, path_program):
        fam = generate_stage_axioms(
            path_program, 0, avoid_names=frozenset({"lt__path__path__r1"})
        )
        assert fam.round_index == 2
        assert fam.names[("nleq", 1, 1)] == "nleq__path__path__r2"

    def test_plain_scheme_survives_harmless_underscores(self):
        prog = parse_program(
            """
            (program
              (objects a)
              (basic (E 2))
              (derived (aa__bb 1) (aa 1))
              (stratum
                (axiom (aa__bb ?u) (E ?u ?u))
                (axiom (aa ?u) (and (E ?u ?u) (aa__bb ?u)))))
            """
        )
        fam = generate_stage_axioms(prog, 0)
        assert fam.names[("lt", 1, 2)] == "lt__aa__bb__aa__r1"

    def test_tagged_scheme_for_ambiguous_members(self):
        # lt__x__x__x would name both (1, 2) and (2, 1), so every member
        # gets a position tag
        prog = parse_program(
            """
            (program
              (objects a)
              (basic (E 2))
              (derived (x 1) (x__x 1))
              (stratum
                (axiom (x ?u) (E ?u ?u))
                (axiom (x__x ?u) (and (E ?u ?u) (x ?u)))))
            """
        )
        fam = generate_stage_axioms(prog, 0)
        assert fam.names[("lt", 1, 2)] == "lt__m1_x__m2_x__x__r1"
        assert fam.names[("lt", 2, 1)] == "lt__m2_x__x__m1_x__r1"
        assert len({p.name for p in fam.predicates}) == 20

    def test_mutation_names(self, path_program):
        for mutation in MUTATIONS:
            fam = generate_stage_axioms(path_program, 0, mutation=mutation)
            assert fam.mutation == mutation
            assert len(fam.axioms) == 5
        with pytest.raises(TransformError):
            generate_stage_axioms(path_program, 0, mutation="eq9")

    def test_two_member_families_match_golden(self):
        # members of different arities with a quantifier between them, so a
        # swapped i and j changes the printed text
        prog = parse_program(TWO_MEMBERS)
        sections = []
        for label, options in [
            ("plain", {}),
            ("optimize_aux", {"optimize_aux": True}),
        ] + [(m, {"mutation": m}) for m in MUTATIONS]:
            fam = generate_stage_axioms(prog, 0, **options)
            extended = AxiomProgram(
                list(prog.signature.values()) + list(fam.predicates),
                prog.universe_hint,
                (prog.strata[0], fam.axioms),
                validate=False,
            )
            sections.append(
                f"; {label}\n; predicates: {' '.join(p.name for p in fam.predicates)}\n"
                + print_program(extended)
            )
        assert "\n".join(sections) == GOLDEN_FAMILIES.read_text(encoding="utf-8")

    def test_each_shared_part_built_once(self, monkeypatch):
        import axf.transformer as T

        prog = parse_program(
            """
            (program
              (objects a b)
              (basic (E 2))
              (derived (P 1) (Q 2) (R 1))
              (stratum
                (axiom (P ?x) (or (E ?x ?x) (exists (?y) (Q ?y ?x))))
                (axiom (Q ?x ?y) (and (E ?x ?y) (P ?x)))
                (axiom (R ?x) (forall (?y) (or (P ?y) (E ?x ?y))))))
            """
        )
        real = T.substitute_stage
        for optimize_aux in (False, True):
            calls = []

            def counting(formula, member_index, names, mode, target=0, extra=()):
                calls.append((formula, mode, target, extra))
                return real(formula, member_index, names, mode, target, extra)

            monkeypatch.setattr(T, "substitute_stage", counting)
            generate_stage_axioms(prog, 0, optimize_aux=optimize_aux)
            assert calls and len(calls) == len(set(calls))

    def test_stratum_without_derived_refused(self, path_program):
        with pytest.raises(TransformError):
            generate_stage_axioms(path_program, 9)


TWO_MEMBERS = """
(program
  (objects a b)
  (basic (E 2))
  (derived (P 1) (Q 2))
  (stratum
    (axiom (P ?x) (or (E ?x ?x) (exists (?y) (and (E ?x ?y) (Q ?y ?x)))))
    (axiom (Q ?x ?y) (and (E ?x ?y) (P ?x)))))
"""

CHAIN = """
(program
  (objects a b)
  (basic (E 2))
  (derived (P 1) (Q 1) (S 1))
  (stratum (axiom (P ?x) (E ?x ?x)))
  (stratum (axiom (Q ?x) (and (E ?x ?x) (not (P ?x)))))
  (stratum (axiom (S ?x) (and (not (Q ?x)) (not (P ?x))))))
"""


class TestElimination:
    def test_path_program(self, path_program):
        out, report = eliminate_negative_occurrences(path_program)
        assert report.iterations == 1
        assert len(report.families) == 1
        rec = report.families[0]
        assert rec.origin_stratum == 0 and rec.stratum_index == 1
        assert len(out.strata) == 3
        assert negative_occurrences(out, [p.name for p in out.signature.values() if p.kind == "derived"]) == []
        assert check_stratified(out) == []
        (rep,) = report.replacements
        assert rep.pred == "path" and rep.kind == "stage"
        assert rep.replacement_pred == "nleq__path__path__r1"
        # the recorded path points at the rewritten spot in the output
        body = out.strata[rep.stratum_index][rep.axiom_index].body
        spot = formula_at(body, rep.path)
        assert spot == Not(
            Atom("nleq__path__path__r1", tuple(Var(v) for v in ("x", "x", "x", "x")))
        )

    def test_chain_program_needs_two_families(self):
        prog = parse_program(CHAIN)
        out, report = eliminate_negative_occurrences(prog)
        assert len(report.families) == 2
        rounds = sorted(f.family.round_index for f in report.families)
        assert rounds == [1, 2]
        assert report.iterations >= 2
        derived = [p.name for p in out.signature.values() if p.kind == "derived"]
        assert negative_occurrences(out, derived) == []
        assert check_stratified(out) == []
        # the later family embeds rewritten copies of Q's body, so the first
        # family's diagonal shows up inside the second family's axioms
        second = max(report.families, key=lambda f: f.family.round_index)
        text = repr(out.strata[second.stratum_index])
        assert "nleq__P__P__r1" in text

    def test_chain_semantics_preserved(self):
        prog = parse_program(CHAIN)
        out, _ = eliminate_negative_occurrences(prog)
        universe = Universe(("a", "b"))
        from axf import TruthAssignment

        cells = [("E", (x, y)) for x in "ab" for y in "ab"]
        derived_names = {p.name for p in prog.signature.values() if p.kind == "derived"}
        for mask in range(16):
            atoms = frozenset(c for k, c in enumerate(cells) if mask >> k & 1)
            state = TruthAssignment(universe, atoms, frozenset({"E"}))
            want = {
                a for a in extend(prog, universe, state).true_atoms if a[0] in derived_names
            }
            got = {
                a for a in extend(out, universe, state).true_atoms if a[0] in derived_names
            }
            assert got == want, mask

    def test_family_placed_before_an_earlier_family(self):
        # Q's family comes first; P's family later lands in front of it, so
        # every stratum index recorded after Q's family shifts by one
        out, report = eliminate_negative_occurrences(parse_program(THREE_STRATA_SOURCE))
        assert report.iterations == 2
        assert [
            (f.origin_stratum, f.stratum_index, f.family.round_index) for f in report.families
        ] == [(1, 3, 1), (0, 1, 2)]
        assert [
            (r.pred, r.stratum_index, r.axiom_index, r.replacement_pred)
            for r in report.replacements
        ] == [("Q", 4, 0, "nleq__Q__Q__r1")] + [
            ("P", 3, ai, "nleq__P__P__r2") for ai in (2, 3, 4, 4)
        ]
        assert [s[0].head_pred for s in out.strata] == [
            "P", "lt__P__P__r2", "Q", "lt__Q__Q__r1", "S"
        ]
        for r in report.replacements:
            spot = formula_at(out.strata[r.stratum_index][r.axiom_index].body, r.path)
            assert isinstance(spot, Not) and spot.sub.pred == r.replacement_pred

    def test_positive_program_unchanged(self):
        prog = parse_program(
            """
            (program
              (objects a b)
              (basic (E 2))
              (derived (path 2))
              (stratum
                (axiom (path ?x ?y) (E ?x ?y))
                (axiom (path ?x ?y) (exists (?z) (and (path ?x ?z) (E ?z ?y))))))
            """
        )
        out, report = eliminate_negative_occurrences(prog)
        assert out.strata == prog.strata
        assert report.iterations == 0
        assert report.families == () and report.replacements == ()

    def test_unaffected_negative_becomes_false(self):
        prog = parse_program(
            """
            (program
              (objects a b)
              (basic (E 2))
              (derived (ghost 1) (P 1))
              (stratum (axiom (P ?x) (and (E ?x ?x) (not (ghost ?x))))))
            """
        )
        out, report = eliminate_negative_occurrences(prog)
        (rep,) = report.replacements
        assert rep.kind == "unaffected-false"
        assert rep.replacement_pred is None
        assert report.families == ()
        body = out.strata[0][0].body
        assert formula_at(body, rep.path) == Bottom()
        # an unaffected predicate is everywhere false, so this is sound
        universe = Universe(("a", "b"))
        from axf import TruthAssignment

        state = TruthAssignment(universe, frozenset({("E", ("a", "a"))}), frozenset({"E"}))
        assert extend(out, universe, state).holds("P", ("a",))
        assert extend(prog, universe, state).holds("P", ("a",))

    def test_iteration_budget_message(self, path_program, monkeypatch):
        import axf.transformer as T

        # replacements that never land starve the worklist of progress
        monkeypatch.setattr(T, "replace_at", lambda formula, path, new: formula)
        with pytest.raises(TransformError) as info:
            eliminate_negative_occurrences(path_program)
        assert str(info.value).startswith("internal error")

    def test_report_json_shape(self, path_program):
        _, report = eliminate_negative_occurrences(path_program)
        blob = report.to_json()
        assert blob["algorithm"] == "iterated-worklist"
        assert blob["iterations"] == 1
        assert blob["metrics_before"]["total_size"] == 30
        assert isinstance(blob["replacements"], list)
        assert blob["replacements"][0]["kind"] == "stage"
        assert isinstance(blob["families"], list)
        fam = blob["families"][0]
        assert fam["origin_stratum"] == 0
        assert fam["stratum"] == 1 and fam["round"] == 1
        assert fam["members"] == ["path"] and fam["axioms"] == 5
        assert "nleq__path__path__r1" in fam["predicates"]


class TestMerge:
    def test_merge_refuses_negative_programs(self, path_program):
        with pytest.raises(TransformError) as info:
            merge_to_single_stratum(path_program)
        assert "negative" in str(info.value)

    def test_merge_after_transform(self, path_program):
        out, _ = eliminate_negative_occurrences(path_program)
        merged = merge_to_single_stratum(out)
        assert len(merged.strata) == 1
        assert check_stratified(merged) == []
        assert sum(len(s) for s in out.strata) == len(merged.strata[0])

    def test_merge_no_strata(self):
        prog = parse_program("(program (objects a) (basic (B 1)) (derived))")
        merged = merge_to_single_stratum(prog)
        assert merged.strata == ()


class TestMetrics:
    def test_path_metrics(self, path_program):
        m = compute_metrics(path_program)
        assert m.signature_size == 7
        assert [s.members for s in m.strata] == [1, 1]
        assert [s.max_arity for s in m.strata] == [2, 0]
        assert [s.total_arity for s in m.strata] == [2, 0]
        assert [s.same_stratum_occurrences for s in m.strata] == [1, 0]
        assert [s.size for s in m.strata] == [16, 7]
        assert m.total_size == 30

    def test_growth_bound_on_path(self, path_program):
        before = compute_metrics(path_program).total_size
        out, report = eliminate_negative_occurrences(path_program)
        after = compute_metrics(out).total_size
        assert report.metrics_before.total_size == before
        assert report.metrics_after.total_size == after
        assert after <= before ** 4


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_random_programs_transform_clean(seed):
    from axf import generate_random_program

    prog = generate_random_program(seed)
    out, report = eliminate_negative_occurrences(prog)
    derived = [p.name for p in out.signature.values() if p.kind == "derived"]
    assert negative_occurrences(out, derived) == []
    assert check_stratified(out) == []
    before = compute_metrics(prog).total_size
    after = compute_metrics(out).total_size
    assert after <= before ** 4


@pytest.mark.parametrize("optimize_aux", [False, True])
def test_families_hold_no_negative_own_member(path_source, optimize_aux):
    """Elimination rewrites from the scan made before a family is placed,
    so a family must hold its own members only positively."""
    from axf import RandomProfile, generate_random_program
    from test_evaluator import TWO_MEMBERS as TWO_MEMBERS_RECURSIVE

    programs = [parse_program(s) for s in (path_source, CHAIN, TWO_MEMBERS, TWO_MEMBERS_RECURSIVE)]
    wide = RandomProfile(objects=3, strata=4, max_members=3, negation_rate=0.5)
    for profile in (RandomProfile(), wide):
        programs.extend(generate_random_program(f"own:{seed}", profile) for seed in range(100))
    families = 0
    for prog in programs:
        for index, stratum in enumerate(prog.strata):
            if not stratum:
                continue
            family = generate_stage_axioms(prog, index, optimize_aux=optimize_aux)
            families += 1
            own = [
                (ax.head_pred, path)
                for ax in family.axioms
                for path, found, pol in iter_atoms(ax.body)
                if pol == NEGATIVE and found.pred in family.members
            ]
            assert own == [], print_program(prog)
    assert families > 300


def test_generated_bodies_come_out_folded(path_source):
    """The generator builds every body with its constants folded and prunes
    no assembled axiom, so ``prune_constants`` finds nothing left to fold."""
    from axf import RandomProfile, generate_random_program

    programs = [parse_program(s) for s in (path_source, TWO_MEMBERS)]
    for profile in (RandomProfile(), RandomProfile(objects=3, strata=3, max_members=2)):
        programs.extend(generate_random_program(f"fold:{seed}", profile) for seed in range(100))
    options = [{}, {"optimize_aux": True}] + [{"mutation": m} for m in MUTATIONS]
    axioms = 0
    for prog in programs:
        for index, stratum in enumerate(prog.strata):
            for option in options if stratum else ():
                for ax in generate_stage_axioms(prog, index, **option).axioms:
                    assert prune_constants(ax.body) == ax.body, (print_program(prog), option)
                    axioms += 1
    assert axioms > 10_000
