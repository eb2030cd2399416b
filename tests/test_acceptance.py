"""Acceptance suite.

One test per shipping criterion, each timed against its budget and printed
as a single summary line (run with ``pytest -v -rA`` to see every line).
The reference programs live in samples/, the golden transform output in
tests/golden/.
"""

import time

import pytest

from axf import (
    Atom,
    Not,
    Universe,
    Var,
    VerificationPlan,
    check_polarity,
    check_stratified,
    compute_metrics,
    eliminate_negative_occurrences,
    generate_random_program,
    lint_polarity,
    merge_to_single_stratum,
    negative_occurrences,
    parse_program,
    power_fit,
    print_program,
    verify_equivalence,
    verify_order_independence,
    verify_theorem1,
    verify_theorem2,
)
from axf.transformer import MUTATIONS

from conftest import GOLDEN_TRANSFORMED

U2 = Universe(("a", "b"))
U3 = Universe(("a", "b", "c"))

RANDOM_SEEDS = range(100)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, message):
        elapsed = time.perf_counter() - self.start
        print(f"{self.name}: PASS - {message} ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s budget"


def test_criterion_1_golden_transform(path_program):
    budget = Budget("criterion 1", 1.0)
    out, report = eliminate_negative_occurrences(path_program)
    assert print_program(out) == GOLDEN_TRANSFORMED.read_text(encoding="utf-8")

    # the inserted stratum holds exactly the five stage axioms for path
    family_stratum = out.strata[1]
    heads = [ax.head_pred for ax in family_stratum]
    assert heads == [
        "lt__path__path__r1",
        "leq__path__path__r1",
        "nlt__path__path__r1",
        "nleq__path__path__r1",
        "tri__path__path__r1",
    ]
    assert all(len(ax.head_vars) == 4 for ax in family_stratum)

    # the acyclic axiom now reads: forall x, not not nleq(x, x, x, x)
    (acyclic_axiom,) = out.strata[2]
    body = acyclic_axiom.body
    quantified = body.sub
    assert body.vars == ("x",)
    assert quantified == Not(
        Not(Atom("nleq__path__path__r1", (Var("x"), Var("x"), Var("x"), Var("x"))))
    )
    budget.done("transform matches the golden file, 5 stage axioms, rewritten acyclic")


def test_criterion_2_diagonal_equivalence_oracle(path_program):
    budget = Budget("criterion 2", 60.0)
    res = verify_theorem2(path_program, 0, U3)
    assert res.passed, res.counterexample
    assert res.states_checked == 512
    budget.done("path(a,b) iff not nleq((a,b),(a,b)) on all 512 edge sets, 9 tuples each")


def test_criterion_3_stage_relation_oracle(path_program):
    budget = Budget("criterion 3", 120.0)
    res = verify_theorem1(path_program, 0, U3)
    assert res.passed, res.counterexample
    assert res.states_checked == 512
    budget.done("all five stage relations match the staged oracle on all 512 edge sets")


def test_criterion_4_end_to_end_equivalence(path_program):
    budget = Budget("criterion 4", 300.0)
    res = verify_equivalence(path_program, U3)
    assert res.passed, res.counterexample
    assert res.states_checked == 512

    random_states = 0
    for seed in RANDOM_SEEDS:
        prog = generate_random_program(seed)
        r = verify_equivalence(prog, U2)
        assert r.passed, (seed, r.counterexample)
        random_states += r.states_checked
    budget.done(
        "original == transformed == merged on 512 path states and "
        f"100 random programs ({random_states} states)"
    )


def test_criterion_5_polarity_lint(path_program):
    budget = Budget("criterion 5", 120.0)
    programs = [path_program] + [generate_random_program(seed) for seed in RANDOM_SEEDS]
    for k, prog in enumerate(programs):
        res = check_polarity(prog)
        assert res.passed, (k, res)
        out, _ = eliminate_negative_occurrences(prog)
        derived = [p.name for p in out.signature.values() if p.kind == "derived"]
        assert negative_occurrences(out, derived) == []
        assert check_stratified(out) == []
        assert lint_polarity(out) == []
        merged = merge_to_single_stratum(out)
        assert negative_occurrences(merged, derived) == []
        assert check_stratified(merged) == []
    budget.done(
        "transformed and merged forms of 101 programs have no negative "
        "derived occurrences and stay stratified"
    )


def test_criterion_6_blowup_accounting(path_program):
    budget = Budget("criterion 6", 120.0)
    programs = [path_program] + [generate_random_program(seed) for seed in RANDOM_SEEDS]
    fit_points = []
    for optimize_aux in (False, True):
        for prog in programs:
            before = compute_metrics(prog)
            out, report = eliminate_negative_occurrences(prog, optimize_aux=optimize_aux)
            after = compute_metrics(out)
            for rec in report.families:
                m = len(rec.family.members)
                r = max(rec.family.arities)
                expected = 5 * m * m + (1 + m if optimize_aux else 0)
                assert len(rec.family.predicates) == expected
                assert all(p.arity <= 2 * r for p in rec.family.predicates)
            assert after.total_size <= before.total_size ** 4
            if not optimize_aux and report.families:
                fit_points.append((float(before.total_size), float(after.total_size)))

    # a controlled sequence of growing single-stratum programs, fit in
    # log space; the growth is polynomial with degree well under four
    controlled = []
    for m in (1, 2, 3, 4):
        decls = " ".join(f"(D{k} 2)" for k in range(m))
        axioms = " ".join(
            f"(axiom (D{k} ?x ?y) (or (E ?x ?y) (exists (?z) (and (D{k} ?x ?z) (E ?z ?y)))))"
            for k in range(m)
        )
        neg = " ".join(f"(not (D{k} ?x ?x))" for k in range(m))
        body = f"(and {neg} (E ?x ?x))"
        text = (
            f"(program (objects a b) (basic (E 2)) (derived {decls} (S 1))"
            f" (stratum {axioms}) (stratum (axiom (S ?x) {body})))"
        )
        prog = parse_program(text)
        out, _ = eliminate_negative_occurrences(prog)
        controlled.append(
            (
                float(compute_metrics(prog).total_size),
                float(compute_metrics(out).total_size),
            )
        )
    slope, _ = power_fit(controlled)
    assert slope <= 4.0, controlled
    dedup = {x: y for x, y in fit_points}
    random_slope = power_fit(sorted(dedup.items()))[0] if len(dedup) > 1 else None
    budget.done(
        "5m^2 (+1+m aux) predicates per family, arity <= 2r, every output "
        f"within the degree-4 envelope; controlled-growth exponent {slope:.2f}"
        + (f", random-family exponent {random_slope:.2f}" if random_slope else "")
    )


def test_criterion_7_order_independence(path_program):
    budget = Budget("criterion 7", 60.0)
    plan = VerificationPlan(universe_sizes=(2,), samples=5, seed=11)
    total = 0
    programs = [path_program] + [generate_random_program(900 + k) for k in range(9)]
    for prog in programs:
        res = verify_order_independence(prog, U2, plan, orders=20)
        assert res.passed, res.counterexample
        total += res.states_checked
    budget.done(f"20 shuffled evaluation orders agree on 10 programs ({total} states)")


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_criterion_8_mutation_sensitivity(path_program, mutation):
    budget = Budget("criterion 8", 60.0)
    res = verify_theorem1(path_program, 0, U2, mutation=mutation)
    assert not res.passed, f"sabotage {mutation} went undetected"
    assert res.failures > 0
    assert res.counterexample is not None
    budget.done(
        f"sabotaged generator {mutation} caught by the stage-relation oracle "
        f"({res.failures}/{res.states_checked} states disagree)"
    )
