"""Semantic verification: oracles, sweeps, mutation sensitivity, sampling."""

import contextlib
import dataclasses
import io
import itertools
import json
from array import array

import pytest
from conftest import PATH_PROGRAM, ROOT

import axf.evaluator
import axf.verifier
from axf import (
    Atom,
    AxiomProgram,
    Axiom,
    Bottom,
    BudgetError,
    Const,
    Engine,
    Predicate,
    RandomProfile,
    StageTable,
    Top,
    Universe,
    VerificationPlan,
    VerifyError,
    basic_cells,
    check_polarity,
    check_stratified,
    eliminate_negative_occurrences,
    enumerate_basic_states,
    generate_random_program,
    parse_program,
    parse_state,
    power_fit,
    run_checks,
    sample_basic_state,
    universe_for,
    verify_aux,
    verify_equivalence,
    verify_order_independence,
    verify_theorem1,
    verify_theorem2,
)
from axf.cli import main
from axf.transformer import MUTATIONS
from axf.verifier import worker_count

U2 = Universe(("a", "b"))

# Measured failure counts for each sabotage over all 16 two-object states.
EXPECTED_MUTATION_FAILURES = {
    "eq1": 14,
    "eq2": 3,
    "eq3": 1,
    "eq4": 10,
    "eq5": 15,
}


class TestPlans:
    def test_plan_validation(self):
        with pytest.raises(VerifyError):
            VerificationPlan(universe_sizes=())
        with pytest.raises(VerifyError):
            VerificationPlan(universe_sizes=(0,))
        with pytest.raises(VerifyError, match="^universe sizes must not repeat$"):
            VerificationPlan(universe_sizes=(2, 3, 2))
        with pytest.raises(VerifyError):
            VerificationPlan(samples=0)
        with pytest.raises(VerifyError):
            VerificationPlan(checks=("theorem9",))
        for checks in (("order", "order"), ("polarity", "aux", "polarity")):
            with pytest.raises(VerifyError, match="^checks must not repeat$"):
                VerificationPlan(checks=checks)
        with pytest.raises(VerifyError):
            VerificationPlan(checks=())

    def test_samples_choose_sampling(self, path_program):
        assert verify_theorem1(path_program, 0, U2, VerificationPlan(samples=5)).states_checked == 5
        assert verify_theorem1(path_program, 0, U2, VerificationPlan()).states_checked == 16

    def test_universe_for_pads_and_prefixes(self, path_program):
        assert universe_for(path_program, 2).objects == ("a", "b")
        assert universe_for(path_program, 5).objects == ("a", "b", "c", "u1", "u2")

    def test_universe_for_keeps_constants(self):
        from axf import parse_program

        prog = parse_program(
            """
            (program
              (objects a b c)
              (basic (E 2))
              (derived (P 1))
              (stratum (axiom (P ?x) (E ?x c))))
            """
        )
        with pytest.raises(VerifyError):
            universe_for(prog, 2)
        assert universe_for(prog, 3).objects == ("a", "b", "c")

    def test_basic_cells_sorted(self, path_program):
        cells = basic_cells(path_program, U2)
        assert cells == tuple(sorted(cells))
        assert len(cells) == 4
        assert all(name == "E" for name, _ in cells)

    def test_enumerate_slices(self, path_program):
        cells = basic_cells(path_program, U2)
        every = list(enumerate_basic_states(cells))
        assert len(every) == 16
        assert every[0] == ()
        chunked = list(enumerate_basic_states(cells, 5, 9))
        assert chunked == every[5:9]

    def test_sampling_is_seeded(self, path_program):
        cells = basic_cells(path_program, U2)
        a = [sample_basic_state(cells, 7, k) for k in range(20)]
        b = [sample_basic_state(cells, 7, k) for k in range(20)]
        assert a == b
        c = [sample_basic_state(cells, 8, k) for k in range(20)]
        assert a != c
        # string seeds work too
        d = [sample_basic_state(cells, "run-1", k) for k in range(5)]
        assert d == [sample_basic_state(cells, "run-1", k) for k in range(5)]


class TestPositiveChecks:
    def test_theorems_hold_on_path(self, path_program):
        t1 = verify_theorem1(path_program, 0, U2)
        assert t1.passed and t1.failures == 0 and t1.states_checked == 16
        assert t1.counterexample is None
        t2 = verify_theorem2(path_program, 0, U2)
        assert t2.passed and t2.states_checked == 16

    def test_equivalence_holds_on_path(self, path_program):
        res = verify_equivalence(path_program, U2)
        assert res.passed and res.states_checked == 16

    def test_aux_variant_equivalent(self, path_program):
        res = verify_aux(path_program, U2)
        assert res.passed

    def test_order_independence(self, path_program):
        res = verify_order_independence(path_program, U2, orders=4)
        assert res.passed

    def test_polarity_check(self, path_program):
        res = check_polarity(path_program)
        assert res.passed

    def test_polarity_check_reports_occurrences(self, path_program, monkeypatch):
        monkeypatch.setattr(
            axf.verifier, "eliminate_negative_occurrences", lambda program: (program, None)
        )
        res = check_polarity(path_program)
        assert res.failures == 1
        assert res.notes == (
            "negative derived occurrence at "
            "{'stratum': 1, 'axiom': 0, 'path': [0, 0], 'polarity': 'negative'}",
        )

    def test_transformed_refuses_other_checks_before_sweeping(self, path_program, monkeypatch):
        transformed, _ = eliminate_negative_occurrences(path_program)
        sweeps = []
        monkeypatch.setattr(axf.verifier, "_sweep", lambda *args: sweeps.append(args))
        with pytest.raises(VerifyError, match="only supports checks polarity,equivalence"):
            run_checks(
                path_program, VerificationPlan(checks=("theorem1",)), transformed=transformed
            )
        assert sweeps == []

    def test_run_checks_names_and_shape(self, path_program):
        plan = VerificationPlan(universe_sizes=(2,), checks=("polarity", "theorem1"))
        result = run_checks(path_program, plan)
        names = [c.name for c in result.checks]
        assert names[0] == "polarity"
        assert "theorem1[n=2,stratum=0]" in names
        assert result.passed
        blob = result.to_json()
        assert isinstance(blob["checks"], list)
        assert {c["name"] for c in blob["checks"]} == set(names)
        json.dumps(blob)


class TestMutationSensitivity:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_theorem1_catches_mutation(self, path_program, mutation):
        res = verify_theorem1(path_program, 0, U2, mutation=mutation)
        assert not res.passed
        assert res.failures == EXPECTED_MUTATION_FAILURES[mutation]
        assert res.counterexample is not None
        assert res.counterexample.check.startswith("theorem1")

    def test_eq3_only_breaks_empty_fixpoint(self, path_program):
        res = verify_theorem1(path_program, 0, U2, mutation="eq3")
        assert res.counterexample.state_atoms == ()


class TestCounterexamples:
    def corrupt(self, path_program):
        out, _ = eliminate_negative_occurrences(path_program)
        strata = list(out.strata)
        last = list(strata[-1])
        ax = last[0]
        assert ax.head_pred == "acyclic"
        last[0] = Axiom(ax.head_pred, ax.head_vars, Top())
        strata[-1] = tuple(last)
        return AxiomProgram(out.signature.values(), out.universe_hint, tuple(strata))

    def test_corrupted_transform_caught(self, path_program):
        bad = self.corrupt(path_program)
        res = verify_equivalence(path_program, U2, transformed=bad)
        assert not res.passed
        assert res.failures > 0
        assert "acyclic" in res.counterexample.detail

    def test_counterexample_is_lexicographically_least(self, path_program):
        bad = self.corrupt(path_program)
        res = verify_equivalence(path_program, U2, transformed=bad)
        cells = basic_cells(path_program, U2)
        failing = []
        for state in enumerate_basic_states(cells):
            one = verify_equivalence(
                path_program, U2, transformed=bad, states=[state]
            )
            if not one.passed:
                failing.append(one.counterexample)
        assert failing
        best = min(failing, key=lambda c: (tuple(sorted(c.state_atoms)), c.detail))
        assert res.counterexample.state_atoms == best.state_atoms
        assert res.counterexample.detail == best.detail

    def test_counterexample_replays(self, path_program):
        bad = self.corrupt(path_program)
        ce = verify_equivalence(path_program, U2, transformed=bad).counterexample
        state = parse_state(ce.state_text(), path_program)
        again = verify_equivalence(
            path_program,
            Universe(ce.universe),
            transformed=bad,
            states=[state.true_atoms],
        )
        assert not again.passed
        assert again.counterexample.detail == ce.detail

    def test_counterexample_json(self, path_program):
        bad = self.corrupt(path_program)
        ce = verify_equivalence(path_program, U2, transformed=bad).counterexample
        blob = ce.to_json()
        assert blob["check"].startswith("equivalence")
        assert blob["universe"] == ["a", "b"]
        json.dumps(blob)


def replace_axiom(axioms, head, body):
    """``axioms`` with the axiom for ``head`` given ``body``."""
    return tuple(
        Axiom(ax.head_pred, ax.head_vars, body) if ax.head_pred == head else ax for ax in axioms
    )


class TestFailureTexts:
    """The counterexample text of each sweep check's failure branch, on
    deliberately broken inputs for ``samples/path.axp`` over two objects."""

    def test_theorem2(self, path_program, monkeypatch):
        real = axf.verifier.generate_stage_axioms

        def broken(program, index, **kw):
            family = real(program, index, **kw)
            axioms = replace_axiom(family.axioms, "nleq__path__path__r1", Bottom())
            return dataclasses.replace(family, axioms=axioms)

        monkeypatch.setattr(axf.verifier, "generate_stage_axioms", broken)
        res = verify_theorem2(path_program, 0, U2)
        assert (res.states_checked, res.failures) == (16, 12)
        assert res.counterexample.state_text() == "(state)"
        assert res.counterexample.detail == (
            "(path a a) is false but (nleq__path__path__r1 a a a a) is false"
        )

    def test_aux(self, path_program, monkeypatch):
        real = axf.verifier.eliminate_negative_occurrences

        def broken(program, **kw):
            out, report = real(program, **kw)
            if kw.get("optimize_aux"):
                strata = [replace_axiom(stratum, "acyclic", Top()) for stratum in out.strata]
                out = AxiomProgram(out.signature.values(), out.universe_hint, strata)
            return out, report

        monkeypatch.setattr(axf.verifier, "eliminate_negative_occurrences", broken)
        res = verify_aux(path_program, U2)
        assert (res.states_checked, res.failures) == (16, 13)
        assert res.counterexample.state_text() == "(state (E a a))"
        assert res.counterexample.detail == (
            "(acyclic) is false without the shared conjuncts but true with them"
        )

    def test_order(self, path_program, monkeypatch):
        real = Engine.run_block

        def broken(self, basic, width, *, rng=None, staged=True):
            """Clears each state's greatest derived atom in a chaotic block."""
            block = real(self, basic, width, rng=rng, staged=staged)
            for s in range(width if rng is not None else 0):
                held = {key for key, mask in block.masks.items() if mask >> s & 1}
                derived = held - {key for key, mask in basic.items() if mask >> s & 1}
                if derived:
                    block.masks[max(derived)] &= ~(1 << s)
            return block

        monkeypatch.setattr(Engine, "run_block", broken)
        res = verify_order_independence(path_program, U2)
        assert (res.states_checked, res.failures) == (16, 16)
        assert res.counterexample.state_text() == "(state)"
        assert res.counterexample.detail == "evaluation order 0 misses (acyclic)"


class TestBudgets:
    def test_exhaustive_budget(self):
        from axf import parse_program

        prog = parse_program(
            """
            (program
              (objects a b c)
              (basic (E 3))
              (derived (P 1))
              (stratum (axiom (P ?x) (E ?x ?x ?x))))
            """
        )
        u3 = Universe(("a", "b", "c"))
        assert len(basic_cells(prog, u3)) == 27
        with pytest.raises(BudgetError) as info:
            verify_theorem1(prog, 0, u3)
        assert "sampled" in str(info.value)

    def test_refused_before_building_cells(self, monkeypatch):
        from axf import parse_program

        # 2^40 cells: building them before the budget check would not finish
        monkeypatch.setattr(axf.verifier, "basic_cells", lambda *args: pytest.fail("cells built"))
        prog = parse_program("(program (objects a b) (basic (E 40)) (derived))")
        with pytest.raises(BudgetError) as info:
            verify_order_independence(prog, U2)
        assert str(info.value) == (
            "2^1099511627776 basic states exceed the exhaustive budget of 2^24; "
            "use sampled mode"
        )

    def test_stray_constant_refused_before_building_cells(self, monkeypatch):
        """A single check refuses a caller's universe that lacks a constant
        of a program it reads, as ``run_checks`` does, before any cell."""
        from axf import parse_program

        original = parse_program("(program (objects a b) (basic (E 1)) (derived (P 0))"
                                 " (stratum (axiom (P) (E a))))")
        transformed = parse_program("(program (objects c) (basic (E 1)) (derived (P 0))"
                                    " (stratum (axiom (P) (E c))))")
        for name in ("basic_cells", "_orbits"):
            monkeypatch.setattr(axf.verifier, name, lambda *_: pytest.fail("a sweep was built"))
        with pytest.raises(VerifyError) as info:
            verify_equivalence(original, Universe(("a", "b", "u1")), transformed=transformed)
        assert str(info.value) == "universe of size 3 would drop constants: c"

    def test_sampled_budget_refused_before_building_cells(self, monkeypatch):
        from axf import parse_program

        # 2^17 cells: a sample draws one random number per cell
        monkeypatch.setattr(axf.verifier, "basic_cells", lambda *args: pytest.fail("cells built"))
        prog = parse_program("(program (objects a b) (basic (E 17)) (derived))")
        plan = VerificationPlan(samples=1)
        with pytest.raises(BudgetError) as info:
            verify_order_independence(prog, U2, plan)
        assert str(info.value) == (
            "131072 basic cells exceed the sampled budget of 65536 cells; "
            "use a smaller universe"
        )

    def test_sample_count_budget(self, path_program):
        from axf.verifier import _planned_states

        assert _planned_states(path_program, 2, VerificationPlan(samples=1 << 24)) == 1 << 24
        with pytest.raises(BudgetError) as info:
            _planned_states(path_program, 2, VerificationPlan(samples=(1 << 24) + 1))
        assert str(info.value) == (
            "16777217 sampled states exceed the state budget of 2^24; use fewer samples"
        )

    def test_sampled_mode_allowed_over_budget(self):
        from axf import parse_program

        prog = parse_program(
            """
            (program
              (objects a b c)
              (basic (E 3))
              (derived (P 1))
              (stratum (axiom (P ?x) (E ?x ?x ?x))))
            """
        )
        u3 = Universe(("a", "b", "c"))
        plan = VerificationPlan(universe_sizes=(3,), samples=10, seed=5)
        res = verify_theorem1(prog, 0, u3, plan)
        assert res.passed and res.states_checked == 10

    def test_sampled_deterministic(self, path_program):
        plan = VerificationPlan(universe_sizes=(2,), samples=25, seed="s")
        a = verify_theorem1(path_program, 0, U2, plan)
        b = verify_theorem1(path_program, 0, U2, plan)
        assert (a.states_checked, a.failures) == (b.states_checked, b.failures)

    @pytest.fixture()
    def small_universes(self, monkeypatch):
        """Fail the test if the verifier builds a universe of more than
        1,000 objects."""
        real = axf.verifier.Universe

        def guarded(objects):
            if len(objects) > 1000:
                pytest.fail(f"built a universe of {len(objects)} objects")
            return real(objects)

        monkeypatch.setattr(axf.verifier, "Universe", guarded)

    def test_large_sizes_refused_before_padding(self, path_program, small_universes):
        only_polarity = VerificationPlan(universe_sizes=(100000,), checks=("polarity",))
        result = run_checks(path_program, only_polarity)
        assert [(c.name, c.passed) for c in result.checks] == [("polarity", True)]
        with pytest.raises(BudgetError) as info:
            run_checks(path_program, VerificationPlan(universe_sizes=(1000000,), checks=("order",)))
        assert str(info.value) == (
            "2^1000000000000 basic states exceed the exhaustive budget of 2^24; "
            "use sampled mode"
        )
        sampled = VerificationPlan(universe_sizes=(100000,), samples=1, checks=("order",))
        with pytest.raises(BudgetError) as info:
            run_checks(path_program, sampled)
        assert str(info.value) == (
            "10000000000 basic cells exceed the sampled budget of 65536 cells; "
            "use a smaller universe"
        )

    def test_padding_skips_declared_names(self):
        from axf import parse_program

        prog = parse_program("(program (objects u2 a) (basic (E 1)) (derived))")
        assert universe_for(prog, 5).objects == ("u2", "a", "u1", "u3", "u4")


class TestParallel:
    def test_parallel_matches_serial(self, pool_programs, pool_starts, monkeypatch):
        """All 8,192 states given, in two blocks, on one worker and on two;
        the exhaustive sweep, one block of representatives, agrees."""
        program, bad = pool_programs
        u3 = universe_for(program, 3)
        states = list(enumerate_basic_states(basic_cells(program, u3)))
        monkeypatch.setenv("AXF_THREADS", "1")
        serial = verify_equivalence(program, u3, transformed=bad, states=states)
        assert pool_starts == []
        monkeypatch.setenv("AXF_THREADS", "2")
        parallel = verify_equivalence(program, u3, transformed=bad, states=states)
        assert pool_starts == [2]
        reduced = verify_equivalence(program, u3, transformed=bad)
        assert pool_starts == [2]
        assert serial.states_checked == parallel.states_checked == 8192
        assert serial.failures == parallel.failures == 6528
        assert serial.counterexample == parallel.counterexample
        assert reduced.to_json() == serial.to_json()

    def test_one_block_runs_in_process(self, pool_starts, monkeypatch):
        """A sweep of at most ``_MAX_BLOCK`` states starts no pool, however
        many workers are allowed, and reports what one worker reports."""
        golden = json.loads((ROOT / "tests" / "golden" / "verify_path.json").read_text("utf-8"))
        argv = ["verify", str(PATH_PROGRAM), "--universe", "2", "3", "--json"]
        outputs = []
        for threads in ("2", "1"):
            monkeypatch.setenv("AXF_THREADS", threads)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            outputs.append(out.getvalue())
            assert pool_starts == []
        assert outputs == [golden["verify --universe 2 3 --json"]["stdout"]] * 2

    @pytest.mark.parametrize("threads, size, plan, given, widths, checked", [
        pytest.param("3", 2, None, None, [72], 128, id="one-block"),
        pytest.param("3", 3, None, None, [1504], 8192, id="exhaustive"),
        pytest.param("1", 3, VerificationPlan(samples=8192), None, [4096, 4096], 8192,
                     id="one-worker"),
        pytest.param("3", 2, VerificationPlan(samples=4097), None, [2048, 2049], 4097,
                     id="sampled"),
        pytest.param("3", 3, None, 4097, [2048, 2049], 4097, id="given"),
    ])
    def test_blocks_and_workers(
        self, pool_programs, monkeypatch, threads, size, plan, given, widths, checked
    ):
        """A sweep of T states runs in ceil(T / _MAX_BLOCK) blocks, none
        larger than ``_MAX_BLOCK``, on min(AXF_THREADS, blocks) workers; a
        job carries only its own block's states.  An exhaustive sweep's T is
        its number of orbits (72 of 128 states at n=2, 1,504 of 8,192 at
        n=3), and its jobs carry state indices and orbit sizes."""
        program, bad = pool_programs
        universe = universe_for(program, size)
        states = None
        if given is not None:
            states = list(enumerate_basic_states(basic_cells(program, universe), 0, given))
        calls = []

        def spying(self, jobs, workers):
            specs = [spec for _, _, _, spec, _ in jobs]
            calls.append(([len(list(axf.verifier._spec_states(s))) for s in specs], workers))
            if given is not None:
                cuts = [sum(widths[:k]) for k in range(len(widths) + 1)]
                assert specs == [("explicit", tuple(states[a:b])) for a, b in zip(cuts, cuts[1:])]
            weights = [w for *_, w in jobs]
            if plan is None and given is None:
                assert all(isinstance(s[-1], array) for s in specs)
                assert sum(sum(w) for w in weights) == checked
            else:
                assert weights == [None] * len(jobs)
            return [axf.verifier._run_chunk(job) for job in jobs]

        monkeypatch.setattr(axf.verifier._Pool, "map_chunks", spying)
        monkeypatch.setenv("AXF_THREADS", threads)
        result = verify_equivalence(program, universe, plan, transformed=bad, states=states)
        assert calls == [(widths, min(int(threads), len(widths)))]
        assert result.states_checked == checked and result.failures > 0

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("AXF_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("AXF_THREADS", "abc")
        with pytest.raises(VerifyError):
            worker_count()
        monkeypatch.setenv("AXF_THREADS", "0")
        with pytest.raises(VerifyError):
            worker_count()
        # a pool forks every worker at its first task, so a huge count is refused
        monkeypatch.setenv("AXF_THREADS", "256")
        assert worker_count() == 256
        for raw in ("257", "100000"):
            monkeypatch.setenv("AXF_THREADS", raw)
            with pytest.raises(VerifyError) as info:
                worker_count()
            assert str(info.value) == "AXF_THREADS must be between 1 and 256"


def count_calls(monkeypatch, name: str) -> list:
    """The argument tuples of each call to ``axf.verifier.<name>``."""
    calls = []
    real = getattr(axf.verifier, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(axf.verifier, name, counting)
    return calls


SAMPLED_2_3 = VerificationPlan(universe_sizes=(2, 3), samples=64)


class TestOnePass:
    def test_builds_each_input_once(self, path_program, monkeypatch):
        transforms = count_calls(monkeypatch, "eliminate_negative_occurrences")
        families = count_calls(monkeypatch, "generate_stage_axioms")
        run_checks(path_program, VerificationPlan(universe_sizes=(1, 2)))
        # the plain and the optimize_aux transform; one family per stratum
        assert len(transforms) == 2
        assert len(families) == 2

    def test_builds_the_pass_once_per_run(self, path_program, monkeypatch):
        plans = count_calls(monkeypatch, "_plan")
        result = run_checks(path_program, VerificationPlan(universe_sizes=(1, 2, 3), samples=4))
        assert len(plans) == 1
        assert [c.name for c in result.checks if c.name.startswith("aux")] == [
            "aux[n=1]", "aux[n=2]", "aux[n=3]"
        ]

    def test_single_checks_name_the_universe(self, path_program):
        assert verify_aux(path_program, U2).name == "aux[n=2]"
        assert verify_theorem1(path_program, 0, U2).name == "theorem1[n=2,stratum=0]"

    def test_each_run_once_per_block(self, path_program, monkeypatch):
        """A serial n=3 pass compiles each program once and runs each role
        once on its block of the 104 orbit representatives of the 512
        states, and the original once in chaotic order per order seed; no
        state runs on its own, and no state's stage table is built or read.
        Every run of the block reads one dict of basic masks, built once,
        and no run changes it."""
        monkeypatch.setenv("AXF_THREADS", "1")
        built, blocks, given = [], [], []
        real_init, real = Engine.__init__, Engine.run_block

        def building(self, program, universe):
            built.append(program)
            real_init(self, program, universe)

        def counting(self, basic, width, *, rng=None, staged=True):
            blocks.append((width, rng is None))
            given.append((basic, dict(basic)))
            return real(self, basic, width, rng=rng, staged=staged)

        def refuse(*args, **kwargs):
            pytest.fail("the sweep went per state")

        monkeypatch.setattr(Engine, "__init__", building)
        monkeypatch.setattr(Engine, "run_block", counting)
        monkeypatch.setattr(Engine, "run", refuse)
        monkeypatch.setattr(Engine, "run_with_stages", refuse)
        monkeypatch.setattr(StageTable, "__init__", refuse)
        monkeypatch.setattr(axf.evaluator, "stage_relations", refuse)
        assert run_checks(path_program, VerificationPlan(universe_sizes=(3,))).passed
        # original, two stage families, transformed, merged, optimized
        assert len(built) == len(set(map(id, built))) == 6
        assert sorted(blocks) == [(104, False)] * 8 + [(104, True)] * 6
        (basic, before), *_ = given
        assert all(masks is basic for masks, _ in given)
        assert all(seen == before for _, seen in given)
        assert basic == before and len(basic) == 9 and max(basic.values()).bit_length() == 104

    def test_only_the_original_runs_staged(self, path_program, monkeypatch):
        """A pass runs the original staged, the order check's runs in
        chaotic order and every other role in place; theorem1's oracle
        reads the additions of a staged run of the original."""
        monkeypatch.setenv("AXF_THREADS", "1")
        runs, read = [], []  # (program, order, block) of each run; additions the oracle read
        real, real_oracle = Engine.run_block, axf.verifier.stage_relation_masks

        def spying(self, basic, width, *, rng=None, staged=True):
            block = real(self, basic, width, rng=rng, staged=staged)
            order = "chaotic" if rng is not None else "staged" if staged else "in place"
            runs.append((self.program, order, block))
            return block

        def oracle(universe, added, every, preds):
            read.append(added)
            return real_oracle(universe, added, every, preds)

        monkeypatch.setattr(Engine, "run_block", spying)
        monkeypatch.setattr(axf.verifier, "stage_relation_masks", oracle)
        assert run_checks(path_program, VerificationPlan(universe_sizes=(2, 3))).passed
        orders = [order for _, order, _ in runs]
        # per size: the original, then two stage families, the transformed,
        # merged and optimized programs, then eight chaotic runs
        assert orders == (["staged"] + ["in place"] * 5 + ["chaotic"] * 8) * 2
        assert all(program is path_program for program, order, _ in runs if order != "in place")
        assert not any(program is path_program for program, order, _ in runs if order == "in place")
        staged = [block for _, order, block in runs if order == "staged"]
        assert len(read) == 4  # two strata at each size
        assert all(any(added is s for block in staged for s in block.added) for added in read)

    def test_blocks_split_the_states(self, pool_programs, monkeypatch):
        """Blocks smaller than the sweep give the same results, serial and
        parallel, for planned and for given states."""
        program, bad = pool_programs
        u2 = universe_for(program, 2)
        given = list(enumerate_basic_states(basic_cells(program, u2)))[::3]
        whole = [
            run_checks(program, SAMPLED_2_3).to_json(),
            verify_equivalence(program, u2, transformed=bad, states=given).to_json(),
        ]
        monkeypatch.setattr(axf.verifier, "_MAX_BLOCK", 5)
        widths = []  # of the blocks run in this process
        real = Engine.run_block

        def counting(self, basic, width, *, rng=None, staged=True):
            widths.append(width)
            return real(self, basic, width, rng=rng, staged=staged)

        monkeypatch.setattr(Engine, "run_block", counting)
        for threads in ("1", "2"):
            monkeypatch.setenv("AXF_THREADS", threads)
            assert [
                run_checks(program, SAMPLED_2_3).to_json(),
                verify_equivalence(program, u2, transformed=bad, states=given).to_json(),
            ] == whole
        assert max(widths) == 5
        assert whole[1]["states_checked"] == 43 and whole[1]["failures"] > 0

    def test_given_states_in_any_form(self, pool_programs):
        """A state a caller gives may list its atoms in any order and repeat
        one; it checks as the set of its atoms, counterexample included."""
        program, bad = pool_programs
        u2 = universe_for(program, 2)
        states = [s for s in enumerate_basic_states(basic_cells(program, u2)) if len(s) > 2]
        as_sets = verify_equivalence(program, u2, transformed=bad, states=map(frozenset, states))
        as_lists = verify_equivalence(
            program, u2, transformed=bad, states=[list(s[::-1]) + [s[0]] for s in states]
        )
        assert as_lists.to_json() == as_sets.to_json()
        assert as_sets.failures > 0 and len(as_sets.counterexample.state_atoms) > 2

    @pytest.mark.parametrize("stray, text", [
        pytest.param(("path", ("a", "a")), "(path a a)", id="derived"),
        pytest.param(("E", ("a", "z")), "(E a z)", id="outside-universe"),
        pytest.param(("E", ("a",)), "(E a)", id="wrong-arity"),
    ])
    def test_given_states_hold_only_basic_cells(self, path_program, monkeypatch, stray, text):
        """A given state's atom that is not a basic cell of the program over
        the universe is refused, the least such atom named, before any
        engine is built."""
        monkeypatch.setattr(Engine, "__init__", lambda *_: pytest.fail("a block was built"))
        states = [[("E", ("a", "b"))], [("E", ("b", "a")), stray, ("path", ("b", "b"))]]
        with pytest.raises(VerifyError) as info:
            verify_equivalence(path_program, U2, states=states)
        assert str(info.value) == f"given state atom {text} is not a basic cell over the universe"

    @pytest.mark.parametrize("basic", ["(E 1)", "(F 1)"])
    def test_transform_without_the_basic_cells(self, path_program, basic):
        """A transformed program that declares ``E`` at another arity, or
        not at all, reads none of the original's ``E`` atoms: its ``E``
        atoms stay false and no other atom is set in their place."""
        p = basic[1]
        transformed = parse_program(f"""
            (program (objects a b) (basic {basic}) (derived (path 2) (acyclic 0))
              (stratum (axiom (path ?x ?y) (and ({p} ?x) ({p} ?y))))
              (stratum (axiom (acyclic) (forall (?x) (not ({p} ?x))))))""")
        result = verify_equivalence(path_program, U2, transformed=transformed)
        assert (result.states_checked, result.failures) == (16, 15)
        assert result.counterexample.state_text() == "(state (E a a))"
        assert result.counterexample.detail == (
            "(acyclic) is false in the original but true in the transformed program"
        )

    def test_no_states_no_checks(self, pool_programs):
        program, bad = pool_programs
        u2 = universe_for(program, 2)
        result = verify_equivalence(program, u2, transformed=bad, states=[])
        assert (result.states_checked, result.failures, result.counterexample) == (0, 0, None)

    def test_one_pool_per_run(self, pool_programs, pool_starts, monkeypatch):
        monkeypatch.setenv("AXF_THREADS", "2")
        result = run_checks(pool_programs[0], dataclasses.replace(SAMPLED_2_3, samples=8192))
        assert all(c.states_checked == 8192 for c in result.checks[1:])
        assert pool_starts == [2]

    def test_more_workers_replace_the_pool(self, pool_programs, pool_starts, monkeypatch):
        """A later size given more workers than the pool has replaces it."""
        monkeypatch.setattr(axf.verifier, "_MAX_BLOCK", 64)
        monkeypatch.setenv("AXF_THREADS", "3")
        plan = VerificationPlan(universe_sizes=(2, 3), checks=("theorem2",))
        result = run_checks(pool_programs[0], plan)
        assert [c.states_checked for c in result.checks] == [128, 128, 8192, 8192]
        assert pool_starts == [2, 3]

    def test_equivalence_skips_merge_after_failed_lint(self, path_program):
        """A transform that fails the polarity lint cannot be merged; both
        forms then compare the original with it alone."""
        plan = VerificationPlan(universe_sizes=(2,), checks=("equivalence",))
        (passed,) = run_checks(path_program, plan, transformed=path_program).checks
        single = verify_equivalence(path_program, U2, transformed=path_program)
        assert single.to_json() == passed.to_json()

    @pytest.mark.parametrize("corrupt", [False, True], ids=["all-checks", "corrupt-transform"])
    def test_pass_equals_single_checks(self, pool_programs, monkeypatch, corrupt):
        """The same results at one and two workers, and the same as the
        ``verify_*`` entry points, in order, under the same names."""
        program, bad = pool_programs
        if corrupt:
            plan = VerificationPlan(
                universe_sizes=(2, 3), samples=64,
                checks=("polarity", "equivalence"),
            )
            transformed = bad
        else:
            plan, transformed = SAMPLED_2_3, None
        blobs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("AXF_THREADS", threads)
            blobs.append(run_checks(program, plan, transformed=transformed).to_json())
        assert blobs[0] == blobs[1]
        singles = []
        for size in plan.universe_sizes:
            u = universe_for(program, size)
            for check in plan.checks:
                if check == "theorem1":
                    singles += [verify_theorem1(program, i, u, plan) for i in (0, 1)]
                elif check == "theorem2":
                    singles += [verify_theorem2(program, i, u, plan) for i in (0, 1)]
                elif check == "equivalence":
                    singles.append(verify_equivalence(program, u, plan, transformed=transformed))
                elif check == "aux":
                    singles.append(verify_aux(program, u, plan))
                elif check == "order":
                    singles.append(verify_order_independence(program, u, plan))
        assert blobs[0]["checks"][0]["name"] == "polarity"
        assert blobs[0]["checks"][1:] == [c.to_json() for c in singles]
        assert any(c.failures for c in singles) == corrupt


def unreduced(monkeypatch) -> list:
    """Make every exhaustive sweep run all its states, as under a group that
    moves no object; the returned list records each sweep's orbit sizes,
    or None where the real group moves no cell."""
    sizes, real = [], axf.verifier._orbits

    def identity(cells, moved):
        sizes.append(real(cells, moved)[1])
        return real(cells, ())

    monkeypatch.setattr(axf.verifier, "_orbits", identity)
    return sizes


def corrupted(program, body):
    """The transform of ``program`` with its last axiom's body replaced."""
    out, _ = eliminate_negative_occurrences(program)
    *strata, last = out.strata
    ax = last[-1]
    last = last[:-1] + (Axiom(ax.head_pred, ax.head_vars, body),)
    return AxiomProgram(out.signature.values(), out.universe_hint, strata + [last])


class TestOrbits:
    def test_path_orbits(self, path_program):
        """One representative per renaming class of ``path``'s states, the
        least by its atoms, weighted by its class's size."""
        for n, want in ((1, 2), (2, 10), (3, 104), (4, 3044)):
            universe = universe_for(path_program, n)
            cells = basic_cells(path_program, universe)
            firsts, sizes = axf.verifier._orbits(cells, universe.objects)
            assert len(firsts) == want
            assert sizes is None if n == 1 else sum(sizes) == 2 ** n ** 2

    def test_representatives_are_least(self, path_program):
        """Brute force at n=3: each representative is the least renaming of
        itself by its atoms, its weight counts its distinct renamings, and
        the renamings of all of them are every state once."""
        universe = universe_for(path_program, 3)
        cells = basic_cells(path_program, universe)
        states = list(enumerate_basic_states(cells))
        firsts, sizes = axf.verifier._orbits(cells, universe.objects)
        covered = []
        for s, size in zip(firsts, sizes):
            renamings = {
                tuple(sorted((p, tuple(dict(zip("abc", perm))[o] for o in args))
                             for p, args in states[s]))
                for perm in itertools.permutations("abc")
            }
            assert min(renamings) == states[s] and len(renamings) == size
            covered += renamings
        assert sorted(covered) == sorted(states)

    def test_path_reduced_equals_unreduced(self, path_program, monkeypatch):
        plan = VerificationPlan(universe_sizes=(2, 3))
        reduced = run_checks(path_program, plan).to_json()
        sizes = unreduced(monkeypatch)
        assert run_checks(path_program, plan).to_json() == reduced
        assert [sum(s) for s in sizes] == [16, 512]

    @pytest.mark.parametrize("stratum, failing", [(0, 10), (1, 4)])
    def test_sabotages_reduced_equal_unreduced(self, path_program, monkeypatch, stratum, failing):
        def sweeps():
            return [
                verify_theorem1(path_program, stratum, universe_for(path_program, n), mutation=m)
                for n in (2, 3) for m in MUTATIONS
            ]

        reduced = sweeps()
        unreduced(monkeypatch)
        assert [r.to_json() for r in sweeps()] == [r.to_json() for r in reduced]
        assert sum(not r.passed and r.counterexample is not None for r in reduced) == failing

    def test_random_reduced_equal_unreduced(self, monkeypatch):
        """Random programs with constants against corrupted transforms: the
        constants of either program stay fixed, failures count whole orbits
        and the counterexample is the least failing state."""
        profile = RandomProfile(objects=3, constant_rate=0.3)
        cases = []
        for seed in range(60):
            program = generate_random_program(f"orbits:{seed}", profile)
            basics = [p for p in program.basic_predicates if p.arity]
            bodies = [Top()] + [Atom(p.name, (Const("a"),) * p.arity) for p in basics[:1]]
            for body in bodies:
                for n in (2, 3):
                    cells = sum(n ** p.arity for p in program.basic_predicates)
                    if cells <= 10:
                        cases.append((program, corrupted(program, body), n))
        plan = VerificationPlan(checks=("equivalence",))

        def sweeps():
            results = []
            for program, bad, n in cases:
                try:
                    results.append(run_checks(
                        program, dataclasses.replace(plan, universe_sizes=(n,)), transformed=bad
                    ).to_json())
                except VerifyError as error:
                    results.append(str(error))
            return results

        reduced = sweeps()
        sizes = unreduced(monkeypatch)
        assert sweeps() == reduced
        weighted = [
            r for r, s in zip([r for r in reduced if isinstance(r, dict)], sizes)
            if s is not None and r["checks"][0]["failures"]
        ]
        assert len(weighted) >= 20
        assert any(s is None for s in sizes) and any(isinstance(r, str) for r in reduced)


class TestRandomPrograms:
    def test_many_seeds_validate(self):
        for seed in range(300):
            prog = generate_random_program(seed)
            assert check_stratified(prog) == []

    def test_profile_widens(self):
        profile = RandomProfile(objects=3, basic_predicates=3, strata=3, max_members=2)
        saw_two_members = False
        for seed in range(40):
            prog = generate_random_program(seed, profile)
            assert check_stratified(prog) == []
            assert len(prog.strata) == 3
            assert len(prog.universe_hint) == 3
            if any(len({ax.head_pred for ax in s}) == 2 for s in prog.strata):
                saw_two_members = True
        assert saw_two_members

    def test_profile_validation(self):
        with pytest.raises(VerifyError):
            RandomProfile(objects=0)
        with pytest.raises(VerifyError):
            RandomProfile(negation_rate=1.5)
        with pytest.raises(VerifyError):
            RandomProfile(max_depth=0)

    def test_unsatisfiable_profile(self):
        with pytest.raises(VerifyError) as info:
            RandomProfile(basic_predicates=0, strata=1, negation_rate=0.5)
        assert "negation" in str(info.value)
        # dropping the negations makes the same shape legal
        prog = generate_random_program(
            0, RandomProfile(basic_predicates=0, strata=1, negation_rate=0.0)
        )
        assert check_stratified(prog) == []

    def test_string_seeds(self):
        a = generate_random_program("alpha")
        b = generate_random_program("alpha")
        assert a.strata == b.strata
        c = generate_random_program("beta")
        assert (a.strata, a.signature) != (c.strata, c.signature)


class TestPowerFit:
    def test_exact_power_law(self):
        import math

        pairs = [(x, 3.0 * x ** 4) for x in (10.0, 20.0, 40.0, 80.0)]
        slope, intercept = power_fit(pairs)
        assert slope == pytest.approx(4.0)
        # the intercept comes back in log space
        assert intercept == pytest.approx(math.log(3.0))

    def test_degenerate_inputs(self):
        with pytest.raises(VerifyError):
            power_fit([(10.0, 100.0)])
        with pytest.raises(VerifyError):
            power_fit([(10.0, 100.0), (10.0, 200.0)])
        with pytest.raises(VerifyError):
            power_fit([(0.0, 1.0), (2.0, 4.0)])
