"""Command line behavior, exercised in process through cli.main."""

import builtins
import json
import os
import re
import subprocess
import sys
import time

import pytest
from conftest import ROOT

import axf
import axf.cli
import axf.verifier

from axf import TransformError, print_program
from axf.parser import MAX_NESTING
from axf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_canonical_output(self, capsys, path_program):
        from axf import print_program

        code, out, err = run(capsys, "parse", "samples/path.axp")
        assert code == 0 and err == ""
        assert out == print_program(path_program)
        assert out.endswith("\n")

    def test_bullet_b_reported_once(self, capsys, tmp_path):
        bad = tmp_path / "b.axp"
        bad.write_text(
            "(program (objects a) (basic (B 0)) (derived (P 0) (Q 0))"
            " (stratum (axiom (Q) (P)))"
            " (stratum (axiom (P) (B)) (axiom (P) (not (B)))))"
        )
        code, out, err = run(capsys, "parse", str(bad))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"{bad}:1:78: not-stratified: predicate P is affected by stratum 2 but occurs in stratum 1",
            f"{bad}:1:78: not-stratified: P occurs positively in stratum 1 but is affected only in stratum 2",
        ]

    def test_not_stratified_spans(self, capsys, tmp_path):
        """A head-level (a) violation points at its axiom; a negative
        occurrence under ``imply``, also inside a quantifier, at its atom."""
        bad = tmp_path / "F"
        bad.write_text(
            "(program (objects a) (basic (B 1)) (derived (P 1) (Q 1))\n"
            "  (stratum\n"
            "    (axiom (P ?x) (B ?x)))\n"
            "  (stratum\n"
            "    (axiom (Q ?x) (imply (Q ?x) (exists (?y) (B ?y))))\n"
            "    (axiom (P ?x) (forall (?y) (imply (Q ?y) (B ?x))))))\n"
        )
        code, out, err = run(capsys, "parse", str(bad))
        assert code == 2 and out == ""
        negative = "Q occurs negatively in stratum 2 but is affected in stratum 2, not strictly earlier"
        assert err.splitlines() == [
            f"{bad}:6:5: not-stratified: predicate P is affected by axioms in strata 1, 2",
            f"{bad}:5:26: not-stratified: {negative}",
            f"{bad}:6:39: not-stratified: {negative}",
        ]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "parse", "samples/path.axp", "--json")
        blob = json.loads(out)
        assert blob["objects"] == ["a", "b", "c"]

    def test_bad_program_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.axp"
        bad.write_text("(program (objects a a) (basic (B 1)) (derived))")
        code, out, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert "declared twice" in err
        assert str(bad) in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "no/such/file.axp")
        assert code == 2
        assert err != ""


class TestEval:
    def test_derived_atoms_sorted(self, capsys):
        code, out, _ = run(capsys, "eval", "samples/path.axp", "samples/path_state.st")
        assert code == 0
        assert out.splitlines() == [
            "(acyclic)",
            "(path a b)",
            "(path a c)",
            "(path b c)",
        ]

    def test_stages(self, capsys):
        code, out, _ = run(
            capsys, "eval", "samples/path.axp", "samples/path_state.st", "--stages"
        )
        assert code == 0
        assert out.splitlines() == [
            "stratum 0",
            "  (path a b): 1",
            "  (path a c): 2",
            "  (path b c): 1",
            "  f: 2",
            "stratum 1",
            "  (acyclic): 1",
            "  f: 1",
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "samples/path.axp",
            "samples/path_state.st",
            "--stages",
            "--json",
        )
        blob = json.loads(out)
        assert "(path a c)" in blob["derived"]
        assert blob["stages"][0]["fixpoint"] == 2
        assert blob["stages"][0]["atoms"]["(path a c)"] == 2

    @pytest.mark.parametrize("stages", [False, True])
    def test_stages_only_when_asked(self, capsys, monkeypatch, stages):
        """Without ``--stages`` eval calls ``extend``, which runs in place,
        and with it ``extend_in_stages``; the JSON is pinned byte for byte
        (the text by the tests above)."""
        called = []
        for name in ("extend", "extend_in_stages"):
            real = getattr(axf.cli, name)
            monkeypatch.setattr(
                axf.cli, name, lambda *a, name=name, real=real: called.append(name) or real(*a)
            )
        argv = ["eval", "samples/path.axp", "samples/path_state.st", "--json"]
        code, out, err = run(capsys, *argv + ["--stages"] * stages)
        assert (code, err) == (0, "")
        assert called == ["extend_in_stages" if stages else "extend"]
        derived = '  "derived": [\n' + ",\n".join(
            f'    "{atom}"' for atom in ("(acyclic)", "(path a b)", "(path a c)", "(path b c)")
        ) + "\n  ]"
        if not stages:
            assert out == "{\n" + derived + "\n}\n"
            return
        assert out == "{\n" + derived + ",\n" + "".join(
            [
                '  "stages": [\n    {\n      "atoms": {\n        "(path a b)": 1,\n',
                '        "(path a c)": 2,\n        "(path b c)": 1\n      },\n',
                '      "fixpoint": 2,\n      "stratum": 0\n    },\n    {\n',
                '      "atoms": {\n        "(acyclic)": 1\n      },\n',
                '      "fixpoint": 1,\n      "stratum": 1\n    }\n  ]\n}\n',
            ]
        )

    def test_state_errors_exit_2(self, capsys, tmp_path):
        st = tmp_path / "s.st"
        st.write_text("(state (path a b))")
        code, _, err = run(capsys, "eval", "samples/path.axp", str(st))
        assert code == 2 and "derived" in err


class TestTransform:
    def test_matches_golden(self, capsys):
        golden = open("tests/golden/path_transformed.axp").read()
        code, out, _ = run(capsys, "transform", "samples/path.axp")
        assert code == 0
        assert out == golden

    def test_runs_are_identical(self, capsys):
        _, first, _ = run(capsys, "transform", "samples/path.axp")
        _, second, _ = run(capsys, "transform", "samples/path.axp")
        assert first == second

    def test_output_ignores_the_hash_seed(self, tmp_path):
        """Transform and verify runs, one failing with a counterexample,
        print the same bytes and exit alike under two hash seeds."""
        wrong = tmp_path / "wrong.axp"
        wrong.write_text(
            (ROOT / "tests/golden/path_transformed.axp")
            .read_text()
            .replace("(forall (?x) (not (not (nleq__path__path__r1 ?x ?x ?x ?x))))", "false")
        )
        commands = [
            ["transform", "samples/path.axp", "--json"],
            ["verify", "samples/path.axp", "--universe", "2", "3", "--json"],
            ["verify", "samples/path.axp", "--transformed", str(wrong), "--universe", "2"],
        ]
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "axf", *argv],
                    cwd=ROOT,
                    env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
                    capture_output=True,
                )
                for seed in ("0", "1")
            ]
            assert len({(r.returncode, r.stdout, r.stderr) for r in runs}) == 1, argv
        assert runs[0].returncode == 1 and b"  state:" in runs[0].stdout

    def test_output_file_and_report(self, capsys, tmp_path):
        out_file = tmp_path / "out.axp"
        report_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "transform",
            "samples/path.axp",
            "-o",
            str(out_file),
            "--report",
            str(report_file),
        )
        assert code == 0 and out == ""
        golden = open("tests/golden/path_transformed.axp").read()
        assert out_file.read_text() == golden
        report = json.loads(report_file.read_text())
        assert report["iterations"] == 1
        assert report["replacements"][0]["replacement"] == "nleq__path__path__r1"

    def test_transformed_output_reparses(self, capsys, tmp_path):
        from axf import check_stratified, parse_program

        out_file = tmp_path / "out.axp"
        run(capsys, "transform", "samples/path.axp", "-o", str(out_file))
        prog = parse_program(out_file.read_text(), str(out_file))
        assert check_stratified(prog) == []
        assert len(prog.strata) == 3

    def test_merge_simplify(self, capsys):
        code, out, _ = run(
            capsys, "transform", "samples/path.axp", "--merge", "--simplify"
        )
        assert code == 0
        assert "    (axiom (acyclic)\n      (forall (?x) (nleq__path__path__r1 ?x ?x ?x ?x)))" in out
        # single stratum after the merge
        assert out.count("(stratum") == 1

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "transform", "samples/path.axp", "--json")
        blob = json.loads(out)
        assert set(blob) == {"program", "report"}
        assert blob["report"]["algorithm"] == "iterated-worklist"

    def test_optimize_aux(self, capsys):
        code, out, _ = run(capsys, "transform", "samples/path.axp", "--optimize-aux")
        assert code == 0
        assert "aux_empty__r1" in out and "aux_fix__path__r1" in out


class TestVerify:
    def test_full_pass(self, capsys):
        code, out, err = run(capsys, "verify", "samples/path.axp", "--universe", "2")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "PASS polarity"
        assert "PASS theorem1[n=2,stratum=0] states=16" in lines
        assert all(line.startswith("PASS") for line in lines)

    def test_quiet(self, capsys):
        code, out, _ = run(
            capsys, "verify", "samples/path.axp", "--universe", "2", "--quiet"
        )
        assert code == 0 and out == ""

    def test_checks_subset(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "samples/path.axp",
            "--universe",
            "2",
            "--checks",
            "polarity,theorem2",
        )
        assert code == 0
        names = [line.split()[1] for line in out.splitlines()]
        assert names == ["polarity", "theorem2[n=2,stratum=0]", "theorem2[n=2,stratum=1]"]

    def test_repeated_universe_size_exit_2(self, capsys):
        """A repeated size would sweep it twice and report two checks of one
        name; the plan refuses it before any sweep."""
        code, out, err = run(capsys, "verify", "samples/path.axp", "--universe", "2", "2")
        assert (code, out, err) == (2, "", "error: universe sizes must not repeat\n")

    def test_repeated_check_exit_2(self, capsys):
        """A repeated check would be swept twice and reported twice; the
        plan refuses it before any sweep."""
        for checks in ("order,order", "polarity,polarity"):
            argv = ("verify", "samples/path.axp", "--universe", "2", "--checks", checks)
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", "error: checks must not repeat\n")

    def test_unknown_check_exit_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "samples/path.axp", "--checks", "theorem9"
        )
        assert code == 2 and "theorem9" in err

    def test_empty_checks_exit_2(self, capsys):
        for checks in ("", ","):
            code, out, err = run(capsys, "verify", "samples/path.axp", "--checks", checks)
            assert (code, out) == (2, "") and "at least one check" in err

    def test_sampled_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "samples/path.axp",
            "--universe",
            "2",
            "--samples",
            "7",
            "--seed",
            "zz",
            "--checks",
            "theorem1",
        )
        assert code == 0
        assert "states=7" in out

    def test_transformed_pass(self, capsys, tmp_path):
        out_file = tmp_path / "out.axp"
        run(capsys, "transform", "samples/path.axp", "-o", str(out_file))
        code, out, _ = run(
            capsys,
            "verify",
            "samples/path.axp",
            "--transformed",
            str(out_file),
            "--universe",
            "2",
        )
        assert code == 0
        names = [line.split()[1] for line in out.splitlines()]
        assert names == ["polarity", "equivalence[n=2]"]

    def test_transformed_failure_exit_1(self, capsys, tmp_path):
        wrong = tmp_path / "wrong.axp"
        # drop the acyclic axiom: outputs diverge on acyclic states
        wrong.write_text(
            open("tests/golden/path_transformed.axp")
            .read()
            .replace(
                "(forall (?x) (not (not (nleq__path__path__r1 ?x ?x ?x ?x))))",
                "false",
            )
        )
        code, out, _ = run(
            capsys,
            "verify",
            "samples/path.axp",
            "--transformed",
            str(wrong),
            "--universe",
            "2",
        )
        assert code == 1
        lines = out.splitlines()
        assert any(line.startswith("FAIL equivalence") for line in lines)
        assert any(line.startswith("  state:") for line in lines)
        assert any("acyclic" in line for line in lines if line.startswith("  detail:"))

    def test_transformed_restricts_checks(self, capsys, tmp_path):
        out_file = tmp_path / "out.axp"
        run(capsys, "transform", "samples/path.axp", "-o", str(out_file))
        code, _, err = run(
            capsys,
            "verify",
            "samples/path.axp",
            "--transformed",
            str(out_file),
            "--checks",
            "theorem1",
        )
        assert code == 2
        assert "transformed" in err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "samples/path.axp",
            "--universe",
            "2",
            "--checks",
            "polarity,equivalence",
            "--json",
        )
        assert code == 0
        blob = json.loads(out)
        assert all(c["failures"] == 0 for c in blob["checks"])

    def test_parallel_output_matches(
        self, capsys, monkeypatch, tmp_path, pool_programs, pool_starts
    ):
        program, bad = pool_programs
        source, wrong = tmp_path / "p.axp", tmp_path / "wrong.axp"
        source.write_text(print_program(program))
        wrong.write_text(print_program(bad))
        argv = ("verify", str(source), "--transformed", str(wrong), "--universe", "3",
                "--samples", "8192")
        monkeypatch.setenv("AXF_THREADS", "1")
        code, serial, _ = run(capsys, *argv)
        assert pool_starts == []
        monkeypatch.setenv("AXF_THREADS", "2")
        _, parallel, _ = run(capsys, *argv)
        assert pool_starts == [2]
        assert code == 1 and "states=8192 failures=" in serial
        assert serial == parallel

    def test_transformed_polarity_failure_text(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "samples/path.axp",
            "--transformed",
            "samples/path.axp",
            "--universe",
            "2",
            "--checks",
            "polarity,equivalence",
        )
        assert code == 1
        assert out.splitlines() == [
            "FAIL polarity failures=1",
            "  note: negative derived occurrence at "
            "{'stratum': 1, 'axiom': 0, 'path': [0, 0], 'polarity': 'negative'}",
            "PASS equivalence[n=2] states=16",
        ]

    def test_bad_threads_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("AXF_THREADS", "abc")
        code, _, err = run(
            capsys, "verify", "samples/path.axp", "--universe", "2", "--checks", "equivalence"
        )
        assert code == 2 and "AXF_THREADS" in err

    def test_bad_threads_exit_2_without_a_pool(self, capsys, monkeypatch, pool_starts):
        # 512 states at --universe 3: one block, which runs in process
        monkeypatch.setenv("AXF_THREADS", "abc")
        code, out, err = run(capsys, "verify", "samples/path.axp", "--universe", "3")
        assert (code, out) == (2, "")
        assert err == "error: AXF_THREADS must be an integer\n"
        assert pool_starts == []

    def test_too_many_threads_exit_2(self, capsys, monkeypatch, pool_starts):
        # 16 states at --universe 2: the sweep would stay in process anyway
        monkeypatch.setenv("AXF_THREADS", "100000")
        code, out, err = run(capsys, "verify", "samples/path.axp", "--universe", "2")
        assert (code, out) == (2, "")
        assert err == "error: AXF_THREADS must be between 1 and 256\n"
        assert pool_starts == []

    def test_huge_sample_count_refused_at_once(self, capsys, pool_starts):
        # one job per 4,096 states would make about 244 million jobs
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "samples/path.axp", "--universe", "2", "--samples", "1000000000000"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: 1000000000000 sampled states exceed the state budget of 2^24; "
            "use fewer samples\n"
        )
        assert pool_starts == []

    @pytest.mark.parametrize("arity", [10**4, 10**7])
    @pytest.mark.parametrize("flags", [(), ("--samples", "5")])
    def test_huge_arity_refused_at_once(self, capsys, tmp_path, flags, arity):
        # 3^(10^4) has too many digits to print; 3^(10^7) takes seconds to compute
        program = tmp_path / "wide.axp"
        program.write_text(f"(program (objects a b c) (basic (E {arity})) (derived))")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(program), *flags)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: 2^(2^64 or more) basic states exceed the exhaustive budget of 2^24; "
            "use sampled mode\n"
            if not flags
            else "error: 2^64 or more basic cells exceed the sampled budget of 65536 "
            "cells; use a smaller universe\n"
        )


class TestStats:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "stats", "samples/path.axp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "stratum",
            "members",
            "max-arity",
            "total-arity",
            "occurrences",
            "size",
        ]
        assert lines[1].split() == ["0", "1", "2", "2", "1", "16"]
        assert lines[2].split() == ["1", "1", "0", "0", "0", "7"]
        assert lines[3] == "signature size: 7"
        assert lines[4] == "program size: 30"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "stats", "samples/path.axp", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["signature_size"] == 7
        assert blob["total_size"] == 30
        assert [s["size"] for s in blob["strata"]] == [16, 7]


class TestExitCodes:
    def test_internal_error_exit_3(self, capsys, monkeypatch):
        import axf.cli as cli_mod

        def boom(program, **kwargs):
            raise TransformError("internal error: synthetic failure")

        monkeypatch.setattr(cli_mod, "eliminate_negative_occurrences", boom)
        code, _, err = run(capsys, "transform", "samples/path.axp")
        assert code == 3
        assert "internal error" in err

    def test_unexpected_exception_exit_3(self, capsys, monkeypatch):
        import axf.cli as cli_mod

        def boom(program, **kwargs):
            raise RuntimeError("wat")

        monkeypatch.setattr(cli_mod, "eliminate_negative_occurrences", boom)
        code, _, err = run(capsys, "transform", "samples/path.axp")
        assert code == 3
        assert "internal error" in err and "wat" in err

    def test_logic_error_exit_2(self, capsys, tmp_path):
        # a valid parse that the transform rejects is a user error
        prog = tmp_path / "p.axp"
        prog.write_text("(program (objects a) (basic (B 1)) (derived))")
        code, _, err = run(capsys, "verify", str(prog), "--transformed", str(prog), "--checks", "theorem1")
        assert code == 2

    def test_non_ascii_digit_arity_exit_2(self, capsys, tmp_path):
        prog = tmp_path / "p.axp"
        prog.write_text("(program (objects a) (basic (E \u00b2)) (derived))", encoding="utf-8")
        code, _, err = run(capsys, "parse", str(prog))
        assert code == 2
        assert "arity must be a nonnegative integer" in err

    @staticmethod
    def negation_chain(tmp_path, depth):
        """A program whose lists nest ``depth`` deep: (program (stratum
        (axiom (and (B) (not ... (P)))))) with depth - 5 nots."""
        nots = depth - 5
        body = "(and (B) " + "(not " * nots + "(P)" + ")" * (nots + 1)
        prog = tmp_path / "deep.axp"
        prog.write_text(
            "(program (objects a) (basic (B 0)) (derived (P 0) (Q 0))"
            f" (stratum (axiom (P) (B))) (stratum (axiom (Q) {body})))"
        )
        return str(prog)

    def test_deep_nesting_exit_2(self, capsys, tmp_path):
        for depth in (MAX_NESTING + 1, 3000):
            prog = self.negation_chain(tmp_path, depth)
            for argv in (("parse", prog), ("transform", prog), ("verify", prog, "--universe", "1")):
                code, _, err = run(capsys, *argv)
                assert code == 2
                assert f"{prog}:1:" in err and "too-deep" in err
                assert "RecursionError" not in err

    def test_nesting_at_limit_runs(self, capsys, tmp_path):
        prog = self.negation_chain(tmp_path, MAX_NESTING)
        # The rewrite wraps the innermost atom in one more list, which the
        # reader would refuse, so the printer refuses to write it.
        code, out, err = run(capsys, "transform", prog)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"MAX_NESTING = {MAX_NESTING}" in err
        code, out, err = run(capsys, "verify", prog, "--universe", "1")
        assert code == 0 and err == ""
        assert "FAIL" not in out

    def test_nesting_below_limit_transform_reparses(self, capsys, tmp_path):
        # MAX_NESTING - 5 nots put (P) MAX_NESTING - 1 deep under an odd number
        # of negations; its rewrite (not (nleq ...)) reaches the limit exactly.
        nots = MAX_NESTING - 5
        prog = tmp_path / "chain.axp"
        prog.write_text(
            "(program (objects a) (basic (B 0)) (derived (P 0) (Q 0))"
            f" (stratum (axiom (P) (B))) (stratum (axiom (Q) {'(not ' * nots}(P){')' * nots})))"
        )
        out_file = tmp_path / "out.axp"
        code, _, err = run(capsys, "transform", str(prog), "-o", str(out_file))
        assert code == 0 and err == ""
        assert "nleq" in out_file.read_text(encoding="utf-8")
        code, out, err = run(capsys, "parse", str(out_file))
        assert code == 0 and err == ""
        assert out == out_file.read_text(encoding="utf-8")

    def test_two_deep_nestings_one_diagnostic(self, capsys, tmp_path):
        prog = tmp_path / "deep.axp"
        nested = "(" * 300 + ")" * 300
        prog.write_text(f"{nested}\n{nested}\n")
        code, out, err = run(capsys, "parse", str(prog))
        assert (code, out) == (2, "")
        assert err == f"{prog}:1:257: too-deep: lists nest deeper than 256 levels\n"

    def test_dropped_constant_refused_without_checks(self, capsys, tmp_path):
        prog = tmp_path / "p.axp"
        prog.write_text(
            "(program (objects a b) (basic (E 1)) (derived (P 0))"
            " (stratum (axiom (P) (E b))))"
        )
        code, out, err = run(
            capsys, "verify", str(prog), "--universe", "1", "--checks", "polarity"
        )
        assert (code, out) == (2, "")
        assert err == "error: universe of size 1 would drop constants: b\n"

    def test_stray_transformed_constant_refused_before_any_cell(
        self, capsys, tmp_path, monkeypatch
    ):
        """A constant that only the ``--transformed`` program mentions is
        refused like one of the original, before any cell or orbit of the
        sweep is built."""
        prog, transformed = tmp_path / "o.axp", tmp_path / "tr.axp"
        prog.write_text("(program (objects a b) (basic (E 1)) (derived (P 0))"
                        " (stratum (axiom (P) (E a))))")
        transformed.write_text("(program (objects a b c) (basic (E 1)) (derived (P 0))"
                               " (stratum (axiom (P) (E c))))")
        for name in ("basic_cells", "_orbits"):
            monkeypatch.setattr(axf.verifier, name, lambda *_: pytest.fail("a sweep was built"))
        code, out, err = run(
            capsys, "verify", str(prog), "--transformed", str(transformed), "--universe", "3"
        )
        assert (code, out) == (2, "")
        assert err == "error: universe of size 3 would drop constants: c\n"

    def test_no_command_shows_help(self, capsys):
        with pytest.raises(SystemExit):
            main([])


EXCEPTION_NAMES = sorted(
    name
    for module in (builtins, axf)
    for name, value in vars(module).items()
    if isinstance(value, type) and issubclass(value, BaseException)
)


def bad_input(kind, tmp_path):
    """A path that cannot be read as a program or state: missing, a
    directory, or bytes that are not UTF-8."""
    path = tmp_path / f"bad-{kind}"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"\xff\xfe")
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "BAD"),
        ("eval", "BAD", "samples/path_state.st"),
        ("eval", "samples/path.axp", "BAD"),
        ("transform", "BAD"),
        ("verify", "BAD"),
        ("verify", "samples/path.axp", "--transformed", "BAD", "--universe", "2"),
        ("stats", "BAD"),
    ],
    ids=["parse", "eval-program", "eval-state", "transform", "verify", "verify-transformed", "stats"],
)
def test_unreadable_input_exit_2(capsys, tmp_path, argv, kind):
    """Every file the CLI reads is refused with exit 2 and one error line
    naming it, never with a Python exception."""
    path = bad_input(kind, tmp_path)
    code, out, err = run(capsys, *(path if a == "BAD" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err
    assert "Traceback" not in err and "internal error" not in err
    assert not [name for name in EXCEPTION_NAMES if re.search(rf"\b{name}\b", err)]
    if kind == "non-utf8":
        assert err == f"error: {path}: not valid UTF-8 at byte offset 0\n"
