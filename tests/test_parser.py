"""Surface syntax: parsing, diagnostics, canonical printing, round trips."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axf import (
    And,
    Atom,
    Exists,
    Not,
    Or,
    ParseError,
    Var,
    format_formula,
    generate_random_program,
    parse_program,
    parse_state,
    print_program,
    print_state,
    program_to_json,
)

GOOD = """
(program
  (objects a b)
  (basic (E 2))
  (derived (path 2))
  (stratum
    (axiom (path ?x ?y) (E ?x ?y))
    (axiom (path ?x ?y) (exists (?z) (and (path ?x ?z) (E ?z ?y))))))
"""


def diag_messages(err):
    return [d.message for d in err.diagnostics]


class TestParsing:
    def test_round_trip_is_stable(self):
        prog = parse_program(GOOD)
        text = print_program(prog)
        again = parse_program(text)
        assert print_program(again) == text
        assert prog.signature == again.signature
        assert prog.strata == again.strata

    def test_sample_file_round_trip(self, path_source, path_program):
        text = print_program(path_program)
        assert parse_program(text).strata == path_program.strata

    def test_imply_desugars(self):
        prog = parse_program(
            """
            (program
              (objects a)
              (basic (B 1))
              (derived (P 1))
              (stratum (axiom (P ?x) (imply (B ?x) (B ?x)))))
            """
        )
        body = prog.strata[0][0].body
        assert isinstance(body, Or)
        assert isinstance(body.subs[0], Not)

    def test_quantifier_shadowing_renamed(self):
        prog = parse_program(
            """
            (program
              (objects a)
              (basic (B 2))
              (derived (P 1))
              (stratum
                (axiom (P ?x)
                  (exists (?x) (and (B ?x ?x) (exists (?x) (B ?x ?x)))))))
            """
        )
        body = prog.strata[0][0].body
        assert isinstance(body, Exists)
        assert body.vars == ("x__1",)
        inner = body.sub.subs[1]
        assert inner.vars == ("x__2",)
        # the inner atom refers to the innermost binder
        assert inner.sub == Atom("B", (Var("x__2"), Var("x__2")))

    def test_user_suffixed_names_not_stolen(self):
        prog = parse_program(
            """
            (program
              (objects a)
              (basic (B 1))
              (derived (P 1))
              (stratum
                (axiom (P ?x__77)
                  (exists (?x__77) (B ?x__77)))))
            """
        )
        body = prog.strata[0][0].body
        assert body.vars == ("x__77__1",)

    def test_constants_allowed_in_bodies(self):
        prog = parse_program(
            """
            (program
              (objects a b)
              (basic (E 2))
              (derived (P 1))
              (stratum (axiom (P ?x) (E ?x a))))
            """
        )
        atomf = prog.strata[0][0].body
        assert atomf.args[1].name == "a"

    def test_empty_strata_allowed(self):
        prog = parse_program(
            "(program (objects a) (basic (B 1)) (derived) )"
        )
        assert prog.strata == ()


class TestDiagnostics:
    def test_multiple_diagnostics_collected(self):
        bad = """
        (program
          (objects a a)
          (basic (E 2))
          (derived (path 2))
          (stratum
            (axiom (path ?x ?y) (E ?x ?y ?z))
            (axiom (E ?x ?y) (path ?x ?y))))
        """
        with pytest.raises(ParseError) as info:
            parse_program(bad, "bad.axp")
        msgs = diag_messages(info.value)
        assert len(msgs) >= 3
        joined = "\n".join(msgs)
        assert "declared twice" in joined
        assert "arity" in joined
        assert "basic" in joined  # head must be derived
        for d in info.value.diagnostics:
            assert d.span is not None and d.span.filename == "bad.axp"
            assert d.span.line >= 1

    def test_unknown_predicate(self):
        with pytest.raises(ParseError) as info:
            parse_program(
                "(program (objects a) (basic (B 1)) (derived (P 1))"
                " (stratum (axiom (P ?x) (C ?x))))"
            )
        assert any("undeclared" in m for m in diag_messages(info.value))

    def test_free_variable_outside_head(self):
        with pytest.raises(ParseError) as info:
            parse_program(
                "(program (objects a) (basic (B 2)) (derived (P 1))"
                " (stratum (axiom (P ?x) (B ?x ?y))))"
            )
        assert any("not bound by the head" in m for m in diag_messages(info.value))
        text = (
            "(program (objects a) (basic (B 2)) (derived (P 1))\n"
            " (stratum (axiom (P ?x) (and (B ?x ?z) (B ?y ?x)))))"
        )
        with pytest.raises(ParseError) as info:
            parse_program(text, "bad.axp")
        (d,) = info.value.diagnostics
        assert (d.code, d.message) == (
            "free-variable-mismatch",
            "body uses variables not bound by the head: ?y, ?z",
        )
        body = "(and (B ?x ?z) (B ?y ?x))"
        assert text[d.span.start : d.span.end] == body
        assert (d.span.line, d.span.column) == (2, text.index(body) - text.index("\n"))

    def test_one_free_variable_walk_per_axiom(self, path_source, monkeypatch):
        """Parsing walks each axiom body exactly once, when the axiom is
        built; validating the parsed program walks no body again."""
        import axf.logic

        real = axf.logic._scan
        walked = []

        def counting(formula):
            walked.append(formula)
            return real(formula)

        monkeypatch.setattr(axf.logic, "_scan", counting)
        program = parse_program(path_source)
        assert walked == [ax.body for stratum in program.strata for ax in stratum]

    def test_reserved_word_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_program(
                "(program (objects a) (basic (not 1)) (derived (P 1)) )"
            )
        assert any("reserved" in m for m in diag_messages(info.value))

    def test_unstratified_program_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_program(
                "(program (objects a) (basic (B 1)) (derived (P 1))"
                " (stratum (axiom (P ?x) (not (P ?x)))))"
            )
        assert any("negatively" in m for m in diag_messages(info.value))

    def test_non_ascii_digit_arity_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_program("(program (objects a) (basic (E \u00b2)) (derived))")
        assert [(d.code, d.message) for d in info.value.diagnostics] == [
            ("bad-declaration", "arity must be a nonnegative integer")
        ]

    def test_sections_must_be_in_order(self):
        with pytest.raises(ParseError):
            parse_program("(program (basic (B 1)) (objects a) (derived))")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_program("(program (objects a) (basic (B 1)) (derived)")

    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_paused_and_restored(self, path_source, monkeypatch, collecting):
        """The cyclic collector is off while a program is read and back in
        its earlier state after a parse that succeeds or raises."""
        import gc

        import axf.parser

        real, seen = axf.parser._read, []

        def reading(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(axf.parser, "_read", reading)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            parse_program(path_source)
            assert gc.isenabled() is collecting
            with pytest.raises(ParseError):
                parse_program("(program (objects a) (basic (B 1)) (derived)")
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]

    def test_every_position_of_many_diagnostics(self):
        """2,000 unknown objects, one per line: each diagnostic names its
        own symbol, on the line and column counted from the text."""
        derived = " ".join(f"(P{i} 1)" for i in range(50))
        axioms = "".join(
            f"\n  (axiom (P{k % 50} ?x) (and (E ?x zz{k}) (E ?x a)))" for k in range(2000)
        )
        text = f"(program (objects a b) (basic (E 2)) (derived {derived})\n (stratum{axioms}))\n"
        with pytest.raises(ParseError) as info:
            parse_program(text, "many.axp")
        assert len(info.value.diagnostics) == 2000
        for k, d in enumerate(info.value.diagnostics):
            start = d.span.start
            assert (d.code, text[start:d.span.end]) == ("unknown-object", f"zz{k}")
            assert d.span.line == text.count("\n", 0, start) + 1
            assert d.span.column == start - text.rfind("\n", 0, start)

    def test_empty_object_section_gives_empty_hint(self):
        prog = parse_program("(program (objects) (basic (B 1)) (derived))")
        assert prog.universe_hint == ()


class TestStates:
    def test_state_parses(self, path_program, path_state):
        assert path_state.holds("E", ("a", "b"))
        assert not path_state.holds("E", ("a", "c"))

    def test_state_round_trip(self, path_program, path_state):
        text = print_state(path_state)
        again = parse_state(text, path_program)
        assert again.true_atoms == path_state.true_atoms

    def test_derived_atom_in_state_rejected(self, path_program):
        with pytest.raises(ParseError) as info:
            parse_state("(state (path a b))", path_program)
        assert any("derived" in m for m in diag_messages(info.value))

    def test_unknown_object_rejected(self, path_program):
        with pytest.raises(ParseError) as info:
            parse_state("(state (E a zz))", path_program)
        assert any("object" in m for m in diag_messages(info.value))

    def test_wrong_arity_rejected(self, path_program):
        with pytest.raises(ParseError):
            parse_state("(state (E a))", path_program)


class TestFormatting:
    def test_format_formula_canonical(self):
        f = Not(And((Atom("P", (Var("x"),)), Atom("Q", (Var("y"), Var("x"))))))
        assert format_formula(f) == "(not (and (P ?x) (Q ?y ?x)))"

    def test_print_is_deterministic(self, path_program):
        assert print_program(path_program) == print_program(path_program)

    def test_json_shape(self, path_program):
        blob = program_to_json(path_program)
        text = json.dumps(blob, sort_keys=True)
        assert json.loads(text) == blob
        assert {p["name"] for p in blob["basic"]} == {"E"}
        assert {p["name"] for p in blob["derived"]} == {"path", "acyclic"}
        assert blob["objects"] == ["a", "b", "c"]
        assert isinstance(blob["strata"], list) and len(blob["strata"]) == 2


def test_fuzzed_sources_never_crash(path_source):
    """Random mutations of a valid file either parse or raise ParseError."""
    rng = random.Random(7)
    alphabet = "()?abEpath \n;austrotik"
    for _ in range(300):
        chars = list(path_source)
        for _ in range(rng.randrange(1, 6)):
            k = rng.randrange(len(chars))
            op = rng.random()
            if op < 0.4:
                chars[k] = rng.choice(alphabet)
            elif op < 0.7:
                del chars[k]
            else:
                chars.insert(k, rng.choice(alphabet))
        mutated = "".join(chars)
        try:
            parse_program(mutated)
        except ParseError:
            pass


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=80, deadline=None)
def test_random_programs_round_trip(seed):
    prog = generate_random_program(seed)
    text = print_program(prog)
    again = parse_program(text)
    assert again.signature == prog.signature
    assert again.universe_hint == prog.universe_hint
    assert again.strata == prog.strata


# Symbols, line breaks, every kind of whitespace the reader must skip (and
# U+FEFF, which is not whitespace), comments and parentheses.
READER_PIECES = [
    "(", ")", ";", "\n", "\r\n", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85",
    "\u2028", "\u00a0", "\ufeff", "\u3000", " ", "?", "?x", "a", "Ed", "program",
]


@given(st.lists(st.sampled_from(READER_PIECES), max_size=60).map("".join))
@settings(max_examples=300, deadline=None)
def test_reader_spans_match_the_text(text):
    """A diagnostic at a symbol spans its text, and one at a list runs from
    its '(' through its ')', inside the enclosing list; its line counts the
    newlines before it and its column the characters since the last one."""
    from axf.parser import _Builder, _read

    try:
        nodes = _read(_Builder(text, "f"))
    except ParseError:
        return
    b = _Builder(text, "f")
    todo = [(node, 0, len(text)) for node in nodes]  # with the enclosing bounds
    while todo:
        node, low, high = todo.pop()
        b.err("code", "message", node)
        span = b.diags[-1].span
        assert low <= span.start < span.end <= high
        if type(node[0]) is str:
            assert text[span.start:span.end] == node[0]
        else:
            assert text[span.start] == "(" and text[span.end - 1] == ")"
            todo.extend((item, span.start + 1, span.end - 1) for item in node[0])
        assert span.line == text.count("\n", 0, span.start) + 1
        assert span.column == span.start - text.rfind("\n", 0, span.start)


def test_clean_parse_builds_no_span(path_source, monkeypatch):
    """Offsets are found only for a diagnostic: a parse without one never
    builds the lexeme offset table or a SourceSpan."""
    import axf.parser

    real, real_span = axf.parser._LEXEME, axf.parser.SourceSpan
    tables, spans = [], []

    class Lexemes:
        findall = real.findall

        def finditer(self, text):
            tables.append(text)
            return real.finditer(text)

    def source_span(*args):
        spans.append(args)
        return real_span(*args)

    monkeypatch.setattr(axf.parser, "_LEXEME", Lexemes())
    monkeypatch.setattr(axf.parser, "SourceSpan", source_span)
    texts = [path_source] + [print_program(generate_random_program(seed)) for seed in range(50)]
    for text in texts:
        parse_program(text)
    assert (tables, spans) == ([], [])
    with pytest.raises(ParseError):
        parse_program("(program (objects a a b b) (basic) (derived))")
    assert len(tables) == 1 and len(spans) == 2
