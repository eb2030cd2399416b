"""Every parse diagnostic, pinned byte for byte.

``tests/golden/diagnostics.txt`` holds ``str(d)`` for every diagnostic of a
fixed list of malformed programs and states: a ``== name`` line per input,
then one line per diagnostic, in the order ParseError lists them.  The
inputs cover every diagnostic code, and their positions follow CRLF, tabs,
``\\x85`` and ``\\u2028`` (which start no new line), non-ASCII text, comments
holding parentheses and semicolons, unclosed and too-deep lists after
comments, and an error on the last character of a file with no newline.
The file is the output of ``diagnostics_text()``.
"""

import re

import pytest
from conftest import ROOT

import axf.parser
from axf import ParseError, parse_program, parse_state

GOLDEN_DIAGNOSTICS = ROOT / "tests" / "golden" / "diagnostics.txt"

STATE_PROGRAM = "(program (objects a b) (basic (E 2)) (derived (path 2)))"
NO_OBJECTS = "(program (objects) (basic (E 2)) (derived))"

# (name, program source for a state or None for a program, text)
CASES = [
    ("empty.axp", None, ""),
    ("comment-only.axp", None, "; (program (objects a))\r\n"),
    ("two-forms.axp", None, "(program)\n\t(program)"),
    ("too-deep.axp", None, "; deep (nesting) ahead\r\n\t" + "(" * 300 + ")" * 300),
    ("unmatched.axp", None, "(program (objects é))\r\n\t)  ;)\n   )"),
    ("unclosed.axp", None, "(program ; (comment)\r\n  (objects a\n\t\x85(basic"),
    ("both-parens.axp", None, ")\n ("),
    ("top-atom.axp", None, "\r\n  éprogram"),
    ("top-list.axp", None, "; (program)\n\t(objects a)"),
    ("few-sections.axp", None, "(program\r\n (objects a)\x85(basic))"),
    ("sections.axp", None, "(program objects\n\t(derived)  (basic) stratum (strata)\n (stratum))"),
    ("first-section.axp", None, "(program (basic) (basic) (derived))"),
    (
        "objects.axp",
        None,
        "(program\n  (objects a a ?x program (b) ä ä)\n  (basic)\n  (derived))",
    ),
    (
        "declarations.axp",
        None,
        "(program (objects a)\r\n"
        "  (basic E (E) (E 2) (E two) (E 2) (?v 1)\t(F -1) (G ١) (H (1)) ((I) 1))\n"
        "  (derived (and 0) (P x)))",
    ),
    (
        "axioms.axp",
        None,
        "(program (objects a b) (basic (E 2)) (derived (P 1) (R 2))\n"
        "  ; (axiom (P ?x) true)\n"
        "  (stratum axiom (axiom (P ?x)) (axiom () true) (axiom P true)\n"
        "\t(axiom ((P) ?x) true) (axiom (Q ?x) true) (axiom (E ?x ?y) true)\r\n"
        "    (axiom (P a) true) (axiom (P ?) true) (axiom (R ?x ?x) true)\x85(axiom (P ?x ?y) true)\n"
        "    (axiom (P (?x)) true) (axiom (P ?x) true true) (body (P ?x) true)))",
    ),
    (
        "free-variable.axp",
        None,
        "(program (objects a) (basic (B 2)) (derived (P 1))\r\n"
        " ; (ünbound ?y)\n"
        "\t(stratum (axiom (P ?x) (and (B ?x ?z) (B ?y ?x))) (axiom (P ?x) (B ?w ?w))))",
    ),
    (
        "formulas.axp",
        None,
        "(program (objects a b) (basic (E 2)) (derived (P 1))\n"
        " (stratum\n"
        "  (axiom (P ?x) tru) (axiom (P ?x) ()) (axiom (P ?x) ((E) a))\r\n"
        "  (axiom (P ?x) (and true)) (axiom (P ?x) (or)) (axiom (P ?x) (not true false))\n"
        "\t(axiom (P ?x) (imply true)) (axiom (P ?x) (exists (?y)))\x85(axiom (P ?x) (forall ?y true))\n"
        "  (axiom (P ?x) (exists (y) true)) (axiom (P ?x) (exists (?) true))\n"
        "  (axiom (P ?x) (exists (?y ?y) true)) (axiom (P ?x) (forall () true))\n"
        "  (axiom (P ?x) (?x a)) (axiom (P ?x) (stratum a)) (axiom (P ?x) (Ω ?x))\n"
        "  ; (note) the next line has no newline\n"
        "  (axiom (P ?x) (and (E (a) ?x) (E ? a) (E zz a) (E ?x) (not (imply false (E ?x))))))\t)",
    ),
    (
        "not-stratified.axp",
        None,
        "(program (objects a) (basic (B 1)) (derived (P 1) (Q 1) (S 1))\r\n"
        " (stratum (axiom (P ?x) (not (Q ?x))) (axiom (Q ?x) (B ?x)))\n"
        "\t(stratum\x85(axiom (Q ?x) (P ?x)) ; (Q in two strata)\n"
        "  (axiom (S ?x) (and (P ?x) (not (S ?x)))))\n"
        " (stratum (axiom (P ?x) (exists (?y) (S ?y)))))",
    ),
    (
        "later-stratum.axp",
        None,
        "(program (objects ä) (basic (B 1)) (derived (P 1) (Q 1))\n"
        "  (stratum (axiom (P ?x) (or (B ?x) (not (not (Q ?x))))))\n"
        "  (stratum (axiom (Q ?x) (B ?x))))",
    ),
    (
        "after-comments.axp",
        None,
        "(program ; (a) ;) ((\n  (objects a a) (basic (E 2)) (derived (P 1))\r\n"
        "  ; ) (stratum ; (\n  (stratum (axiom (P ?x) (E ?x zz))))",
    ),
    ("last-paren.axp", None, "(program (objects a) (basic) (derived))\n; (\n)"),
    ("last-list.axp", None, "; (program)\n(program (objects a))"),
    ("unclosed-after-comments.axp", None, "; ( ; )\n(program ; ((\n (objects a) ; )\n\t(basic"),
    (
        "too-deep-after-comments.axp",
        None,
        "; ((( )\n" + "(" * 200 + " ; ) ;\n" + "(" * 100 + ")" * 300,
    ),
    ("state-empty.st", STATE_PROGRAM, ""),
    ("state-head.st", STATE_PROGRAM, "; (state)\r\n (stat (E a b))"),
    ("state-two-forms.st", STATE_PROGRAM, "(state)\n(state)"),
    ("state-atom.st", STATE_PROGRAM, "state"),
    ("state-no-objects.st", NO_OBJECTS, "(state)"),
    (
        "state-atoms.st",
        STATE_PROGRAM,
        "(state E ()\r\n\t(?E a) (Q a) (path a b)\x85(E ?x a) (E (a) b)\n"
        "  ; (E a b)\n  (E a zz) (E a) (and a b) (é a) ((E) a b) (E a b))",
    ),
    ("state-after-comments.st", STATE_PROGRAM, "; (state ; )\n(state (E a b) ; (\n (E zz a))"),
]


def diagnostics(name, source, text):
    """The diagnostics of one case, in the order ParseError lists them."""
    with pytest.raises(ParseError) as info:
        if source is None:
            parse_program(text, name)
        else:
            parse_state(text, parse_program(source), name)
    return info.value.diagnostics


def diagnostics_text() -> str:
    """The golden file's text: each case's name, then its diagnostics."""
    lines = []
    for name, source, text in CASES:
        lines.append(f"== {name}")
        lines.extend(str(d) for d in diagnostics(name, source, text))
    return "\n".join(lines) + "\n"


def test_diagnostics_match_golden():
    assert diagnostics_text() == GOLDEN_DIAGNOSTICS.read_text(encoding="utf-8")


def test_golden_covers_every_code():
    source = open(axf.parser.__file__, encoding="utf-8").read()
    codes = set(re.findall(r'(?:err|Diagnostic)\(\s*"([a-z-]+)"', source))
    pinned = set(re.findall(r": ([a-z-]+): ", GOLDEN_DIAGNOSTICS.read_text(encoding="utf-8")))
    assert codes and codes <= pinned


@pytest.mark.parametrize("name, source, text", CASES, ids=[case[0] for case in CASES])
def test_spans_cover_a_lexeme_a_list_or_the_input(name, source, text):
    """The golden file shows where a span starts, not where it ends: each
    one covers a whole symbol or parenthesis, a list from its '(' through
    the matching ')', or the whole input."""
    lexemes, lists, opens = {(0, len(text))}, set(), []
    for match in re.finditer(r";[^\n]*|[()]|[^\s();]+", text):
        if match.group()[0] != ";":
            lexemes.add(match.span())
        if match.group() == "(":
            opens.append(match.start())
        elif match.group() == ")" and opens:
            lists.add((opens.pop(), match.end()))
    for d in diagnostics(name, source, text):
        assert (d.span.start, d.span.end) in lexemes | lists, str(d)
