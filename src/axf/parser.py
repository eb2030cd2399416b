"""Reader and printer for the S-expression program and state syntax.

Programs look like::

    (program
      (objects a b c)
      (basic (E 2))
      (derived (path 2) (acyclic 0))
      (stratum
        (axiom (path ?x ?y)
          (or (E ?x ?y) (exists (?z) (and (E ?x ?z) (path ?z ?y))))))
      (stratum
        (axiom (acyclic) (forall (?x) (not (path ?x ?x))))))

States look like ``(state (E a b) (E b c))``.  A semicolon starts a comment
that runs to the end of the line.  Variables carry a ``?`` sigil in the
concrete syntax only; internally names are stored bare.

Parsing is total: any byte string either yields an AST or raises ParseError
carrying a list of diagnostics, each with a span into the input.  The reader
goes from the text's lexemes to nested tuples in one pass; the builder then
turns the tuples into a program.  Lists nest at most
``MAX_NESTING`` deep, counting the enclosing ``(program``, ``(stratum`` and
``(axiom`` forms, because every later pass walks formulas
recursively.  ``imply`` is desugared to ``(or (not a) b)`` while reading.  A quantifier that rebinds
a variable already bound further out (including head variables) is renamed
on the spot (``x`` becomes ``x__1``), so downstream code never needs
capture-avoidance logic.

Positions live in this module only; formula nodes and axioms carry just
their logic.  Reader nodes hold lexeme indices, not offsets: ``_Builder.err``,
the one maker of a ``SourceSpan``, finds the offsets of every lexeme and
newline at a parse's first diagnostic, so a clean parse finds none.  The
builder also shares one ``Var`` per internal name, and keeps one table from
each atom and axiom it makes to its reader node: those are the only nodes a
``not-stratified`` diagnostic points at, since an occurrence path ends at an
atom and a head-level violation names its axiom.  The table is keyed by
``id()`` because nodes compare and hash by value, so equal atoms at two
places would otherwise share one entry.

``print_program`` is the inverse: deterministic text whose reparse is
structurally equal to the original program, including for transformed
programs with generated predicate names.  It raises LogicError rather than
return text nested deeper than ``MAX_NESTING``, which the reader would refuse.
"""

from __future__ import annotations

import gc
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from .evaluator import TruthAssignment, Universe
from .logic import (
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
    Term,
    Top,
    Var,
    check_stratified,
    formula_at,
    free_vars,
)

RESERVED = {
    "program", "objects", "basic", "derived", "stratum", "axiom", "state",
    "and", "or", "not", "imply", "exists", "forall", "true", "false",
}

MAX_NESTING = 256


class SourceSpan(NamedTuple):
    """Character range in an input text; line and column are 1-based for the start."""

    filename: str
    start: int
    end: int
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: {self.code}: {self.message}"


class ParseError(Exception):
    """The diagnostics of a failed parse; the summary that ``str`` gives,
    one line per diagnostic, is built only when asked for."""

    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__(self.diagnostics)

    def __str__(self) -> str:
        summary = "\n".join(str(d) for d in self.diagnostics)
        return f"{len(self.diagnostics)} parse diagnostic(s):\n{summary}"


# ---------------------------------------------------------------------------
# Reading


# A reader node is a plain tuple: ``(text, k)`` for a symbol and
# ``(items, k_open, k_close)`` for a list, where k numbers the text's
# lexemes from 0, comments included; ``node[0]`` is a str only for a symbol.
# ``_WHOLE`` stands for the whole input in a diagnostic.
_WHOLE = ((), -1, -1)

# A comment, a parenthesis or a symbol; whatever none of them matches is
# whitespace, since ``\s`` matches exactly the ``str.isspace`` characters.
_LEXEME = re.compile(r";[^\n]*|[()]|[^\s();]+")


def _read(b: _Builder) -> list[tuple]:
    """Read ``b.text`` into nested lists in one pass; raises ParseError for
    unbalanced parentheses and the first list deeper than ``MAX_NESTING``."""
    top: list[tuple] = []
    stack: list[tuple[list[tuple], int]] = []  # enclosing lists, '(' indices
    current = top
    too_deep = False
    for k, lexeme in enumerate(_LEXEME.findall(b.text)):
        if lexeme == "(":
            stack.append((current, k))
            current = []
            if len(stack) > MAX_NESTING and not too_deep:
                too_deep = True
                b.err("too-deep", f"lists nest deeper than {MAX_NESTING} levels", (lexeme, k))
        elif lexeme == ")":
            if not stack:
                b.err("unbalanced-paren", "unmatched ')'", (lexeme, k))
                continue
            parent, k_open = stack.pop()
            parent.append((tuple(current), k_open, k))
            current = parent
        elif lexeme[0] != ";":
            current.append((lexeme, k))
    for _, k_open in reversed(stack):
        b.err("unbalanced-paren", "unclosed '('", ("(", k_open))
    if b.diags:
        raise ParseError(b.diags)
    return top


# ---------------------------------------------------------------------------
# Program parsing


class _Builder:
    def __init__(self, text: str, filename: str) -> None:
        self.text = text
        self.filename = filename
        self.diags: list[Diagnostic] = []
        self.nodes: dict[int, tuple] = {}  # id() of an atom or axiom -> its reader node
        self.vars: dict[str, Var] = {}  # internal name -> the one Var of this parse
        self.spans: Optional[list[tuple[int, int]]] = None  # lexeme offsets, found by the first err
        self.newlines: list[int] = []  # newline offsets, found with them

    def err(self, code: str, message: str, node: tuple) -> None:
        """Record a diagnostic at ``node``.  Only a newline starts a new
        line, so a column counts every character since the last one."""
        if self.spans is None:
            # The lexemes ``_read`` numbered, then the whole text for ``_WHOLE``'s -1.
            self.spans = [m.span() for m in _LEXEME.finditer(self.text)]
            self.spans.append((0, len(self.text)))
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        start, end = self.spans[node[1]][0], self.spans[node[-1]][1]
        before = bisect_left(self.newlines, start)  # newlines before the node
        column = start - (self.newlines[before - 1] if before else -1)
        span = SourceSpan(self.filename, start, end, before + 1, column)
        self.diags.append(Diagnostic(code, message, span))

    # -- small helpers

    def expect_list(self, node: tuple, what: str) -> Optional[tuple]:
        if type(node[0]) is str:
            self.err("expected-list", f"expected {what}, got {node[0]!r}", node)
            return None
        return node

    def head_is(self, node: tuple, word: str) -> bool:
        return bool(node[0]) and node[0][0][0] == word

    def name_token(self, node: tuple, what: str) -> Optional[tuple]:
        text = node[0]
        if type(text) is not str:
            self.err("expected-name", f"expected {what}", node)
            return None
        if text.startswith("?"):
            self.err("expected-name", f"{what} may not be a variable", node)
            return None
        if text in RESERVED:
            self.err("reserved-name", f"{text!r} is reserved", node)
            return None
        return node


def parse_program(text: str, filename: str = "<string>") -> AxiomProgram:
    """Parse a program; raises ParseError with all collected diagnostics.

    The cyclic garbage collector is paused while it runs: reader nodes and
    formulas form no cycles, and rescanning their growing heap made the
    parse grow faster than its input."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_program(text, filename)
    finally:
        if enabled:
            gc.enable()


def _parse_program(text: str, filename: str) -> AxiomProgram:
    b = _Builder(text, filename)
    forms = _read(b)
    if len(forms) != 1:
        b.err("program-shape", "input must be exactly one (program ...) form", _WHOLE)
        raise ParseError(b.diags)
    root = forms[0]
    if type(root[0]) is str or not b.head_is(root, "program"):
        b.err("program-shape", "top-level form must start with 'program'", root)
        raise ParseError(b.diags)

    sections = root[0][1:]
    if len(sections) < 3:
        message = "program needs (objects ...), (basic ...), and (derived ...) sections"
        b.err("program-shape", message, root)
        raise ParseError(b.diags)

    objects = _parse_objects(b, sections[0])
    predicates: dict[str, Predicate] = {}
    _parse_decls(b, sections[1], "basic", predicates)
    _parse_decls(b, sections[2], "derived", predicates)

    declared = set(objects)
    strata: list[list[Axiom]] = []
    for section in sections[3:]:
        node = b.expect_list(section, "a (stratum ...) section")
        if node is None:
            continue
        if not b.head_is(node, "stratum"):
            b.err("program-shape", "expected a (stratum ...) section", node)
            continue
        axioms: list[Axiom] = []
        for form in node[0][1:]:
            ax = _parse_axiom(b, form, predicates, declared)
            if ax is not None:
                axioms.append(ax)
        strata.append(axioms)

    if b.diags:
        raise ParseError(b.diags)

    program = AxiomProgram(predicates.values(), objects, strata, validate=False)
    # No diagnostic so far, so every atom and axiom the builder made is held
    # by the program and no id in the node table has been reused.
    for v in check_stratified(program):
        axiom = program.strata[v.stratum_index][v.axiom_index]
        node = axiom if v.occurrence is None else formula_at(axiom.body, v.occurrence.path)
        b.err("not-stratified", v.message, b.nodes[id(node)])
    if b.diags:
        raise ParseError(b.diags)
    return program


def _parse_objects(b: _Builder, node: tuple) -> list[str]:
    out: list[str] = []
    lst = b.expect_list(node, "an (objects ...) section")
    if lst is None:
        return out
    if not b.head_is(lst, "objects"):
        b.err("program-shape", "first section must be (objects ...)", lst)
        return out
    for item in lst[0][1:]:
        name = b.name_token(item, "an object name")
        if name is None:
            continue
        if name[0] in out:
            b.err("duplicate-object", f"object {name[0]} declared twice", name)
            continue
        out.append(name[0])
    return out


def _parse_decls(
    b: _Builder, node: tuple, kind: str, predicates: dict[str, Predicate]
) -> None:
    lst = b.expect_list(node, f"a ({kind} ...) section")
    if lst is None:
        return
    if not b.head_is(lst, kind):
        b.err("program-shape", f"expected a ({kind} ...) section", lst)
        return
    for item in lst[0][1:]:
        decl = b.expect_list(item, "a (name arity) declaration")
        if decl is None:
            continue
        if len(decl[0]) != 2:
            b.err("bad-declaration", "declaration must be (name arity)", decl)
            continue
        name = b.name_token(decl[0][0], "a predicate name")
        if name is None:
            continue
        arity_tok = decl[0][1]
        arity = arity_tok[0]
        if type(arity) is not str or not (arity.isascii() and arity.isdigit()):
            b.err("bad-declaration", "arity must be a nonnegative integer", arity_tok)
            continue
        if name[0] in predicates:
            b.err("duplicate-predicate", f"predicate {name[0]} declared twice", name)
            continue
        predicates[name[0]] = Predicate(name[0], int(arity), kind)  # type: ignore[arg-type]


def _parse_axiom(
    b: _Builder, node: tuple, predicates: dict[str, Predicate], objects: set[str]
) -> Optional[Axiom]:
    lst = b.expect_list(node, "an (axiom head body) form")
    if lst is None:
        return None
    if not b.head_is(lst, "axiom") or len(lst[0]) != 3:
        b.err("bad-axiom", "axiom must be (axiom (pred ?v ...) formula)", lst)
        return None
    head = b.expect_list(lst[0][1], "an axiom head")
    if head is None or not head[0]:
        if head is not None:
            b.err("bad-axiom", "axiom head must be (pred ?v ...)", head)
        return None
    name = b.name_token(head[0][0], "a predicate name")
    if name is None:
        return None
    pred = predicates.get(name[0])
    if pred is None:
        b.err("undeclared-predicate", f"undeclared predicate {name[0]}", name)
        return None
    if pred.kind != "derived":
        b.err("head-not-derived", f"head predicate {name[0]} is basic", name)
        return None
    head_vars: list[str] = []
    ok = True
    for item in head[0][1:]:
        text = item[0]
        if type(text) is not str or not text.startswith("?"):
            b.err("head-constant", "axiom head arguments must be variables", item)
            ok = False
            continue
        v = text[1:]
        if not v:
            b.err("bad-variable", "bare '?' is not a variable", item)
            ok = False
            continue
        if v in head_vars:
            b.err("repeated-head-variable", f"head variable ?{v} repeated", item)
            ok = False
            continue
        head_vars.append(v)
    if ok and len(head_vars) != pred.arity:
        b.err(
            "arity-mismatch",
            f"head of {pred.name} has {len(head_vars)} arguments, declared arity is {pred.arity}",
            head,
        )
        ok = False
    body = _parse_formula(
        b, lst[0][2], predicates, objects, {v: v for v in head_vars}, frozenset(head_vars)
    )
    if body is None or not ok:
        return None
    try:
        axiom = Axiom(pred.name, tuple(head_vars), body)
    except LogicError:
        # head variables are distinct by now, so a body variable is unbound
        loose = free_vars(body) - set(head_vars)
        names = ", ".join("?" + v for v in sorted(loose))
        message = f"body uses variables not bound by the head: {names}"
        b.err("free-variable-mismatch", message, lst[0][2])
        return None
    b.nodes[id(axiom)] = lst
    return axiom


def _parse_formula(
    b: _Builder,
    node: tuple,
    predicates: dict[str, Predicate],
    objects: set[str],
    scope: dict[str, str],
    taken: frozenset[str],
) -> Optional[Formula]:
    """Parse one formula.  ``scope`` maps every source-visible bound name
    (head variables included) to its current, possibly renamed, name, and
    ``taken`` holds every internal name bound anywhere on this path, even
    ones whose source name was since rebound; fresh names must avoid all of
    them or nested rebindings of one source name could collide."""
    items = node[0]
    if type(items) is str:
        if items == "true":
            return Top()
        if items == "false":
            return Bottom()
        b.err("bad-formula", f"expected a formula, got {items!r}", node)
        return None
    if not items:
        b.err("bad-formula", "empty list is not a formula", node)
        return None
    head = items[0]
    word = head[0]
    if type(word) is not str:
        b.err("bad-formula", "formula must start with a connective or predicate", head)
        return None

    if word in ("and", "or"):
        if len(items) < 3:
            b.err("bad-formula", f"({word} ...) needs at least two subformulas", node)
            return None
        subs = [
            _parse_formula(b, item, predicates, objects, scope, taken)
            for item in items[1:]
        ]
        if any(s is None for s in subs):
            return None
        cls = And if word == "and" else Or
        return cls(tuple(subs))  # type: ignore[arg-type]

    if word == "not":
        if len(items) != 2:
            b.err("bad-formula", "(not ...) takes exactly one subformula", node)
            return None
        sub = _parse_formula(b, items[1], predicates, objects, scope, taken)
        return None if sub is None else Not(sub)

    if word == "imply":
        if len(items) != 3:
            b.err("bad-formula", "(imply a b) takes exactly two subformulas", node)
            return None
        left = _parse_formula(b, items[1], predicates, objects, scope, taken)
        right = _parse_formula(b, items[2], predicates, objects, scope, taken)
        if left is None or right is None:
            return None
        return Or((Not(left), right))

    if word in ("exists", "forall"):
        if len(items) != 3:
            b.err("bad-formula", f"({word} (?v ...) body) takes a variable list and a body", node)
            return None
        var_list = b.expect_list(items[1], "a variable list")
        if var_list is None:
            return None
        names: list[str] = []
        for item in var_list[0]:
            text = item[0]
            if type(text) is not str or not text.startswith("?") or len(text) < 2:
                b.err("bad-variable", "quantifier variables look like ?name", item)
                return None
            v = text[1:]
            if v in names:
                b.err("duplicate-quantifier-variable", f"?{v} bound twice in one quantifier", item)
                return None
            names.append(v)
        if not names:
            b.err("bad-formula", "quantifier needs at least one variable", var_list)
            return None
        inner_scope = dict(scope)
        in_use = set(taken)
        bound: list[str] = []
        for v in names:
            fresh = v
            n = 0
            while fresh in in_use:
                n += 1
                fresh = f"{v}__{n}"
            inner_scope[v] = fresh
            in_use.add(fresh)
            bound.append(fresh)
        sub = _parse_formula(
            b, items[2], predicates, objects, inner_scope, frozenset(in_use)
        )
        if sub is None:
            return None
        cls = Exists if word == "exists" else Forall
        return cls(tuple(bound), sub)

    # Atom.
    pred = predicates.get(word)
    if word.startswith("?"):
        b.err("bad-formula", "a variable is not a formula", head)
        return None
    if word in RESERVED:
        b.err("bad-formula", f"{word!r} cannot start a formula here", head)
        return None
    if pred is None:
        b.err("undeclared-predicate", f"undeclared predicate {word}", head)
        return None
    args: list[Term] = []
    ok = True
    for item in items[1:]:
        text = item[0]
        if type(text) is not str:
            b.err("bad-term", "atom arguments must be variables or objects", item)
            ok = False
            continue
        if text.startswith("?"):
            v = text[1:]
            if not v:
                b.err("bad-variable", "bare '?' is not a variable", item)
                ok = False
                continue
            v = scope.get(v, v)
            var = b.vars.get(v)
            if var is None:
                var = b.vars[v] = Var(v)
            args.append(var)
        else:
            if text not in objects:
                b.err("unknown-object", f"unknown object {text}", item)
                ok = False
                continue
            args.append(Const(text))
    if len(args) != pred.arity and ok:
        b.err(
            "arity-mismatch",
            f"atom {word} has {len(items) - 1} arguments, declared arity is {pred.arity}",
            node,
        )
        ok = False
    if not ok:
        return None
    atom = Atom(pred.name, tuple(args))
    b.nodes[id(atom)] = node
    return atom


# ---------------------------------------------------------------------------
# State parsing


def parse_state(text: str, program: AxiomProgram, filename: str = "<string>"):
    """Parse ``(state (P obj ...) ...)`` into a basic-state TruthAssignment
    over the program's declared objects."""
    b = _Builder(text, filename)
    forms = _read(b)
    if len(forms) != 1 or type(forms[0][0]) is str or not b.head_is(forms[0], "state"):
        b.err("state-shape", "input must be exactly one (state ...) form", _WHOLE)
        raise ParseError(b.diags)
    if not program.universe_hint:
        b.err("empty-universe", "program declares no objects to build a state over", _WHOLE)
        raise ParseError(b.diags)

    objects = set(program.universe_hint)
    atoms: set[tuple[str, tuple[str, ...]]] = set()
    for item in forms[0][0][1:]:
        lst = b.expect_list(item, "a ground atom (P obj ...)")
        if lst is None or not lst[0]:
            if lst is not None:
                b.err("bad-ground-atom", "empty list is not a ground atom", lst)
            continue
        name = b.name_token(lst[0][0], "a predicate name")
        if name is None:
            continue
        pred = program.signature.get(name[0])
        if pred is None:
            b.err("undeclared-predicate", f"undeclared predicate {name[0]}", name)
            continue
        if pred.kind != "basic":
            b.err("derived-in-state", f"{name[0]} is derived; states assign basic predicates only", name)
            continue
        consts: list[str] = []
        ok = True
        for arg in lst[0][1:]:
            text = arg[0]
            if type(text) is not str or text.startswith("?"):
                b.err("bad-ground-atom", "state atoms take object names only", arg)
                ok = False
                continue
            if text not in objects:
                b.err("unknown-object", f"unknown object {text}", arg)
                ok = False
                continue
            consts.append(text)
        if ok and len(consts) != pred.arity:
            b.err(
                "arity-mismatch",
                f"atom {pred.name} has {len(consts)} arguments, declared arity is {pred.arity}",
                lst,
            )
            ok = False
        if ok:
            atoms.add((pred.name, tuple(consts)))
    if b.diags:
        raise ParseError(b.diags)
    basic = frozenset(p.name for p in program.basic_predicates)
    return TruthAssignment(Universe(program.universe_hint), frozenset(atoms), basic)


# ---------------------------------------------------------------------------
# Printing


def format_term(term: Term) -> str:
    return f"?{term.name}" if isinstance(term, Var) else term.name


def format_formula(formula: Formula) -> str:
    if isinstance(formula, Atom):
        if not formula.args:
            return f"({formula.pred})"
        return f"({formula.pred} " + " ".join(format_term(t) for t in formula.args) + ")"
    if isinstance(formula, Top):
        return "true"
    if isinstance(formula, Bottom):
        return "false"
    if isinstance(formula, Not):
        return f"(not {format_formula(formula.sub)})"
    if isinstance(formula, And):
        return "(and " + " ".join(format_formula(s) for s in formula.subs) + ")"
    if isinstance(formula, Or):
        return "(or " + " ".join(format_formula(s) for s in formula.subs) + ")"
    if isinstance(formula, Exists):
        vs = " ".join("?" + v for v in formula.vars)
        return f"(exists ({vs}) {format_formula(formula.sub)})"
    if isinstance(formula, Forall):
        vs = " ".join("?" + v for v in formula.vars)
        return f"(forall ({vs}) {format_formula(formula.sub)})"
    raise LogicError(f"unknown formula node {type(formula).__name__}")


def print_program(program: AxiomProgram) -> str:
    """Deterministic text form: objects in declared order, declarations
    sorted by name, strata and axioms in order, one axiom per block."""
    lines: list[str] = ["(program"]
    lines.append("  (objects" + "".join(" " + o for o in program.universe_hint) + ")")
    for kind in ("basic", "derived"):
        decls = sorted(
            (p for p in program.signature.values() if p.kind == kind),
            key=lambda p: p.name,
        )
        if not decls:
            lines.append(f"  ({kind})")
        else:
            lines.append(f"  ({kind}")
            for i, p in enumerate(decls):
                tail = ")" if i == len(decls) - 1 else ""
                lines.append(f"    ({p.name} {p.arity}){tail}")
    for stratum in program.strata:
        if not stratum:
            lines.append("  (stratum)")
            continue
        lines.append("  (stratum")
        for i, axiom in enumerate(stratum):
            head = "(" + axiom.head_pred + "".join(" ?" + v for v in axiom.head_vars) + ")"
            tail = ")" if i == len(stratum) - 1 else ""
            lines.append(f"    (axiom {head}")
            lines.append(f"      {format_formula(axiom.body)}){tail}")
    lines[-1] += ")"
    text = "\n".join(lines) + "\n"
    # Names cannot contain parentheses, so every one in the text is a list.
    depth = max(accumulate(1 if c == "(" else -1 for c in text if c in "()"))
    if depth > MAX_NESTING:
        raise LogicError(
            f"printed program would nest lists {depth} deep; the reader accepts "
            f"at most MAX_NESTING = {MAX_NESTING}"
        )
    return text


def format_ground_atom(name: str, args: Iterable[str]) -> str:
    """Concrete syntax of a ground atom: ``(name a b)``."""
    return "(" + " ".join((name, *args)) + ")"


def format_state(atoms: Iterable[tuple[str, tuple[str, ...]]]) -> str:
    """``(state ...)`` with the ground atoms in the given order."""
    return "(state" + "".join(" " + format_ground_atom(n, a) for n, a in atoms) + ")"


def print_state(assignment) -> str:
    """Serialize a basic state as ``(state ...)`` with atoms sorted."""
    return format_state(sorted(assignment.true_atoms)) + "\n"


def program_to_json(program: AxiomProgram) -> dict:
    """JSON-friendly view of a program; formula bodies stay in concrete syntax."""
    return {
        "objects": list(program.universe_hint),
        "basic": [
            {"name": p.name, "arity": p.arity}
            for p in sorted(program.basic_predicates, key=lambda p: p.name)
        ],
        "derived": [
            {"name": p.name, "arity": p.arity}
            for p in sorted(program.derived_predicates, key=lambda p: p.name)
        ],
        "strata": [
            [
                {
                    "head": ax.head_pred,
                    "vars": list(ax.head_vars),
                    "body": format_formula(ax.body),
                }
                for ax in stratum
            ]
            for stratum in program.strata
        ],
    }
