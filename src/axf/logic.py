"""Core syntax for stratified axiom programs.

Terms, first order formulas, axioms, and whole programs, plus the purely
syntactic operations everything else builds on: the one walk (occurrences
and free variables), its path write, substitution, stratification, size.
Constant folding has one home, the ``make_*`` constructors; ``fold`` and
``prune_constants`` apply them, while ``rebuild`` and ``substitute`` do not.

This module is the one home of the formula tree's shape and of program
validity.  Every node kind lists and replaces its own subformulas
(``Formula.children`` / ``Formula.rebuild``), so a walker elsewhere handles
only the node kinds it cares about.  ``check_stratified`` checks signature
use and all four stratification conditions in one pass over the body
occurrences each axiom stored, and ``AxiomProgram.validate`` raises on them.

A program owns a signature of basic and derived predicates, an ordered list
of object constants, and a sequence of strata; each stratum is a tuple of
axioms ``head <- body``.  Heads are atoms of derived predicates applied to
pairwise distinct variables.  Evaluation and transformation live in sibling
modules and treat everything here as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, Mapping, Optional, Sequence, Union

Kind = Literal["basic", "derived"]
Polarity = Literal["positive", "negative"]

POSITIVE: Polarity = "positive"
NEGATIVE: Polarity = "negative"


class LogicError(Exception):
    """Structural error in a formula, axiom, or program."""


class SignatureError(LogicError):
    """Predicate or constant usage disagrees with the declaration."""


@dataclass(frozen=True)
class Violation:
    """One failed stratification condition.

    ``bullet`` names the condition: (a) a predicate is affected by more than
    one stratum, (b) a predicate occurs before the stratum that affects it,
    (c) a positively occurring derived predicate is affected only later,
    (d) a negatively occurring derived predicate is not affected strictly
    earlier.  ``occurrence`` is set for body occurrences, None for
    head-level violations.
    """

    bullet: Literal["a", "b", "c", "d"]
    stratum_index: int
    axiom_index: int
    occurrence: Optional["OccurrenceRef"]
    message: str


class StratificationError(LogicError):
    def __init__(self, violations: Iterable[Violation]):
        self.violations = list(violations)
        head = "; ".join(v.message for v in self.violations[:3])
        more = len(self.violations) - 3
        if more > 0:
            head += f" (+{more} more)"
        super().__init__(f"program is not stratified: {head}")


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int
    kind: Kind

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise LogicError(f"negative arity for predicate {self.name}")
        if self.kind not in ("basic", "derived"):
            raise LogicError(f"bad predicate kind {self.kind!r}")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


Term = Union[Var, Const]


@dataclass(frozen=True)
class Formula:
    """Base class of the formula nodes.

    Each node kind owns its shape: ``children()`` lists the subformulas in
    occurrence-path order and ``rebuild(subs)`` returns the same node over
    new children.  Walkers handle the node kinds they care about and rebuild
    the rest.
    """

    def children(self) -> tuple[Formula, ...]:
        raise LogicError(f"unknown formula node {type(self).__name__}")

    def rebuild(self, subs: Sequence[Formula]) -> Formula:
        raise LogicError(f"unknown formula node {type(self).__name__}")


class _Leaf:
    """Children protocol of the nodes without subformulas."""

    def children(self) -> tuple[Formula, ...]:
        return ()

    def rebuild(self, subs: Sequence[Formula]) -> Formula:
        return self


@dataclass(frozen=True)
class Atom(_Leaf, Formula):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Top(_Leaf, Formula):
    pass


@dataclass(frozen=True)
class Bottom(_Leaf, Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.sub,)

    def rebuild(self, subs: Sequence[Formula]) -> Formula:
        return Not(subs[0])


@dataclass(frozen=True)
class And(Formula):
    subs: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if len(self.subs) < 2:
            raise LogicError("And needs at least two conjuncts")

    def children(self) -> tuple[Formula, ...]:
        return self.subs

    def rebuild(self, subs: Sequence[Formula]) -> Formula:
        return type(self)(tuple(subs))


@dataclass(frozen=True)
class Or(Formula):
    subs: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if len(self.subs) < 2:
            raise LogicError("Or needs at least two disjuncts")

    children, rebuild = And.children, And.rebuild


@dataclass(frozen=True)
class Exists(Formula):
    vars: tuple[str, ...]
    sub: Formula

    def __post_init__(self) -> None:
        if not self.vars:
            raise LogicError("Exists needs at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise LogicError("duplicate variable in quantifier")

    def children(self) -> tuple[Formula, ...]:
        return (self.sub,)

    def rebuild(self, subs: Sequence[Formula]) -> Formula:
        return type(self)(self.vars, subs[0])


@dataclass(frozen=True)
class Forall(Formula):
    vars: tuple[str, ...]
    sub: Formula

    def __post_init__(self) -> None:
        if not self.vars:
            raise LogicError("Forall needs at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise LogicError("duplicate variable in quantifier")

    children, rebuild = Exists.children, Exists.rebuild


def make_not(sub: Formula) -> Formula:
    """Not over ``sub``, folded: Top and Bottom swap."""
    if isinstance(sub, (Top, Bottom)):
        return Bottom() if isinstance(sub, Top) else Top()
    return Not(sub)


def _junction(kind: type, absorber: type, unit: type, parts: Iterable[Formula]) -> Formula:
    kept = []
    for part in parts:
        if isinstance(part, absorber):
            return part
        if not isinstance(part, unit):
            kept.append(part)
    return kind(tuple(kept)) if len(kept) > 1 else kept[0] if kept else unit()


def make_conj(parts: Iterable[Formula]) -> Formula:
    """And over ``parts``, folded: a Bottom part absorbs the conjunction and
    Top parts drop out; a single part left collapses to itself, none to Top."""
    return _junction(And, Bottom, Top, parts)


def make_disj(parts: Iterable[Formula]) -> Formula:
    """Or over ``parts``, folded: the dual of ``make_conj``, so a Top part
    absorbs, Bottom parts drop out, and no parts left give Bottom."""
    return _junction(Or, Top, Bottom, parts)


def make_exists(vars: Iterable[str], sub: Formula) -> Formula:
    """Exists over ``sub``; no variables, or a constant body, give ``sub``
    (universes are nonempty, so a quantified constant is that constant)."""
    vars = tuple(vars)
    return Exists(vars, sub) if vars and not isinstance(sub, (Top, Bottom)) else sub


def make_forall(vars: Iterable[str], sub: Formula) -> Formula:
    """Forall over ``sub``, folded as ``make_exists``."""
    vars = tuple(vars)
    return Forall(vars, sub) if vars and not isinstance(sub, (Top, Bottom)) else sub


def fold(node: Formula, subs: Sequence[Formula]) -> Formula:
    """``node.rebuild(subs)`` through the folding constructors above: the
    one step of every walk that folds constants as it builds."""
    if isinstance(node, Not):
        return make_not(subs[0])
    if isinstance(node, (And, Or)):
        return (make_conj if isinstance(node, And) else make_disj)(subs)
    if isinstance(node, (Exists, Forall)):
        return (make_exists if isinstance(node, Exists) else make_forall)(node.vars, subs[0])
    return node.rebuild(subs)


Occurrence = tuple[tuple[int, ...], Atom, Polarity]


def _scan(formula: Formula) -> tuple[tuple[Occurrence, ...], frozenset[str], int]:
    """The one walk of a formula: its atom occurrences (path, atom,
    polarity) in preorder, its free variables and its ``node_count``.  The
    path is the child indices from the root; polarity is negative iff the
    atom sits under an odd number of Not nodes."""
    occurrences: list[Occurrence] = []
    free: set[str] = set()

    def walk(f: Formula, path: tuple[int, ...], negative: bool, bound: frozenset[str]) -> int:
        if isinstance(f, Atom):
            occurrences.append((path, f, NEGATIVE if negative else POSITIVE))
            for t in f.args:
                if isinstance(t, Var) and t.name not in bound:
                    free.add(t.name)
            return 1 + len(f.args)
        size = 1
        if isinstance(f, Not):
            negative = not negative
        elif isinstance(f, (Exists, Forall)):
            bound = bound.union(f.vars)
            size += len(f.vars)
        for i, sub in enumerate(f.children()):
            size += walk(sub, path + (i,), negative, bound)
        return size

    size = walk(formula, (), False, frozenset())
    return tuple(occurrences), frozenset(free), size


def iter_atoms(formula: Formula) -> Iterator[Occurrence]:
    """Yield (path, atom, polarity) for every atom occurrence, in preorder;
    a built axiom holds those of its body as ``axiom.occurrences``."""
    return iter(_scan(formula)[0])


def free_vars(formula: Formula) -> frozenset[str]:
    return _scan(formula)[1]


def node_count(formula: Formula) -> int:
    """Size of a formula: one per connective, quantifier, atom, term, and
    quantified variable; a built axiom holds its body's as ``axiom.size``."""
    return _scan(formula)[2]


def formula_at(formula: Formula, path: Iterable[int]) -> Formula:
    node = formula
    for step in path:
        subs = node.children()
        if not 0 <= step < len(subs):
            raise LogicError(f"invalid path step {step} at {type(node).__name__}")
        node = subs[step]
    return node


def replace_at(formula: Formula, path: Sequence[int], new: Formula) -> Formula:
    """The formula with its subformula at ``path`` replaced by ``new``: the
    write twin of ``formula_at``.  Only the nodes on the path are rebuilt;
    every other subtree is shared."""
    if not path:
        return new
    subs = list(formula.children())
    step = path[0]
    if not 0 <= step < len(subs):
        raise LogicError(f"invalid path step {step} at {type(formula).__name__}")
    subs[step] = replace_at(subs[step], path[1:], new)
    return formula.rebuild(subs)


def substitute(formula: Formula, binding: Mapping[str, Term]) -> Formula:
    """Replace free variables per ``binding``; bound variables are untouched.

    Quantified programs here keep bound names disjoint from anything a caller
    substitutes (the parser renames shadowing binders), so capture is treated
    as a caller bug and raised, not repaired.
    """
    if not binding:
        return formula
    if isinstance(formula, Atom):
        args = tuple(
            binding.get(t.name, t) if isinstance(t, Var) else t for t in formula.args
        )
        return Atom(formula.pred, args)
    if isinstance(formula, (Exists, Forall)):
        binding = {v: t for v, t in binding.items() if v not in formula.vars}
        for t in binding.values():
            if isinstance(t, Var) and t.name in formula.vars:
                raise LogicError(
                    f"substitution would capture variable {t.name} under a quantifier"
                )
    return formula.rebuild([substitute(s, binding) for s in formula.children()])


def prune_constants(formula: Formula) -> Formula:
    """Fold Top and Bottom upward: the folding constructors applied
    bottom-up, one ``fold`` per node.  Assumes a nonempty universe, so a
    quantifier over a constant body is that constant.  No other rewriting
    happens here; in particular double negations survive.
    """
    # ``children`` of an unknown node kind raises LogicError
    return fold(formula, [prune_constants(s) for s in formula.children()])


def collapse_double_negation(formula: Formula) -> Formula:
    """Rewrite every Not(Not(f)) to f, bottom-up."""
    subs = [collapse_double_negation(s) for s in formula.children()]
    if isinstance(formula, Not) and isinstance(subs[0], Not):
        return subs[0].sub
    return formula.rebuild(subs)


@dataclass(frozen=True)
class OccurrenceRef:
    """Pointer to one atom occurrence in an axiom body.

    ``stratum_index`` and ``axiom_index`` are 0-based; ``path`` is the child
    index sequence from the body root to the atom.
    """

    stratum_index: int
    axiom_index: int
    path: tuple[int, ...]
    polarity: Polarity

    def to_json(self) -> dict:
        return {
            "stratum": self.stratum_index,
            "axiom": self.axiom_index,
            "path": list(self.path),
            "polarity": self.polarity,
        }


@dataclass(frozen=True)
class Axiom:
    """One axiom ``head_pred(head_vars) <- body``.

    Head variables are pairwise distinct.  Every free variable of the body
    must be a head variable; the converse may fail (generated stage axioms
    can have head positions the body does not mention), in which case the
    unconstrained positions range over the whole universe.  ``occurrences``
    is ``tuple(iter_atoms(body))`` and ``size`` is ``node_count(body)``, both
    stored by the walk that checks the body; they take no part in equality,
    hashing or ``repr``.
    """

    head_pred: str
    head_vars: tuple[str, ...]
    body: Formula
    occurrences: tuple[Occurrence, ...] = field(init=False, compare=False, repr=False)
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.head_vars)) != len(self.head_vars):
            raise LogicError(f"repeated head variable in axiom for {self.head_pred}")
        occurrences, free, size = _scan(self.body)
        loose = free - set(self.head_vars)
        if loose:
            names = ", ".join(sorted(loose))
            raise LogicError(
                f"body of axiom for {self.head_pred} has free variables not in the head: {names}"
            )
        object.__setattr__(self, "occurrences", occurrences)
        object.__setattr__(self, "size", size)


Stratum = tuple[Axiom, ...]


def affected_predicates(stratum: Iterable[Axiom]) -> tuple[str, ...]:
    """Head predicates of a stratum, in first-appearance order, deduplicated."""
    seen: dict[str, None] = {}
    for axiom in stratum:
        seen.setdefault(axiom.head_pred, None)
    return tuple(seen)


class AxiomProgram:
    """A stratified axiom program: signature, object universe, strata.

    Construction validates the signature use (declared predicates, arities,
    derived heads, declared constants) and stratification; pass
    ``validate=False`` to build intermediate or deliberately broken programs,
    for instance while collecting parse diagnostics.
    """

    def __init__(
        self,
        predicates: Iterable[Predicate],
        universe_hint: Iterable[str] = (),
        strata: Iterable[Iterable[Axiom]] = (),
        *,
        validate: bool = True,
    ):
        self.signature: dict[str, Predicate] = {}
        for pred in predicates:
            if pred.name in self.signature:
                raise SignatureError(f"predicate {pred.name} declared twice")
            self.signature[pred.name] = pred
        self.universe_hint: tuple[str, ...] = tuple(universe_hint)
        if len(set(self.universe_hint)) != len(self.universe_hint):
            raise SignatureError("duplicate object in universe declaration")
        self.strata: tuple[Stratum, ...] = tuple(tuple(s) for s in strata)
        if validate:
            self.validate()

    def validate(self) -> None:
        violations = check_stratified(self)
        if violations:
            raise StratificationError(violations)

    @property
    def basic_predicates(self) -> tuple[Predicate, ...]:
        return tuple(p for p in self.signature.values() if p.kind == "basic")

    @property
    def derived_predicates(self) -> tuple[Predicate, ...]:
        return tuple(p for p in self.signature.values() if p.kind == "derived")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AxiomProgram):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.universe_hint == other.universe_hint
            and self.strata == other.strata
        )

    def __repr__(self) -> str:
        preds = len(self.signature)
        axioms = sum(len(s) for s in self.strata)
        return (
            f"AxiomProgram({preds} predicates, {len(self.universe_hint)} objects, "
            f"{len(self.strata)} strata, {axioms} axioms)"
        )


def check_stratified(program: AxiomProgram) -> list[Violation]:
    """Check the signature use (raising SignatureError) and the four
    stratification conditions in one walk over the axioms; an empty list
    means the program is stratified.  Each axiom's head is checked before
    its body, and each body occurrence's predicate, arity and constants
    before conditions (b)-(d), so the first SignatureError is the first
    misuse in source order.  Head-level (a) violations come first, then the
    body violations in source order: stratum, axiom, preorder occurrence.

    A derived predicate that no axiom affects satisfies (c) and (d)
    vacuously: it is constantly false and imposes no ordering.
    """
    objects = set(program.universe_hint)
    affecting: dict[str, list[int]] = {}
    for si, stratum in enumerate(program.strata):
        for name in affected_predicates(stratum):
            affecting.setdefault(name, []).append(si)

    violations: list[Violation] = []

    def flag(bullet: Literal["b", "c", "d"], message: str) -> None:
        """Report the occurrence the loop below is at; only a violation
        builds its OccurrenceRef."""
        violations.append(Violation(bullet, si, ai, OccurrenceRef(si, ai, path, pol), message))

    for name, strata_of in affecting.items():
        if len(strata_of) > 1:
            where = ", ".join(str(s + 1) for s in strata_of)
            extra = strata_of[1]
            ax_idx = next(i for i, ax in enumerate(program.strata[extra]) if ax.head_pred == name)
            message = f"predicate {name} is affected by axioms in strata {where}"
            violations.append(Violation("a", extra, ax_idx, None, message))

    for si, stratum in enumerate(program.strata):
        for ai, axiom in enumerate(stratum):
            where = f"stratum {si + 1}, axiom {ai + 1}"
            head = program.signature.get(axiom.head_pred)
            if head is None:
                raise SignatureError(f"undeclared predicate {axiom.head_pred} ({where})")
            if head.kind != "derived":
                raise SignatureError(
                    f"head predicate {axiom.head_pred} is basic, not derived ({where})"
                )
            if head.arity != len(axiom.head_vars):
                raise SignatureError(
                    f"head of {axiom.head_pred} has {len(axiom.head_vars)} arguments, "
                    f"declared arity is {head.arity} ({where})"
                )
            for path, atom, pol in axiom.occurrences:
                pred = program.signature.get(atom.pred)
                if pred is None:
                    raise SignatureError(f"undeclared predicate {atom.pred} ({where})")
                if pred.arity != len(atom.args):
                    raise SignatureError(
                        f"atom {atom.pred} has {len(atom.args)} arguments, "
                        f"declared arity is {pred.arity} ({where})"
                    )
                for term in atom.args:
                    if isinstance(term, Const) and term.name not in objects:
                        raise SignatureError(
                            f"unknown object {term.name} in atom {atom.pred} ({where})"
                        )
                for di in affecting.get(atom.pred, ()):
                    # A predicate occurring in its own axiom is reported under (a).
                    if di > si and atom.pred != axiom.head_pred:
                        flag(
                            "b",
                            f"predicate {atom.pred} is affected by stratum "
                            f"{di + 1} but occurs in stratum {si + 1}",
                        )
                    if pol == POSITIVE and di > si:
                        flag(
                            "c",
                            f"{atom.pred} occurs positively in stratum {si + 1} "
                            f"but is affected only in stratum {di + 1}",
                        )
                    if pol == NEGATIVE and di >= si:
                        flag(
                            "d",
                            f"{atom.pred} occurs negatively in stratum {si + 1} "
                            f"but is affected in stratum {di + 1}, not strictly earlier",
                        )
    return violations


def negative_occurrences(
    program: AxiomProgram, pred_names: Iterable[str]
) -> list[OccurrenceRef]:
    """All negative body occurrences of the named predicates, ordered by
    stratum, axiom, and preorder position."""
    wanted = set(pred_names)
    out: list[OccurrenceRef] = []
    for si, stratum in enumerate(program.strata):
        for ai, axiom in enumerate(stratum):
            for path, atom, pol in axiom.occurrences:
                if pol == NEGATIVE and atom.pred in wanted:
                    out.append(OccurrenceRef(si, ai, path, pol))
    return out


def lint_polarity(program: AxiomProgram) -> list[OccurrenceRef]:
    """Occurrence references for every negative derived occurrence."""
    return negative_occurrences(program, [p.name for p in program.derived_predicates])
