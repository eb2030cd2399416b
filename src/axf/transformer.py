"""Stage-ordering axiom generation and negative-occurrence elimination.

For one stratum with members P_1..P_m, ``generate_stage_axioms`` emits a
self-contained stratum defining, for every member pair, the five relation
predicates of ``evaluator.STAGE_ORDER``: the order in which the staged
fixpoint derives ground atoms.

Write phi_i(x) for member i's normalized body with head variables x, and
phi_i(x)[M j y] for that body with each member atom P_k(z) replaced per
StageMode M, target j and extra arguments y.  Each relation has one
defining equation, and ``mutation`` names the single edit made to it:

  eq1  lt_ij(x, y)   <- OR_k exists z: leq_ik(x, z) and tri_kj(z, y)
                        eq1: chain through lt_ik instead of leq_ik
  eq2  leq_ij(x, y)  <- phi_i(x)[LT j y]
                        eq2: phi_i(x) with member atoms kept
  eq3  nlt_ij(x, y)  <- phi_j(y)[BOTTOM]
                        or OR_k exists z: nleq_ik(x, z) and tri_kj(z, y)
                        or NEVER
                        eq3: drop NEVER
  eq4  nleq_ij(x, y) <- not phi_i(x)[NOT_NLT j y]
                        eq4: NOT_NLEQ in place of NOT_NLT
  eq5  tri_ij(x, y)  <- phi_i(x)[LT i x] and not phi_j(y)[NOT_NLT i x]
                        and (phi_j(y)[LEQ i x] or LAST_i(x))
                        eq5: drop the middle conjunct

where NEVER = AND_k forall z: not phi_k(z)[BOTTOM] says the stratum
derives nothing, and LAST_i(x) = AND_k forall z: not phi_k(z)[NOT_NLEQ i x]
or phi_k(z)[LT i x] says no atom enters at the stage after P_i(x)'s.  With
``optimize_aux`` the two are the predicates aux_empty and aux_fix_i(x),
each defined by the formula it stands for.  Every part is built once per
call and folded as it is built (``substitute_stage`` and the ``make_*``
constructors fold Top and Bottom), so no assembled body is walked again to
prune it.

Every derived predicate occurs positively in the generated bodies, so a
negative occurrence of a member P_i(t) elsewhere can be replaced by the
positive-only test "not nleq_ii(t, t)", which holds exactly when P_i(t) is
derived.  ``eliminate_negative_occurrences`` applies this until no derived
predicate occurs negatively anywhere, each pass reading the occurrences
off ``Axiom.occurrences``, which the one polarity walk stored when the
axiom was built, and rewriting them in place with ``logic.replace_at``;
it generates at most one relation family per stratum; families are always
generated from the stratum's original axioms, never from rewritten ones,
which keeps the rewriting from feeding on its own output.
``merge_to_single_stratum`` then collapses the result into an equivalent
one-stratum program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Callable, Iterator, Mapping, Optional

from .evaluator import RELATION_NAMES
from .logic import (
    And,
    Atom,
    Axiom,
    AxiomProgram,
    Bottom,
    Exists,
    Forall,
    Formula,
    LogicError,
    NEGATIVE,
    Not,
    Predicate,
    Stratum,
    Term,
    Var,
    affected_predicates,
    collapse_double_negation,
    fold,
    lint_polarity,
    make_conj,
    make_disj,
    make_exists,
    make_forall,
    make_not,
    prune_constants,
    replace_at,
    substitute,
)


class TransformError(LogicError):
    """A transformation was asked for something it cannot do."""


MUTATIONS = ("eq1", "eq2", "eq3", "eq4", "eq5")


class StageMode(Enum):
    """How a member atom P_k(z) is replaced when a body copy is specialized
    to a stage bound with target member j and extra arguments y:

      LT        lt_kj(z, y)
      LEQ       leq_kj(z, y)
      NOT_NLT   not nlt_kj(z, y)
      NOT_NLEQ  not nleq_kj(z, y)
      BOTTOM    false
    """

    LT = "lt"
    LEQ = "leq"
    NOT_NLT = "not-nlt"
    NOT_NLEQ = "not-nleq"
    BOTTOM = "bottom"


_MODE_RELATION = {
    StageMode.LT: "lt",
    StageMode.LEQ: "leq",
    StageMode.NOT_NLT: "nlt",
    StageMode.NOT_NLEQ: "nleq",
}


def substitute_stage(
    formula: Formula,
    member_index: Mapping[str, int],
    names: Mapping[tuple[str, int, int], str],
    mode: StageMode,
    target: int = 0,
    extra: tuple[Term, ...] = (),
) -> Formula:
    """Replace every member atom in a formula per the given stage mode.

    ``member_index`` maps member predicate names to 1-based positions,
    ``names`` maps (relation, k, target) to generated predicate names.  Each
    node is rebuilt through ``logic.fold``, so a BOTTOM substitution folds
    upward as it is made.  The extra arguments must not be captured by
    quantifiers in the formula.
    """
    extra_vars = {t.name for t in extra if isinstance(t, Var)}

    def walk(f: Formula) -> Formula:
        if isinstance(f, Atom):
            k = member_index.get(f.pred)
            if k is None:
                return f
            if mode is StageMode.BOTTOM:
                return Bottom()
            repl = Atom(names[(_MODE_RELATION[mode], k, target)], f.args + tuple(extra))
            if mode in (StageMode.NOT_NLT, StageMode.NOT_NLEQ):
                return Not(repl)
            return repl
        if isinstance(f, (Exists, Forall)):
            caught = extra_vars.intersection(f.vars)
            if caught:
                raise TransformError(
                    "stage substitution would capture " + ", ".join(sorted(caught))
                )
        return fold(f, [walk(s) for s in f.children()])

    return walk(formula)


# ---------------------------------------------------------------------------
# Normalization

def _collect_var_names(formula: Formula) -> set[str]:
    out: set[str] = set()

    def walk(f: Formula) -> None:
        if isinstance(f, Atom):
            out.update(t.name for t in f.args if isinstance(t, Var))
        elif isinstance(f, (Exists, Forall)):
            out.update(f.vars)
        for s in f.children():
            walk(s)

    walk(formula)
    return out


def _rename(formula: Formula, names: Mapping[str, Term], fresh: Iterator[str]) -> Formula:
    """Rename the free variables per ``names`` and every bound variable to a
    fresh name, quantifiers taken in preorder, in one walk."""
    if isinstance(formula, Atom):
        args = tuple(names.get(t.name, t) if isinstance(t, Var) else t for t in formula.args)
        return Atom(formula.pred, args)
    if isinstance(formula, (Exists, Forall)):
        bound = tuple(next(fresh) for _ in formula.vars)
        names = {**names, **{old: Var(new) for old, new in zip(formula.vars, bound)}}
        return type(formula)(bound, _rename(formula.sub, names, fresh))
    return formula.rebuild([_rename(s, names, fresh) for s in formula.children()])


def normalize_stratum(stratum: Stratum) -> tuple[Axiom, ...]:
    """One axiom per member, canonical head variables v1.., bound variables
    alpha-renamed to be unique across the stratum (fresh names w1.. that
    avoid every variable name the stratum uses), multiple axioms for the
    same head joined by ``make_disj``, which folds constant bodies."""
    avoid: set[str] = set()
    for axiom in stratum:
        avoid.update(axiom.head_vars)
        avoid.update(_collect_var_names(axiom.body))
    fresh = (name for name in map("w{}".format, count(1)) if name not in avoid)
    out = []
    for pred in affected_predicates(stratum):
        group = [ax for ax in stratum if ax.head_pred == pred]
        head = tuple(f"v{n + 1}" for n in range(len(group[0].head_vars)))
        bodies = [
            _rename(ax.body, {old: Var(new) for old, new in zip(ax.head_vars, head)}, fresh)
            for ax in group
        ]
        out.append(Axiom(pred, head, make_disj(bodies)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Family generation

@dataclass(frozen=True)
class StagePredicateFamily:
    """The generated stage-relation stratum for one source stratum.

    ``names`` maps (relation, i, j) with 1-based member positions to the
    generated predicate names; ``axioms`` is the complete new stratum in
    emission order, ``predicates`` the matching declarations.
    """

    round_index: int
    members: tuple[str, ...]
    arities: tuple[int, ...]
    names: Mapping[tuple[str, int, int], str]
    predicates: tuple[Predicate, ...]
    axioms: tuple[Axiom, ...]
    aux_empty: Optional[str] = None
    aux_fix: Mapping[int, str] = field(default_factory=dict)
    mutation: Optional[str] = None


def _candidate_names(
    members: tuple[str, ...], round_index: int, optimize_aux: bool
) -> tuple[dict[tuple[str, int, int], str], Optional[str], dict[int, str]]:
    positions = range(1, len(members) + 1)

    def scheme(label: Callable[[int], str]) -> dict[tuple[str, int, int], str]:
        return {
            (rel, i, j): f"{rel}__{label(i)}__{label(j)}__r{round_index}"
            for rel in RELATION_NAMES
            for i in positions
            for j in positions
        }

    names = scheme(lambda k: members[k - 1])
    if len(set(names.values())) < len(names):
        # member names that themselves contain the separator can make the
        # plain scheme ambiguous; fall back to position-tagged names
        names = scheme(lambda k: f"m{k}_{members[k - 1]}")
    aux_empty = f"aux_empty__r{round_index}" if optimize_aux else None
    aux_fix = (
        {i: f"aux_fix__{members[i - 1]}__r{round_index}" for i in positions}
        if optimize_aux
        else {}
    )
    return names, aux_empty, aux_fix


def generate_stage_axioms(
    program: AxiomProgram,
    stratum_index: int,
    *,
    round_index: int = 1,
    optimize_aux: bool = False,
    mutation: Optional[str] = None,
    avoid_names: frozenset[str] = frozenset(),
) -> StagePredicateFamily:
    """Generate the stage-relation stratum for one stratum of a program.

    ``round_index`` tags the generated names and is bumped automatically on
    a name collision with the program signature or ``avoid_names``.
    ``mutation`` deliberately miscompiles one defining equation (eq1..eq5)
    for sensitivity experiments.
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise TransformError(f"unknown mutation {mutation!r}")
    if not 0 <= stratum_index < len(program.strata):
        raise TransformError(f"no stratum {stratum_index}")
    stratum = program.strata[stratum_index]
    normalized = normalize_stratum(stratum)
    if not normalized:
        raise TransformError("stratum has no affected predicates")
    members = tuple(ax.head_pred for ax in normalized)
    arities = tuple(len(ax.head_vars) for ax in normalized)
    positions = range(1, len(members) + 1)
    member_index = {name: k for k, name in zip(positions, members)}

    taken = set(program.signature) | set(avoid_names)
    rnd = round_index
    while True:
        names, aux_empty, aux_fix = _candidate_names(members, rnd, optimize_aux)
        generated = list(names.values())
        if aux_empty is not None:
            generated.append(aux_empty)
            generated.extend(aux_fix.values())
        if not taken.intersection(generated):
            break
        rnd += 1

    # Member k's head variables in the role of the defined atom (x), of the
    # stage bound (y) or of a quantified member (z).
    vs = {(p, k): tuple(f"{p}{n + 1}" for n in range(arities[k - 1]))
          for p in "xyz" for k in positions}
    args = {role: tuple(map(Var, role_vars)) for role, role_vars in vs.items()}

    # Built once per call, folded as built: each member's body renamed for
    # each role, and every part that depends on fewer indices than its axiom.
    body = {
        (prefix, k): substitute(ax.body, dict(zip(ax.head_vars, args[prefix, k])))
        for prefix in "xyz"
        for k, ax in zip(positions, normalized)
    }

    def phi(k: int, prefix: str, mode: StageMode, target: int = 0, bound: str = "") -> Formula:
        extra = args[bound, target] if bound else ()
        return substitute_stage(body[prefix, k], member_index, names, mode, target, extra)

    def chain(first: str, i: int, j: int) -> Formula:
        return make_disj(
            make_exists(
                vs["z", k],
                And((Atom(names[first, i, k], args["x", i] + args["z", k]),
                     Atom(names["tri", k, j], args["z", k] + args["y", j]))),
            )
            for k in positions
        )

    never_derivable = make_conj(
        make_forall(vs["z", k], make_not(phi(k, "z", StageMode.BOTTOM))) for k in positions
    )
    stage_is_last = {
        i: make_conj(
            make_forall(
                vs["z", k],
                make_disj([make_not(phi(k, "z", StageMode.NOT_NLEQ, i, "x")),
                           phi(k, "z", StageMode.LT, i, "x")]),
            )
            for k in positions
        )
        for i in positions
    }
    first_stage_y = {j: phi(j, "y", StageMode.BOTTOM) for j in positions}
    derived_x = {i: phi(i, "x", StageMode.LT, i, "x") for i in positions}
    if optimize_aux:
        never: Formula = Atom(aux_empty)
        settled = {i: Atom(aux_fix[i], args["x", i]) for i in positions}
    else:
        never, settled = never_derivable, stage_is_last

    # One builder per defining equation; ``edited`` applies its mutation.
    def lt(i: int, j: int, edited: bool) -> Formula:  # eq1
        return chain("lt" if edited else "leq", i, j)

    def leq(i: int, j: int, edited: bool) -> Formula:  # eq2
        return prune_constants(body["x", i]) if edited else phi(i, "x", StageMode.LT, j, "y")

    def nlt(i: int, j: int, edited: bool) -> Formula:  # eq3
        parts = [first_stage_y[j], chain("nleq", i, j)]
        return make_disj(parts if edited else parts + [never])

    def nleq(i: int, j: int, edited: bool) -> Formula:  # eq4
        mode = StageMode.NOT_NLEQ if edited else StageMode.NOT_NLT
        return make_not(phi(i, "x", mode, j, "y"))

    def tri(i: int, j: int, edited: bool) -> Formula:  # eq5
        conjuncts = [derived_x[i]]
        if not edited:
            conjuncts.append(make_not(phi(j, "y", StageMode.NOT_NLT, i, "x")))
        conjuncts.append(make_disj([phi(j, "y", StageMode.LEQ, i, "x"), settled[i]]))
        return make_conj(conjuncts)

    builders = dict(zip(RELATION_NAMES, (lt, leq, nlt, nleq, tri)))
    edited_rel = dict(zip(MUTATIONS, RELATION_NAMES)).get(mutation)
    axioms: list[Axiom] = []
    predicates: list[Predicate] = []
    for (rel, i, j), name in names.items():
        built = builders[rel](i, j, rel == edited_rel)
        axioms.append(Axiom(name, vs["x", i] + vs["y", j], built))
        predicates.append(Predicate(name, arities[i - 1] + arities[j - 1], "derived"))
    if optimize_aux:
        axioms.append(Axiom(aux_empty, (), never_derivable))
        predicates.append(Predicate(aux_empty, 0, "derived"))
        for i in positions:
            axioms.append(Axiom(aux_fix[i], vs["x", i], stage_is_last[i]))
            predicates.append(Predicate(aux_fix[i], arities[i - 1], "derived"))

    return StagePredicateFamily(
        round_index=rnd,
        members=members,
        arities=arities,
        names=names,
        predicates=tuple(predicates),
        axioms=tuple(axioms),
        aux_empty=aux_empty,
        aux_fix=aux_fix,
        mutation=mutation,
    )


# ---------------------------------------------------------------------------
# Elimination

@dataclass(frozen=True)
class Replacement:
    """One rewritten occurrence; indices refer to the transformed program."""

    pred: str
    stratum_index: int
    axiom_index: int
    path: tuple[int, ...]
    replacement_pred: Optional[str]
    kind: str = "stage"  # or "unaffected-false"

    def to_json(self) -> dict:
        return {
            "pred": self.pred,
            "stratum": self.stratum_index,
            "axiom": self.axiom_index,
            "path": list(self.path),
            "replacement": self.replacement_pred,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class FamilyRecord:
    family: StagePredicateFamily
    origin_stratum: int
    stratum_index: int

    def to_json(self) -> dict:
        return {
            "origin_stratum": self.origin_stratum,
            "stratum": self.stratum_index,
            "round": self.family.round_index,
            "members": list(self.family.members),
            "predicates": [p.name for p in self.family.predicates],
            "axioms": len(self.family.axioms),
        }


@dataclass(frozen=True)
class StratumMetrics:
    members: int
    max_arity: int
    total_arity: int
    same_stratum_occurrences: int
    size: int

    def to_json(self) -> dict:
        return {
            "members": self.members,
            "max_arity": self.max_arity,
            "total_arity": self.total_arity,
            "same_stratum_occurrences": self.same_stratum_occurrences,
            "size": self.size,
        }


@dataclass(frozen=True)
class ProgramMetrics:
    strata: tuple[StratumMetrics, ...]
    signature_size: int
    total_size: int

    def to_json(self) -> dict:
        return {
            "strata": [s.to_json() for s in self.strata],
            "signature_size": self.signature_size,
            "total_size": self.total_size,
        }


@dataclass(frozen=True)
class TransformReport:
    algorithm: str
    iterations: int
    replacements: tuple[Replacement, ...]
    families: tuple[FamilyRecord, ...]
    metrics_before: ProgramMetrics
    metrics_after: ProgramMetrics

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "replacements": [r.to_json() for r in self.replacements],
            "families": [f.to_json() for f in self.families],
            "metrics_before": self.metrics_before.to_json(),
            "metrics_after": self.metrics_after.to_json(),
        }


def compute_metrics(program: AxiomProgram) -> ProgramMetrics:
    """Per-stratum size measures plus a whole-program size.

    The stratum size counts head atoms and body nodes; the program size adds
    one entry of 1 + arity per declared predicate, so growth in both axioms
    and signature is visible."""
    per = []
    for stratum in program.strata:
        members = affected_predicates(stratum)
        member_set = set(members)
        arities = [program.signature[p].arity for p in members]
        per.append(
            StratumMetrics(
                members=len(members),
                max_arity=max(arities, default=0),
                total_arity=sum(arities),
                same_stratum_occurrences=sum(
                    atom.pred in member_set for ax in stratum for _, atom, _ in ax.occurrences
                ),
                size=sum(1 + len(ax.head_vars) + ax.size for ax in stratum),
            )
        )
    signature_size = sum(1 + p.arity for p in program.signature.values())
    return ProgramMetrics(
        strata=tuple(per),
        signature_size=signature_size,
        total_size=signature_size + sum(s.size for s in per),
    )


def eliminate_negative_occurrences(
    program: AxiomProgram, *, optimize_aux: bool = False
) -> tuple[AxiomProgram, TransformReport]:
    """Rewrite a program so no derived predicate occurs negatively.

    Worklist over strata: while some derived predicate occurs negatively,
    take the earliest stratum defining such a predicate, generate its stage
    relation family once (from the stratum's original axioms), place the
    family right after that stratum, and rewrite every negative occurrence
    of its members into a double negation of the member's own nleq
    predicate.  Families themselves may carry negative occurrences of
    predicates from earlier strata (copied from the original bodies), which
    later passes pick up; each pass removes every negative occurrence of
    the chosen stratum's members, so the loop ends after at most one family
    plus a handful of rewrite passes per stratum.

    Each pass scans once, and rewrites the occurrences of its targets that
    the scan listed.  A family placed in the pass is not listed and needs
    no rewrite: its bodies hold its own members only positively.

    Stratum keys fix the layout: original stratum i is keyed (i, 0) and its
    family (i, 1), so the sorted keys are the current stratum order.  The
    replacements keep their stratum's key, and stratum indices are assigned
    once, at the end, from the sorted keys.

    A negative occurrence of a derived predicate that no stratum defines is
    replaced by false, which is what the predicate evaluates to.
    """
    metrics_before = compute_metrics(program)
    working = {(i, 0): list(s) for i, s in enumerate(program.strata)}
    signature = dict(program.signature)
    families: dict[int, StagePredicateFamily] = {}  # by origin, in generation order
    replacements: list[tuple] = []  # (pred, key, axiom, path, replacement, kind)
    iterations = 0
    budget = (len(working) + 2) * (len(working) + 2) + 4

    while True:
        if iterations > budget:
            raise TransformError(
                "internal error: negative-occurrence elimination did not settle"
            )
        defined_at: dict[str, tuple[int, int]] = {}
        for key in sorted(working):
            for p in affected_predicates(working[key]):
                defined_at.setdefault(p, key)
        occurrences = [
            (key, ai, path, atom)
            for key in sorted(working)
            for ai, ax in enumerate(working[key])
            for path, atom, pol in ax.occurrences
            if pol == NEGATIVE and signature[atom.pred].kind == "derived"
        ]
        negative_preds = {atom.pred for *_, atom in occurrences}
        if not negative_preds:
            break
        iterations += 1
        unaffected = {p for p in negative_preds if p not in defined_at}
        if unaffected:
            targets: dict[str, Optional[str]] = dict.fromkeys(unaffected)
            kind = "unaffected-false"
        else:
            o, generated = min(defined_at[p] for p in negative_preds)
            if generated:
                raise TransformError(
                    "internal error: generated stage predicate occurs negatively"
                )
            family = families.get(o)
            if family is None:
                family = families[o] = generate_stage_axioms(
                    program,
                    o,
                    round_index=1 + max((f.round_index for f in families.values()), default=0),
                    optimize_aux=optimize_aux,
                    avoid_names=frozenset(signature),
                )
                working[(o, 1)] = list(family.axioms)
                for pred in family.predicates:
                    signature[pred.name] = pred
            targets = {
                member: family.names[("nleq", k + 1, k + 1)]
                for k, member in enumerate(family.members)
                if member in negative_preds
            }
            kind = "stage"
        bodies: dict[tuple, Formula] = {}
        for key, ai, path, atom in occurrences:
            if atom.pred in targets:
                repl = targets[atom.pred]
                new = Bottom() if repl is None else Not(Atom(repl, atom.args + atom.args))
                body = bodies.get((key, ai), working[key][ai].body)
                bodies[key, ai] = replace_at(body, path, new)
                replacements.append((atom.pred, key, ai, path, repl, kind))
        for (key, ai), body in bodies.items():
            ax = working[key][ai]
            working[key][ai] = Axiom(ax.head_pred, ax.head_vars, body)

    layout = sorted(working)
    index = {key: n for n, key in enumerate(layout)}
    result = AxiomProgram(
        signature.values(),
        program.universe_hint,
        tuple(tuple(working[key]) for key in layout),
    )
    report = TransformReport(
        algorithm="iterated-worklist",
        iterations=iterations,
        replacements=tuple(
            Replacement(p, index[key], ai, path, repl, kind)
            for p, key, ai, path, repl, kind in replacements
        ),
        families=tuple(
            FamilyRecord(family, o, index[(o, 1)]) for o, family in families.items()
        ),
        metrics_before=metrics_before,
        metrics_after=compute_metrics(result),
    )
    return result, report


def merge_to_single_stratum(program: AxiomProgram) -> AxiomProgram:
    """Collapse a program with no negative derived occurrences into one
    stratum; the joint fixpoint then coincides with the stratified one."""
    negs = lint_polarity(program)
    if negs:
        first = negs[0]
        raise TransformError(
            "cannot merge: derived predicate occurs negatively at "
            f"stratum {first.stratum_index}, axiom {first.axiom_index}"
        )
    axioms = tuple(ax for stratum in program.strata for ax in stratum)
    strata = (axioms,) if axioms else ()
    return AxiomProgram(program.signature.values(), program.universe_hint, strata)


def simplify_program(program: AxiomProgram) -> AxiomProgram:
    """The program with every double negation in its bodies collapsed."""
    strata = tuple(
        tuple(
            Axiom(ax.head_pred, ax.head_vars, collapse_double_negation(ax.body))
            for ax in stratum
        )
        for stratum in program.strata
    )
    return AxiomProgram(program.signature.values(), program.universe_hint, strata)
