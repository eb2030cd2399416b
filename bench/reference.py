"""Reference interpreter for axiom programs, independent of ``axf.evaluator``.

A direct AST walk over the formula classes of ``axf.logic`` with a staged
fixpoint per stratum: every round evaluates each axiom body for every head
instance against the snapshot the round started from, and the stratum ends
when a round adds nothing.  It shares no code with the engine under test, so
the benchmark's output check never takes its reference from that engine.
"""

from __future__ import annotations

from itertools import product


def _holds(formula, env, atoms, objects) -> bool:
    kind = type(formula).__name__
    if kind == "Atom":
        args = tuple(
            env[t.name] if type(t).__name__ == "Var" else t.name for t in formula.args
        )
        return (formula.pred, args) in atoms
    if kind == "Not":
        return not _holds(formula.sub, env, atoms, objects)
    if kind == "And":
        return all(_holds(s, env, atoms, objects) for s in formula.subs)
    if kind == "Or":
        return any(_holds(s, env, atoms, objects) for s in formula.subs)
    if kind in ("Exists", "Forall"):
        test = any if kind == "Exists" else all
        return test(
            _holds(formula.sub, {**env, **dict(zip(formula.vars, values))}, atoms, objects)
            for values in product(objects, repeat=len(formula.vars))
        )
    if kind == "Top":
        return True
    if kind == "Bottom":
        return False
    raise ValueError(f"unknown formula node {kind}")


def staged_fixpoint(stratum, objects, atoms: set) -> int:
    """Extend ``atoms`` in place by one stratum; return the number of
    productive rounds."""
    rounds = 0
    while True:
        snapshot = frozenset(atoms)
        added = {
            (axiom.head_pred, combo)
            for axiom in stratum
            for combo in product(objects, repeat=len(axiom.head_vars))
            if (axiom.head_pred, combo) not in snapshot
            and _holds(axiom.body, dict(zip(axiom.head_vars, combo)), snapshot, objects)
        }
        if not added:
            return rounds
        atoms |= added
        rounds += 1


def reference_extension(program, objects, basic_atoms) -> frozenset:
    """All true ground atoms of ``program`` over ``objects`` for one basic state."""
    objects = tuple(objects)
    atoms = set(basic_atoms)
    for stratum in program.strata:
        staged_fixpoint(stratum, objects, atoms)
    return frozenset(atoms)
