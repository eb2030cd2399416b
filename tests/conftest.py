from pathlib import Path

import pytest

import axf.verifier
from axf import Axiom, AxiomProgram, Top, eliminate_negative_occurrences, parse_program, parse_state

ROOT = Path(__file__).resolve().parent.parent
PATH_PROGRAM = ROOT / "samples" / "path.axp"
PATH_STATE = ROOT / "samples" / "path_state.st"
GOLDEN_TRANSFORMED = ROOT / "tests" / "golden" / "path_transformed.axp"


@pytest.fixture(scope="session")
def path_source() -> str:
    return PATH_PROGRAM.read_text(encoding="utf-8")


@pytest.fixture()
def path_program(path_source):
    return parse_program(path_source, str(PATH_PROGRAM))


@pytest.fixture()
def path_state(path_program):
    return parse_state(
        PATH_STATE.read_text(encoding="utf-8"), path_program, str(PATH_STATE)
    )


# Three strata whose transform takes two passes: Q's family is generated
# first, P's family later lands in front of it, and the second pass rewrites
# two occurrences of P in one axiom of Q's family.
THREE_STRATA_SOURCE = """
(program
  (objects a b)
  (basic (E 2))
  (derived (P 1) (Q 1) (S 1))
  (stratum (axiom (P ?x) (E ?x ?x)))
  (stratum (axiom (Q ?x) (and (E ?x ?x) (P ?x))))
  (stratum (axiom (S ?x) (not (Q ?x)))))
"""


# Seven basic cells over two objects and 13 over three: the 8,192 states at
# n=3 fill two blocks, enough for a sweep to start a process pool, and are
# cheap to evaluate.
POOL_SOURCE = """
(program
  (objects a b)
  (basic (E 2) (F 1) (G 0))
  (derived (reach 1) (lonely 0))
  (stratum
    (axiom (reach ?x)
      (or (F ?x) (exists (?y) (and (reach ?y) (E ?y ?x))))))
  (stratum
    (axiom (lonely) (and (G) (exists (?x) (not (reach ?x)))))))
"""


@pytest.fixture()
def pool_programs():
    """The pool-sized program and its transform with ``lonely`` made true,
    which fails on states in both halves of a two-worker sweep."""
    program = parse_program(POOL_SOURCE)
    out, _ = eliminate_negative_occurrences(program)
    *strata, last = out.strata
    (ax,) = last
    corrupted = strata + [(Axiom(ax.head_pred, ax.head_vars, Top()),)]
    return program, AxiomProgram(out.signature.values(), out.universe_hint, corrupted)


@pytest.fixture()
def pool_starts(monkeypatch):
    """The worker counts of the process pools the verifier starts."""
    starts = []
    real = axf.verifier.ProcessPoolExecutor

    def counting(*args, **kwargs):
        starts.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(axf.verifier, "ProcessPoolExecutor", counting)
    return starts
