"""The verification report of ``samples/path.axp``, pinned byte for byte.

``tests/golden/verify_path.json`` holds the ``--json`` output of ``axf verify``
over two and three objects, the same for a corrupted ``--transformed`` file
(exit 1), and ``verify_theorem1`` under each stage-family sabotage at n=2
and n=3: failure counts, counterexample states and detail texts.
``tests/golden/verify_path_n4.json`` holds the ``--json`` output over four
objects, written by a sweep that ran every one of the 65,536 states.
"""

import contextlib
import io
import json

import pytest
from conftest import GOLDEN_TRANSFORMED, PATH_PROGRAM, ROOT

from axf import Universe, parse_program, verify_theorem1
from axf.cli import main
from axf.transformer import MUTATIONS

GOLDEN_REPORT = ROOT / "tests" / "golden" / "verify_path.json"
GOLDEN_N4 = ROOT / "tests" / "golden" / "verify_path_n4.json"


def cli(*argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def report(tmp_path) -> str:
    """The golden report's text: every entry, keyed by what produced it."""
    # drop the acyclic axiom: outputs diverge on acyclic states
    wrong = tmp_path / "wrong.axp"
    wrong.write_text(
        GOLDEN_TRANSFORMED.read_text(encoding="utf-8").replace(
            "(forall (?x) (not (not (nleq__path__path__r1 ?x ?x ?x ?x))))", "false"
        ),
        encoding="utf-8",
    )
    program = parse_program(PATH_PROGRAM.read_text(encoding="utf-8"))
    source = str(PATH_PROGRAM)
    entries = {
        "verify --universe 2 3 --json": cli("verify", source, "--universe", "2", "3", "--json"),
        "verify --transformed <acyclic dropped> --universe 2 3 --json": cli(
            "verify", source, "--transformed", str(wrong), "--universe", "2", "3", "--json"
        ),
    }
    for n in (2, 3):
        universe = Universe(("a", "b", "c")[:n])
        for mutation in MUTATIONS:
            entries[f"verify_theorem1 n={n} mutation={mutation}"] = verify_theorem1(
                program, 0, universe, mutation=mutation
            ).to_json()
    return json.dumps(entries, indent=1) + "\n"


def test_report_matches_golden(tmp_path):
    assert report(tmp_path) == GOLDEN_REPORT.read_text(encoding="utf-8")


@pytest.mark.parametrize("threads", ["1", None], ids=["one-thread", "default"])
def test_exhaustive_n4_matches_golden(monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("AXF_THREADS", raising=False)
    else:
        monkeypatch.setenv("AXF_THREADS", threads)
    argv = ("verify", str(PATH_PROGRAM), "--universe", "4", "--json")
    entries = {"verify --universe 4 --json": cli(*argv)}
    assert json.dumps(entries, indent=1) + "\n" == GOLDEN_N4.read_text(encoding="utf-8")
