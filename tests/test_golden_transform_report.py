"""The transform reports of ``samples/path.axp`` and a three-stratum program,
pinned byte for byte.

Each golden file holds what ``axf transform --report F`` writes to ``F``:
the replacements in the order they were made, with their paths, the pass
count, the families and the size metrics.
"""

import contextlib
import io

import pytest
from conftest import PATH_PROGRAM, ROOT, THREE_STRATA_SOURCE

from axf.cli import main

GOLDEN = ROOT / "tests" / "golden"

CASES = [
    ("path", "path_report.json", ()),
    ("path", "path_report_optimize_aux.json", ("--optimize-aux",)),
    ("three_strata", "three_strata_report.json", ()),
]


@pytest.mark.parametrize(("program", "golden", "flags"), CASES)
def test_report_matches_golden(tmp_path, program, golden, flags):
    if program == "path":
        source = PATH_PROGRAM
    else:
        source = tmp_path / "three_strata.axp"
        source.write_text(THREE_STRATA_SOURCE, encoding="utf-8")
    report = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["transform", str(source), "--report", str(report), *flags])
    assert code == 0
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()
