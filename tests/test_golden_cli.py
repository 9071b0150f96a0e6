"""Golden CLI corpus: every report must stay byte-identical.

Each case in golden/cases.json names an argv; golden/<name>.out holds the
exit code on its first line and the exact stdout after it.  The cases are
replayed in-process through `cli.main`.

After an intended change of a report, rewrite the files of the cases it
changes, and only those, with
    PYTHONPATH=src python tests/test_golden_cli.py --update NAME...
and review the diff.  An unknown name rewrites nothing.
"""

import builtins
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from oamsim import cli
from helpers import compensated_sum

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"{code}\n{out.getvalue()}"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_is_byte_identical(case, capsys):
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert _run(case["argv"]) == expected


def test_reports_do_not_depend_on_a_compensated_sum(monkeypatch):
    """Python 3.12 and later compensate builtin sum over floats; every report
    sums its floats left to right, so none may change with that sum."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    changed = [case["name"] for case in CASES if _run(case["argv"]) !=
               (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")]
    assert changed == []


def _update(names) -> None:
    unknown = set(names) - {case["name"] for case in CASES}
    if not names or unknown:
        raise SystemExit(f"--update needs known case names; unknown: {sorted(unknown)}")
    os.environ.pop(cli.CONFIG_ENV, None)
    for case in CASES:
        if case["name"] in names:
            (GOLDEN / f"{case['name']}.out").write_text(_run(case["argv"]),
                                                        encoding="utf-8")


if __name__ == "__main__" and "--update" in sys.argv:
    _update(sys.argv[sys.argv.index("--update") + 1:])
