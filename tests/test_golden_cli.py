"""Golden CLI corpus: every report must stay byte-identical.

Each case in golden/cases.json names an argv; golden/<name>.out holds the
exit code on its first line and the exact stdout after it.  The cases are
replayed in-process through `cli.main`.  With the package installed,
    python tests/test_golden_cli.py --console-script
replays them through the `oamsim` console script instead, one process per
case and without a config file, and also requires an empty stderr.

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
import subprocess
import sys
from pathlib import Path

import pytest

from oamsim import cli
from helpers import compensated_sum

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _golden(case) -> str:
    return (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")


def _report(code, stdout: str) -> str:
    """The text a golden file holds: the exit code, then stdout."""
    return f"{code}\n{stdout}"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return _report(code, out.getvalue())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_is_byte_identical(case, capsys):
    assert _run(case["argv"]) == _golden(case)


def test_reports_do_not_depend_on_a_compensated_sum(monkeypatch):
    """Python 3.12 and later compensate builtin sum over floats; every report
    sums its floats left to right, so none may change with that sum."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    changed = [case["name"] for case in CASES if _run(case["argv"]) != _golden(case)]
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


def _console_script() -> None:
    """Replay every case through the installed console script; exit 1 if
    any report differs or writes to stderr."""
    env = {k: v for k, v in os.environ.items() if k != cli.CONFIG_ENV}
    bad = []
    for case in CASES:
        run = subprocess.run(["oamsim", *case["argv"]], capture_output=True,
                             encoding="utf-8", env=env)
        if _report(run.returncode, run.stdout) != _golden(case) or run.stderr:
            bad.append(case["name"])
            print(f"{case['name']}: exit {run.returncode}, stderr {run.stderr!r}")
    print(f"{len(CASES) - len(bad)} of {len(CASES)} golden reports match")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__" and "--update" in sys.argv:
    _update(sys.argv[sys.argv.index("--update") + 1:])
elif __name__ == "__main__" and sys.argv[1:] == ["--console-script"]:
    _console_script()
