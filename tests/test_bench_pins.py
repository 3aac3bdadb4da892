"""The benchmark pins every check of the battery by name: GROUP_CHECKS
in perfbench/run.py must be the battery's CHECKS grouped by GROUPS, in
order, so that a renamed or added check fails here and not only in the
benchmark's correctness gate.  The file is read with ast, not imported."""

import ast
from pathlib import Path

from ckder.battery import CHECKS, GROUPS

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def pinned_group_checks():
    """The value of the module-level GROUP_CHECKS of perfbench/run.py."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GROUP_CHECKS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no GROUP_CHECKS")


def test_bench_pins_every_check_of_the_battery_in_order():
    want = {g: [cd.name for cd in CHECKS if cd.group == g] for g in GROUPS}
    got = pinned_group_checks()
    assert list(got) == list(GROUPS)
    assert got == want
