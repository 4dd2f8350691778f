"""The inventory of ``REPRO_*`` environment switches.

Every switch is another execution path to keep green, so the set is
pinned here: adding one, or leaving a mention of a deleted one behind,
must be a deliberate edit of this list and of the README's switch
table.
"""

from __future__ import annotations

import pathlib
import re

import repro

SWITCHES = {
    "REPRO_KERNELS",
    "REPRO_BATCH",
    "REPRO_SANITIZE",
    "REPRO_WITNESS",
    "REPRO_WITNESS_OUT",
    "REPRO_POOL_START_METHOD",
}

_SWITCH = re.compile(r"REPRO_[A-Z_]+")


def _source_switches() -> set[str]:
    package = pathlib.Path(repro.__file__).parent
    found: set[str] = set()
    for path in package.rglob("*.py"):
        found.update(_SWITCH.findall(path.read_text(encoding="utf-8")))
    return found


def test_switch_inventory_is_exact():
    assert _source_switches() == SWITCHES


def test_readme_lists_every_switch():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    table = {
        m.group(1)
        for m in re.finditer(r"^\| `(REPRO_[A-Z_]+)` \|",
                             readme.read_text(encoding="utf-8"), re.M)
    }
    assert table == SWITCHES
