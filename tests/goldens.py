"""The CLI goldens: one table, key -> command line, read by the golden tests
of test_cli.py, by their regeneration (``PYTHONPATH=src python
tests/test_cli.py``) and by CI, which runs each command line through the
installed ``hyperterm`` script.

tests/golden/<key>.out holds the stdout of ``GOLDENS[key]``,
golden/exit_status.json its exit status, and <key>.err its stderr where
that file exists; to add a stderr golden, create the file empty and
regenerate.  ``--verbose`` writes to stderr only, so ``<key>_verbose``, the
command of <key> with -v, has a .err golden alone and shares the stdout and
the exit status of <key> (``stdout_key``).

The commands: check, decompose, structure, factorial, pochhammer and
compare on specs/*.json and on tests/data/constant.json and
tests/data/annihilated.json; all of them on the benchmark specs, compare
over their workload windows; compare on specs/*.json over the grid2d
workload's windows (keys ``specs_<stem>.compare_window``); decompose on
tests/data/shift16.json and tests/data/telescope.json; check and decompose
on tests/data/incompatible.json, which both exit 1; check on
tests/data/unreduced.json, whose stderr is the unreduced-generator warning;
and structure on tests/data/refuted_witness.json, which exits 1 with the
error on stderr.
A change that alters CLI output must regenerate the goldens and say why.
"""

import json
from pathlib import Path
from typing import Optional

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
DATA = REPO / "tests" / "data"
COMMANDS = ["check", "decompose", "structure", "factorial", "pochhammer", "compare"]
# perfbench/specs/<stem>.json -> the --window of its workload
COMPARE_WINDOWS = {
    "wedge3d": "-2:4,-2:4,8:14",
    "flood3d": "-4:4,-4:4,-4:4",
}
# specs/<stem>.json -> the --window of the grid2d workload
SPEC_COMPARE_WINDOWS = {
    "binomial": "-30:30,-30:30",
    "odd": "-30:30",
}
# the keys whose command runs with -v too: a structure with an unreachable
# piece, and one whose three unreachable pieces have no factorial forms
VERBOSE = ["perfbench_wedge3d.structure", "specs_binomial.factorial"]


def _table() -> dict[str, list[str]]:
    specs = {f"specs_{p.stem}": p for p in sorted((REPO / "specs").glob("*.json"))}
    specs.update((stem, DATA / f"{stem}.json") for stem in ("constant", "annihilated"))
    table = {
        f"{name}.{command}": [command, str(path)]
        for name, path in specs.items()
        for command in COMMANDS
    }
    for stem, window in COMPARE_WINDOWS.items():
        path = str(REPO / "perfbench" / "specs" / f"{stem}.json")
        for command in COMMANDS:
            table[f"perfbench_{stem}.{command}"] = [command, path]
        table[f"perfbench_{stem}.compare"] += ["--window", window]
    for stem, window in SPEC_COMPARE_WINDOWS.items():
        path = str(REPO / "specs" / f"{stem}.json")
        table[f"specs_{stem}.compare_window"] = ["compare", path, "--window", window]
    for stem in ("shift16", "telescope"):
        table[f"{stem}.decompose"] = ["decompose", str(DATA / f"{stem}.json")]
    # R_1 of specs/binomial.json times z2 + 1, which no second generator balances
    for command in ("check", "decompose"):
        table[f"incompatible.{command}"] = [command, str(DATA / "incompatible.json")]
    # R_1 = (z1^2 + z1) / (z1 (z1 + 2)), whose sides share the factor z1
    table["unreduced.check"] = ["check", str(DATA / "unreduced.json")]
    # specs/binomial.json with the zero-divisor witness z1, which the step
    # from the seed to (1, 0), of value 1, refutes
    table["refuted_witness.structure"] = ["structure", str(DATA / "refuted_witness.json")]
    for key in VERBOSE:
        command, *rest = table[key]
        table[f"{key}_verbose"] = [command, "-v", *rest]
    return table


GOLDENS = _table()


def stdout_key(key: str) -> str:
    """The key whose .out golden and exit status ``GOLDENS[key]`` shares:
    <key> for <key>_verbose, else the key itself."""
    return key.removesuffix("_verbose")


def expected(key: str) -> tuple[int, bytes, Optional[bytes]]:
    """The exit status, stdout and stderr ``GOLDENS[key]`` must give; the
    stderr is None where the key has no .err golden."""
    base = stdout_key(key)
    status = json.loads((GOLDEN / "exit_status.json").read_text(encoding="utf-8"))[base]
    err = GOLDEN / f"{key}.err"
    return status, (GOLDEN / f"{base}.out").read_bytes(), err.read_bytes() if err.exists() else None
