"""Which modules a CLI call loads that it has no use for.

    PYTHONPATH=src python -S tests/cli_import_probe.py DIR

Every CLI call is a fresh process, so its import cost is paid per call.
This script imports `sinewall.cli` and runs one canonical argv of each
subcommand, with its table and its outputs in DIR.  It prints the modules
of UNUSED_MODULES loaded after the import, the exit statuses, and those
loaded after the calls, and exits 1 unless both lists are empty and every
status is 0.  It imports only sys, which the interpreter loads at start,
so what it finds is what sinewall loaded; -S keeps out what site imports
(.pth files can import typing).  `tests/test_package.py` runs it under
pytest, and the CI's stdlib-smoke job without.
"""

import sys

# argparse (with gettext, and locale on its first message lookup) serves only
# help and non-canonical argv, dataclasses pulls in inspect, ast, dis and
# tokenize; typing and pathlib are unused, and so is sinewall.partitions,
# which no CLI path calls
UNUSED_MODULES = ("argparse", "gettext", "locale", "typing", "pathlib", "dataclasses", "inspect",
                  "sinewall.partitions")

TABLE = ('{"class": {"c1_dot_beta": 4, "primitive": true}, "kind": "ugw", '
         '"g_max": 2, "values": {"0": "1"}}')


def argvs(workdir: str) -> list[list[str]]:
    """One canonical argv per subcommand, each writing to its own file in workdir."""
    out = [f"{workdir}/{name}" for name in ("gw.json", "ver.json", "mu.json", "sine.json",
                                            "int.json")]
    return [["transform", "--direction", "ugw-to-gw", "--input", f"{workdir}/u.json",
             "--format", "json", "--output", out[0]],
            ["verify-identities", "--order", "6", "--format", "json", "--output", out[1]],
            ["mu", "--g-max", "3", "--format", "json", "--output", out[2]],
            ["expand-sine", "--g", "1", "--c", "3", "--order", "8", "--format", "json",
             "--output", out[3]],
            ["check-integrality", "--input", out[0], "--format", "json", "--output", out[4]]]


def main(workdir: str) -> int:
    with open(f"{workdir}/u.json", "w") as f:
        f.write(TABLE)
    import sinewall.cli

    before = [m for m in UNUSED_MODULES if m in sys.modules]
    statuses = [sinewall.cli.main(argv) for argv in argvs(workdir)]
    after = [m for m in UNUSED_MODULES if m in sys.modules]
    print(before, statuses, after, sep="\n")
    return int(bool(before or after or any(statuses)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
