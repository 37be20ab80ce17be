"""Fixed reference work that times the machine's speed; sinewall never runs it.

Imported, `loop_ms` times the reference loop in the calling process.  Run
as a script (a fresh interpreter), it also pays interpreter start and the
standard-library imports the CLI makes, the bulk of a short CLI call.
"""

import gc
from fractions import Fraction
from time import perf_counter


def loop_ms() -> float:
    """Time one run of the reference loop, in ms, with the garbage collector off.

    It mixes small-int arithmetic with Fraction sums, the kind of work
    sinewall does.  With the collector off, objects a program keeps in the
    same process cannot slow it.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        x = 0
        for i in range(60_000):
            x += i * i % 7
        for _ in range(4):
            q = Fraction(0)
            for k in range(1, 400):
                q += Fraction(1, k)
        return (perf_counter() - t0) * 1000
    finally:
        gc.enable()


if __name__ == "__main__":
    import argparse, dataclasses, enum, json, pathlib, re, typing  # noqa: E401, F401

    loop_ms()
