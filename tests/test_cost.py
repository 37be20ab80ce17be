"""Cost pins: the exact work some calls do, counted in calls and integer products.

A count does not move with machine speed, so it pins what a timing cannot:
that the inverse transform builds each S^k rung only as far as its rows
read it, that the identity grids still build full rows, how many
`pow_int` calls each transform direction makes, and what one canonical
call of each subcommand costs.  A change that moves a pin on purpose
updates the number here with the reason.

The products of one `convolve(a, b, n)` are the pairs (i, j) with a[i] and
b[j] nonzero and i + j < n: the multiplications the kernel makes.
"""

import json

import pytest

from sinewall import cli, hodge, series, wallcross
from sinewall.wallcross import GenusTable, Kind, gw_from_ugw, ugw_from_gw


@pytest.fixture
def convolves(monkeypatch):
    """The product count of every `convolve` call, in call order, wherever it is made.

    The vertex values' memo is cleared, so a call that reads them builds them.
    """
    counts, real = [], series.convolve

    def counting(a, b, n):
        b_nonzero = [j for j, y in enumerate(b[:n]) if y]
        counts.append(sum(1 for i, x in enumerate(a[:n]) if x for j in b_nonzero if i + j < n))
        return real(a, b, n)

    for module in (series, wallcross, hodge):
        monkeypatch.setattr(module, "convolve", counting)
    monkeypatch.setattr(hodge, "_memo", ())
    return counts


@pytest.fixture
def pow_ints(monkeypatch):
    """The exponent of every `pow_int` call, in call order."""
    calls, real = [], series.pow_int

    def counting(f, k):
        calls.append(k)
        return real(f, k)

    monkeypatch.setattr(series, "pow_int", counting)
    monkeypatch.setattr(wallcross, "pow_int", counting)
    return calls


@pytest.mark.parametrize("c, g_max, calls, products", [
    # two convolves for the step S^2 at full size, then one per row, row h
    # through x^h: sum of n (n + 1) / 2 for n = 1..g_max; with every rung
    # at full length these read 8150 and 269082
    (3, 24, 26, 2950),
    (3, 80, 82, 91962),
    (-41, 80, 82, 91962),
])
def test_inverse_matrix_convolves(convolves, c, g_max, calls, products):
    wallcross._inverse_matrix(c, g_max)
    assert (len(convolves), sum(convolves)) == (calls, products)


def test_grids_convolve_full_rows(convolves):
    # both grids read every S^k at one size, so trimming leaves them as they
    # were; the vertex values are built first, since their two series
    # products are counted with the verify-identities call below
    hodge.mu_values(6)
    convolves.clear()
    assert all(report.passed for report in wallcross.verify_grids(10))
    assert (len(convolves), sum(convolves)) == (255, 4120)


@pytest.mark.parametrize("c, g_max", [(3, 24), (0, 6), (-41, 12), (2, 0)])
def test_pow_int_calls_per_transform(pow_ints, c, g_max):
    # the inverse takes one power, the seed of its ladder (c = 0 and 2 have
    # a log S row, which takes none); the forward one per column
    gw = GenusTable(Kind.GW, c, True, {g: 1 for g in range(g_max + 1)}, g_max)
    ugw = ugw_from_gw(gw)
    assert pow_ints == [2 - c - 2 * g_max]
    pow_ints.clear()
    assert gw_from_ugw(ugw) == gw
    assert pow_ints == [2 * g - 2 + c for g in range(g_max + 1)]


def _table(kind, c, g_max):
    """A table of ``kind`` with every value 1, compact json as README "Limits" writes them."""
    doc = {"class": {"c1_dot_beta": c, "primitive": True}, "kind": kind, "g_max": g_max,
           "values": {str(g): "1" for g in range(g_max + 1)}}
    return json.dumps(doc, separators=(",", ":"))


_TABLES = {f"{kind}12.json": _table(kind, 3, 12) for kind in ("gw", "ugw", "gv")}
# README "Limits": g80.json and g80-c.json, as the kind gw-to-ugw reads
_TABLES |= {"g80.json": _table("gw", 3, 80), "g80-c.json": _table("gw", -10**6, 80)}


# the gw tables' values are not GV-integral, so gw-to-gv and check-integrality
# exit 1; the forward transform takes one `pow_int` per column and no convolve
@pytest.mark.parametrize("argv, status, calls, products, powers", [
    (["transform", "--direction", "ugw-to-gw", "--input", "ugw12.json"], 0, 0, 0, 13),
    (["transform", "--direction", "gw-to-ugw", "--input", "gw12.json"], 0, 14, 468, 1),
    (["transform", "--direction", "gw-to-gv", "--input", "gw12.json"], 1, 14, 468, 1),
    (["transform", "--direction", "gv-to-gw", "--input", "gv12.json"], 0, 0, 0, 13),
    (["check-integrality", "--input", "gw12.json"], 1, 14, 468, 1),
    (["verify-identities", "--order", "10"], 0, 261, 4221, 1),
    (["mu", "--g-max", "5"], 0, 2, 36, 0),
    (["expand-sine", "--g", "1", "--c", "3", "--order", "10"], 0, 0, 0, 1),
    (["transform", "--direction", "gw-to-ugw", "--input", "g80.json", "--format", "json"],
     0, 82, 91962, 1),
    (["transform", "--direction", "gw-to-ugw", "--input", "g80-c.json", "--format", "json"],
     0, 82, 91962, 1),
])
def test_cli_call_cost(convolves, pow_ints, tmp_path, monkeypatch, capsys,
                       argv, status, calls, products, powers):
    # one canonical call of each subcommand, and the README "Limits" rows
    # that run in about a second in process
    for name, text in _TABLES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    got = cli.main(argv), len(convolves), sum(convolves), len(pow_ints)
    capsys.readouterr()
    assert got == (status, calls, products, powers)
