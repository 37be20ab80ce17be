"""The scalar multiple of a series, which only the tests build: S^m = exp(m log S), or -f."""

from sinewall.series import USeries


def scaled(f: USeries, c) -> USeries:
    """c * f, coefficient by coefficient, with f's valuation and order."""
    return USeries(f.valuation, [c * a for a in f.coeffs])
