"""Exact computation with graded ideals: Betti tables, regularity,
linear-quotient certificates, polymatroidal exchange checks, primary
decompositions of products of linear-form ideals, and chain-ideal
combinatorics.  Everything is exact (rationals or GF(p)); no Groebner
bases are used anywhere.
"""

__version__ = "0.1.0"


def check(ok, message):
    """Raise AssertionError(message) unless `ok`: an internal cross-check
    that ``python -O`` keeps.  A callable message is called only on
    failure, so building it costs nothing on success."""
    if not ok:
        raise AssertionError(message() if callable(message) else message)
