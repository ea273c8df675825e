"""Exact matrix rank over prime fields, on Python-int rows.

GF(2) rows are bitmasks and reduce by XOR.  GF(3) rows are bit-sliced
``(pos, neg)`` pairs: bit c of ``pos`` (``neg``) is set where entry c is
+1 (-1), so adding two rows is a few whole-row bit operations
(Boothby-Bradshaw 2009) and negating a row swaps its halves.  Both
kernels are the fast path of the regularity oracle at the few-hundred-
column scale of induced-subcomplex boundary matrices.  ``rank_modp`` is
plain Gaussian elimination on lists of Python ints, one routine for
every prime; the oracle calls it only for p >= 5.  No floating
point and no fixed-width integers anywhere.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Sequence


def rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2) of a matrix given as bitmask rows."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row ^= piv
    return len(pivots)


def rank_gf3(rows: Iterable[tuple[int, int]]) -> int:
    """Rank over GF(3) of a matrix given as bit-sliced ``(pos, neg)`` rows.

    ``pos`` and ``neg`` must be disjoint.  Each stored pivot is
    normalised so that its leading entry is +1; a row whose leading entry
    is +1 subtracts the pivot, one whose leading entry is -1 adds it.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for pos, neg in rows:
        while pos | neg:
            lead = (pos | neg).bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (neg, pos) if neg >> lead & 1 else (pos, neg)
                break
            bpos, bneg = piv if neg >> lead & 1 else (piv[1], piv[0])
            pos, neg = (
                (pos ^ bpos) & ~(neg | bneg) | (neg & bneg),
                (neg ^ bneg) & ~(pos | bpos) | (pos & bpos),
            )
    return len(pivots)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def rank_modp(matrix: Iterable[Sequence[int]], p: int) -> int:
    """Rank over GF(p) of a matrix given as a sequence of integer rows;
    raises ValueError unless ``p`` is prime.

    Any row type that iterates to integers works (lists, tuples, rows of
    a 2-d array).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = [[int(x) % p for x in row] for row in matrix]
    pivots: dict[int, list[int]] = {}  # leading column -> row with lead 1
    for row in rows:
        c = 0
        while c < len(row):
            x = row[c]
            if not x:
                c += 1
                continue
            piv = pivots.get(c)
            if piv is None:
                inv = pow(x, -1, p)
                pivots[c] = [y * inv % p for y in row]
                break
            row = [(y - x * z) % p for y, z in zip(row, piv)]
    return len(pivots)
