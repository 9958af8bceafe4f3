"""Exact linear algebra over F_q: row echelon form, rank and solving.

Entries are int64 residues; a row update multiplies two residues, which
stays exact only for q < 2^31.  The rank is a lower bound for the rank
over Q of the integer matrix it reduces, and equals it whenever it is
full (a nonzero minor mod q is nonzero over Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


def echelon_mod(matrix, q: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of an integer matrix over F_q, with its pivot columns.

    Forward elimination only: pivot rows are not normalized and entries
    above a pivot are left alone.  Rows below the rank come out zero.
    """
    assert 0 < q < 2**31, "int64 products of two residues need q < 2^31"
    m = np.asarray(matrix, dtype=np.int64) % q
    rows, cols = m.shape
    pivots: list[int] = []
    rank = 0
    for c in range(cols):
        nz = np.nonzero(m[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, c]), q - 2, q)
        col = m[rank + 1:, c]
        hit = np.nonzero(col)[0]
        if hit.size:
            f = (col[hit] * inv) % q
            m[rank + 1 + hit] = (m[rank + 1 + hit] - f[:, None] * m[rank][None, :]) % q
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return m, pivots


def rank_mod(matrix, q: int) -> int:
    """Rank of an integer matrix over F_q (a lower bound for the Q-rank)."""
    return len(echelon_mod(matrix, q)[1])


@dataclass(frozen=True)
class AffineSolutionSet:
    """Solutions of a linear system mod p: particular + span of basis."""

    particular: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    def count(self, p: int) -> int:
        return p ** len(self.basis)

    def enumerate(self, p: int):
        sols = []
        for coeffs in product(range(p), repeat=len(self.basis)):
            v = list(self.particular)
            for c, b in zip(coeffs, self.basis):
                v = [(x + c * y) % p for x, y in zip(v, b)]
            sols.append(tuple(v))
        return sols


def solve_mod(rows, rhs, q: int) -> AffineSolutionSet | None:
    """All solutions x of rows @ x = rhs over F_q, or None if there are none.

    The particular solution has every free unknown at 0; basis vector j
    solves the homogeneous system with free unknown j at 1 and the other
    free unknowns at 0.  Both come from back-substitution on the echelon
    form of [rows | rhs], which is inconsistent exactly when its last
    column is a pivot.
    """
    aug = np.column_stack([np.asarray(rows, dtype=np.int64), np.asarray(rhs, dtype=np.int64)])
    ech, pivots = echelon_mod(aug, q)
    cols = aug.shape[1] - 1
    if pivots and pivots[-1] == cols:
        return None
    free = [c for c in range(cols) if c not in pivots]
    # column 0 of x is the particular solution, column 1 + j basis vector j
    x = np.zeros((cols, 1 + len(free)), dtype=np.int64)
    x[free, 1 + np.arange(len(free))] = 1
    target = np.zeros(1 + len(free), dtype=np.int64)
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        target[0] = ech[i, cols]
        known = (ech[i, c + 1:cols, None] * x[c + 1:] % q).sum(axis=0)
        x[c] = (target - known) % q * pow(int(ech[i, c]), q - 2, q) % q
    particular = tuple(int(v) for v in x[:, 0])
    basis = tuple(tuple(int(v) for v in x[:, 1 + j]) for j in range(len(free)))
    return AffineSolutionSet(particular, basis)


__all__ = ["AffineSolutionSet", "echelon_mod", "rank_mod", "solve_mod"]
