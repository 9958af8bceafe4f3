"""Exact linear algebra over F_q: row echelon form, rank and solving.

Entries are residues in [0, q), held in the narrowest integer dtype that
keeps a row update exact (:func:`kernel_dtype`): a fraction-free update
multiplies two residues, so the products stay within (q - 1)^2.  That is
int32 when (q - 1)^2 < 2^31 (q <= 46,337) and int64 for every other
q < 2^31, the bound the functions here accept.  The rank is a lower
bound for the rank over Q of the integer matrix it reduces, and equals
it whenever it is full (a nonzero minor mod q is nonzero over Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


def kernel_dtype(q: int) -> type:
    """The dtype of the residues mod q: int32 when (q - 1)^2 < 2^31, else int64.

    A row update forms pv * row - f * pivot_row from residues, so each
    product and their difference stay within (q - 1)^2 in absolute
    value, and reducing it with ``v - v // q * q`` passes through
    values within q (q - 1); both fit int32 exactly when (q - 1)^2 < 2^31.
    """
    assert 0 < q < 2**31, "int64 products of two residues need q < 2^31"
    return np.int32 if (q - 1) ** 2 < 2**31 else np.int64


def _eliminate(stack: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward elimination of a (B, R, C) stack of residue matrices, in place.

    Fraction-free: a row below the pivot becomes pv * row - f * pivot_row
    with pv the pivot and f the row's entry in the pivot column.  Scaling
    a row by the nonzero pv keeps the row space, so no inverse is needed,
    and the swaps and pivot columns are those of elimination with
    normalized pivots.  The stack holds residues in [0, q) of
    ``kernel_dtype(q)``.  Returns the ranks (B,) and the pivot columns
    (B, min(R, C)), -1 past each rank.
    """
    assert stack.dtype == kernel_dtype(q), "the stack must hold residues of the kernel dtype"
    count, rows, cols = stack.shape
    ranks = np.zeros(count, dtype=np.int64)
    pivots = np.full((count, min(rows, cols)), -1, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(cols):
        # the first row at or below each matrix's rank that is nonzero in column c
        cand = (stack[:, :, c] != 0) & (row_ids >= ranks[:, None])
        hit = np.nonzero(cand.any(axis=1))[0]
        if not hit.size:
            continue
        top = ranks[hit]
        piv = cand[hit].argmax(axis=1)
        # swap the pivot row up to the rank; rows at or below the rank are
        # zero left of column c, and the pivot row is written back last
        pivot_rows = stack[hit, piv, c:]
        stack[hit, piv, c:] = stack[hit, top, c:]
        lo = int(top.min())
        # a view of the stack when every matrix has a pivot here, else a copy
        block = stack[slice(None) if hit.size == count else hit, lo:, c:]
        below = (row_ids[lo:] > top[:, None])[:, :, None]
        f = np.where(below, block[:, :, :1], 0)
        block *= np.where(below, pivot_rows[:, None, :1], 1)
        scratch = f * pivot_rows[:, None, :]
        block -= scratch
        # block -= block // q * q is block %= q; numpy divides by a scalar
        # far faster than it takes remainders, and one scratch buffer keeps
        # the update to two stack-sized temporaries
        np.floor_divide(block, q, out=scratch)
        scratch *= q
        block -= scratch
        if hit.size < count:
            stack[hit, lo:, c:] = block
        stack[hit, top, c:] = pivot_rows
        pivots[hit, top] = c
        ranks[hit] += 1
        if (ranks == rows).all():
            break
    return ranks, pivots


def _residues(matrix, q: int) -> np.ndarray:
    """A new array of ``matrix`` mod q, in ``kernel_dtype(q)``."""
    return (np.asarray(matrix, dtype=np.int64) % q).astype(kernel_dtype(q), copy=False)


def echelon_mod(matrix, q: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of an integer matrix over F_q, with its pivot columns.

    Forward elimination only (the one-matrix case of :func:`ranks_mod`):
    pivot rows are not normalized and entries above a pivot are left
    alone.  Rows below the rank come out zero.
    """
    m = _residues(matrix, q)
    ranks, pivots = _eliminate(m[None], q)
    return m, pivots[0, : ranks[0]].tolist()


def rank_mod(matrix, q: int) -> int:
    """Rank of an integer matrix over F_q (a lower bound for the Q-rank)."""
    return len(echelon_mod(matrix, q)[1])


def ranks_mod(stack, q: int) -> np.ndarray:
    """Ranks over F_q of a (B, R, C) stack of equally shaped integer matrices.

    One elimination runs over the whole stack, one column at a time, so
    the Python-level cost is paid per column rather than per matrix.  A
    stack that already holds residues in [0, q) of ``kernel_dtype(q)``,
    as the conditions banks do, is eliminated in place; any other input
    is first reduced into a new array.
    """
    stack = np.asarray(stack)
    reduced = stack.dtype == kernel_dtype(q) and (
        not stack.size or (stack.min() >= 0 and stack.max() < q)
    )
    return _eliminate(stack if reduced else _residues(stack, q), q)[0]


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


__all__ = ["AffineSolutionSet", "echelon_mod", "kernel_dtype", "rank_mod", "ranks_mod", "solve_mod"]
