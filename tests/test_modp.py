import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from rigidsurf.cohomology import RANK_PRIMES
from rigidsurf.modp import echelon_mod, rank_mod, solve_mod

PRIMES = (7, RANK_PRIMES[0])


def _oracle_rank(rows, q) -> int:
    if not rows or not rows[0]:
        return 0
    return DomainMatrix.from_list(rows, ZZ).convert_to(GF(q)).rank()


@st.composite
def systems(draw):
    """(rows, rhs, q): small entries so that low ranks and inconsistency occur."""
    q = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3) if draw(st.booleans()) else st.integers(-(2**40), 2**40)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs, q


@settings(max_examples=200, deadline=None)
@given(systems())
def test_rank_mod_matches_sympy(system):
    rows, _, q = system
    assert rank_mod(np.array(rows, dtype=np.int64), q) == _oracle_rank(rows, q)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_echelon_mod_pivots_and_zero_tail(system):
    rows, _, q = system
    ech, pivots = echelon_mod(rows, q)
    rank = len(pivots)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert ech[i, c] != 0 and not ech[i + 1:, c].any() and not ech[i, :c].any()
    assert not ech[rank:].any()
    assert _oracle_rank(ech.tolist(), q) == rank


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_mod_against_ranks(system):
    rows, rhs, q = system
    n = len(rows[0])
    sol = solve_mod(rows, rhs, q)
    rank_a = _oracle_rank(rows, q)
    rank_ab = _oracle_rank([row + [b] for row, b in zip(rows, rhs)], q)
    assert (sol is None) == (rank_a < rank_ab)
    if sol is None:
        return
    a = [[x % q for x in row] for row in rows]
    for i, row in enumerate(a):
        assert sum(x * y for x, y in zip(row, sol.particular)) % q == rhs[i] % q
        for v in sol.basis:
            assert sum(x * y for x, y in zip(row, v)) % q == 0
    assert len(sol.basis) == n - rank_a
    assert _oracle_rank([list(v) for v in sol.basis], q) == len(sol.basis)


def test_solve_mod_enumerates_every_solution():
    rows = [[1, 2, 3, 4], [2, 5, 6, 1]]
    rhs = [5, 3]
    sol = solve_mod(rows, rhs, 7)
    brute = {
        (a, b, c, d)
        for a in range(7) for b in range(7) for c in range(7) for d in range(7)
        if all((r[0] * a + r[1] * b + r[2] * c + r[3] * d - t) % 7 == 0 for r, t in zip(rows, rhs))
    }
    assert sol.count(7) == len(brute) == 49
    assert set(sol.enumerate(7)) == brute


def test_echelon_mod_rejects_wide_modulus():
    with pytest.raises(AssertionError):
        echelon_mod([[1]], 2**31 + 11)
