import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from rigidsurf.cohomology import RANK_PRIME
from rigidsurf.modp import echelon_mod, kernel_dtype, rank_mod, ranks_mod, solve_mod

# 7 and RANK_PRIME run the int32 kernel, the prime just below 2^31 the int64 one
PRIMES = (7, RANK_PRIME, 2_147_483_587)
INT32_LARGEST = 46_337  # the largest prime q with (q - 1)^2 < 2^31
INT64_SMALLEST = 46_349  # the next prime


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


def _draw_matrix(draw, entry, rows, cols):
    cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.int64).reshape(rows, cols)


@st.composite
def stacks(draw):
    """(stack, q): B equally shaped matrices of mixed kinds and ranks.

    Each matrix is random (small or wide entries), a product of two
    random factors (rank at most the inner size), zero, or has repeated
    rows or a zero column, so one stack mixes ranks and missing pivots.
    """
    q = draw(st.sampled_from(PRIMES))
    count = draw(st.integers(1, 6))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    small = st.integers(-3, 3)
    out = []
    for _ in range(count):
        kind = draw(
            st.sampled_from(["small", "wide", "product", "zero", "repeated", "zero_column"])
        )
        entry = st.integers(-(2**40), 2**40) if kind == "wide" else small
        mat = _draw_matrix(draw, entry, rows, cols)
        if kind == "product":
            inner = draw(st.integers(0, 3))
            mat = _draw_matrix(draw, small, rows, inner) @ _draw_matrix(draw, small, inner, cols)
        elif kind == "zero":
            mat[:] = 0
        elif kind == "repeated" and rows > 1:
            mat[1:] = mat[draw(st.integers(0, rows - 1))]
        elif kind == "zero_column" and cols:
            mat[:, draw(st.integers(0, cols - 1))] = 0
        out.append(mat)
    return np.stack(out), q


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_ranks_mod_matches_sympy_per_matrix(case):
    stack, q = case
    oracle = [_oracle_rank(mat.tolist(), q) for mat in stack]
    # a reduced stack of the kernel dtype (int64 for the largest prime)
    # is eliminated in place, so the per-matrix ranks below need a copy
    ranks = ranks_mod(stack.copy(), q)
    assert ranks.shape == (stack.shape[0],)
    assert ranks.tolist() == oracle
    assert [rank_mod(mat, q) for mat in stack] == oracle


@st.composite
def padded_stacks(draw):
    """(matrices, stack, q): matrices of mixed row counts, zero-padded to one R."""
    q = draw(st.sampled_from(PRIMES))
    cols = draw(st.integers(0, 6))
    entry = st.integers(-3, 3) if draw(st.booleans()) else st.integers(-(2**40), 2**40)
    mats = [
        _draw_matrix(draw, entry, draw(st.integers(0, 6)), cols)
        for _ in range(draw(st.integers(1, 5)))
    ]
    stack = np.zeros((len(mats), max(len(m) for m in mats), cols), dtype=np.int64)
    for slot, mat in zip(stack, mats):
        slot[: len(mat)] = mat
    return mats, stack, q


@settings(max_examples=80, deadline=None)
@given(padded_stacks())
def test_ranks_mod_on_zero_padded_stacks(case):
    # zero rows leave each rank alone, so one padded stack ranks matrices
    # whose true row counts differ
    mats, stack, q = case
    assert ranks_mod(stack, q).tolist() == [_oracle_rank(m.tolist(), q) for m in mats]


def test_ranks_mod_mixes_ranks_in_one_stack():
    # GF(7): the middle matrix loses both pivots in column 0, the last is zero
    stack = np.array(
        [
            [[1, 2, 3], [0, 1, 4], [2, 0, 1]],
            [[0, 3, 1], [0, 6, 2], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[7, 14, 21], [1, 1, 1], [2, 2, 9]],
        ],
        dtype=np.int64,
    )
    assert ranks_mod(stack, 7).tolist() == [3, 1, 0, 1]
    assert ranks_mod(stack[:1], 7).tolist() == [3]
    assert ranks_mod(np.zeros((2, 0, 4), dtype=np.int64), 7).tolist() == [0, 0]
    assert ranks_mod(np.zeros((0, 3, 3), dtype=np.int64), 7).tolist() == []


@pytest.mark.parametrize("q", PRIMES)
def test_ranks_mod_column_with_a_pivot_none_and_a_last_row_pivot(q):
    # in column 0 the first matrix pivots, the second has no pivot and
    # must be scaled by one, not by its zero entry, and the third's only
    # nonzero row is its last
    stack = np.array(
        [
            [[2, 1, 3], [4, 5, 6], [1, 0, 2]],
            [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
            [[0, 1, 1], [0, 2, 2], [5, 1, 3]],
        ],
        dtype=kernel_dtype(q),
    )
    oracle = [_oracle_rank(mat.tolist(), q) for mat in stack]
    assert [rank_mod(mat, q) for mat in stack] == oracle
    assert ranks_mod(stack, q).tolist() == oracle
    assert not stack.any()


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
    with pytest.raises(AssertionError):
        ranks_mod(np.ones((1, 1, 1), dtype=np.int64), 2**31 + 11)


def test_kernel_dtype_follows_the_product_bound():
    assert RANK_PRIME == INT32_LARGEST
    for q in (2, 7, 46_337):
        assert kernel_dtype(q) == np.int32
    for q in (46_349, 1_000_003, 2_147_483_587):
        assert kernel_dtype(q) == np.int64
    with pytest.raises(AssertionError):
        kernel_dtype(2**31 + 11)


@st.composite
def extreme_stacks(draw):
    """(stack, q): entries in {0, 1, q - 2, q - 1} at either side of the int32 bound.

    Products of residues near q - 1 come closest to (q - 1)^2, the bound
    the int32 kernel relies on.
    """
    q = draw(st.sampled_from((INT32_LARGEST, INT64_SMALLEST)))
    count = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    entry = st.sampled_from((0, 1, q - 2, q - 1))
    return np.stack([_draw_matrix(draw, entry, rows, cols) for _ in range(count)]), q


@settings(max_examples=200, deadline=None)
@given(extreme_stacks())
def test_ranks_mod_exact_at_the_extreme_residues(case):
    # an update that wrapped around would leave the row space, which
    # the rank of the input stacked on its echelon form would show
    stack, q = case
    oracle = [_oracle_rank(mat.tolist(), q) for mat in stack]
    for mat, rank in zip(stack, oracle):
        ech, pivots = echelon_mod(mat, q)
        assert len(pivots) == rank
        assert _oracle_rank(mat.tolist() + ech.tolist(), q) == rank
    assert ranks_mod(stack.copy(), q).tolist() == oracle
    assert ranks_mod(stack.astype(kernel_dtype(q)), q).tolist() == oracle


@pytest.mark.parametrize("q, dtype", [(INT32_LARGEST, np.int32), (INT64_SMALLEST, np.int64)])
def test_all_largest_residues_against_sympy(q, dtype):
    full = np.full((6, 6), q - 1, dtype=np.int64)
    # q - 1 on the diagonal, q - 2 elsewhere: nonsingular, and every
    # elimination step multiplies residues near q - 1
    mixed = np.full((6, 6), q - 2, dtype=np.int64)
    np.fill_diagonal(mixed, q - 1)
    for mat in (full, mixed):
        ech, pivots = echelon_mod(mat, q)
        assert ech.dtype == dtype
        assert ech.min() >= 0 and ech.max() < q
        assert len(pivots) == rank_mod(mat, q) == _oracle_rank(mat.tolist(), q)
        assert _oracle_rank(mat.tolist() + ech.tolist(), q) == len(pivots)
    assert rank_mod(full, q) == 1 and rank_mod(mixed, q) == 6
    assert ranks_mod(np.stack([full, mixed]), q).tolist() == [1, 6]


def test_ranks_mod_reduces_unreduced_input_of_the_kernel_dtype():
    # negative or too large int32 entries must be reduced before the
    # elimination, and the caller's array stays as it was
    q = INT32_LARGEST
    stack = np.array([[[-1, 1], [1, -1]], [[q, 1], [2 * q, q + 5]]], dtype=np.int32)
    before = stack.copy()
    assert ranks_mod(stack, q).tolist() == [1, 1]
    assert (stack == before).all()


def test_ranks_mod_eliminates_reduced_stacks_in_place():
    # a stack of residues of the kernel dtype, as the conditions banks
    # give, reaches the elimination without a reduced copy: every pivot
    # row zeroes itself, so the caller's array comes back all zero
    q = INT32_LARGEST
    stack = np.array([[[0, 2, 1], [3, 1, 4], [3, 3, 5]]], dtype=np.int32)
    assert ranks_mod(stack, q).tolist() == [2]
    assert not stack.any()
