"""Building data for abelian covers branched over an arrangement.

The covering group is (Z/p)^r for a prime p.  A label map assigns a
nonzero group element to every strict transform and every exceptional
divisor; divisibility fixes the labels of the last line and of the
exceptional divisors from the first n-1 line labels, injectivity asks
that all labels be distinct points of P^{r-1}(F_p), and spanning that
they generate the group.  Each character chi then determines a divisor
class, the twist datum driving all downstream cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np

from .arrangement import IncidenceTable
from .modp import AffineSolutionSet, echelon_mod, solve_mod
from .picard import DivisorClass

Vector = tuple[int, ...]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def pairing_lift(chi: Vector, g: Vector, p: int) -> int:
    """The character pairing lifted to the integer range 0..p-1."""
    return sum(c * x for c, x in zip(chi, g)) % p


def all_characters(p: int, r: int) -> list[Vector]:
    """All p^r characters in lexicographic order."""
    return [tuple(c) for c in product(range(p), repeat=r)]


@dataclass(frozen=True)
class LabelMap:
    """Labels for the strict transforms and exceptional divisors."""

    p: int
    r: int
    line_labels: tuple[Vector, ...]
    point_labels: tuple[Vector, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"group order base {self.p} must be prime")
        for lab in (*self.line_labels, *self.point_labels):
            if len(lab) != self.r or any(not 0 <= x < self.p for x in lab):
                raise ValueError(f"label {lab} is not a reduced vector of length {self.r}")

    @property
    def all_labels(self) -> tuple[Vector, ...]:
        return self.line_labels + self.point_labels


def projective_label(lab: Vector, p: int) -> Vector | None:
    """Canonical representative in P^{r-1}(F_p), or None for the zero label."""
    for x in lab:
        if x:
            inv = pow(x, p - 2, p)
            return tuple((inv * y) % p for y in lab)
    return None


def class_keys(labels: np.ndarray, p: int) -> np.ndarray:
    """Integer key of each label's class in P^{r-1}(F_p), over the last axis.

    ``labels`` holds reduced entries.  The key scales a label so that its
    first nonzero entry is 1 and reads it in base p, so two labels have
    equal keys exactly when they are proportional; the zero label has
    key -1.
    """
    r = labels.shape[-1]
    flat = labels.reshape(-1, r)
    # first nonzero entry; the first entry, 0, for the zero label
    lead = flat[np.arange(flat.shape[0]), np.argmax(flat != 0, axis=1)]
    inv_table = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    keys = (flat * inv_table[lead][:, None]) % p @ (p ** np.arange(r - 1, -1, -1, dtype=np.int64))
    keys[lead == 0] = -1
    return keys.reshape(labels.shape[:-1])


def distinct_nonzero(keys: np.ndarray) -> np.ndarray:
    """Per row of class keys: no zero label and no two labels in one class.

    An empty row has neither.  The sorted rows are compared as one flat
    run, keeping the neighbours within a row, which is faster than a
    comparison reduced row by row.
    """
    width = keys.shape[-1]
    rows = np.sort(keys, axis=-1).reshape(prod(keys.shape[:-1]), width)
    ok = (rows[:, :1] >= 0).all(axis=1)
    run = rows.ravel()
    repeat = np.flatnonzero(run[1:] == run[:-1])
    ok[repeat[(repeat + 1) % width != 0] // width] = False
    return ok.reshape(keys.shape[:-1])


def complete_labels(partial, table: IncidenceTable, p: int, r: int) -> LabelMap:
    """Extend labels on all lines but the last to a divisible label map.

    The last line label is minus the sum of the others; each exceptional
    label is the sum of the labels of the lines through its point.  The
    divisibility condition then holds by construction (and is re-checked
    by :func:`validate_labels`).  Completed labels may come out zero;
    such maps simply fail the injectivity validation.
    """
    n = len(table.arrangement.lines)
    partial = [tuple(int(x) % p for x in lab) for lab in partial]
    if len(partial) != n - 1:
        raise ValueError(f"expected {n - 1} line labels, got {len(partial)}")
    if any(all(x == 0 for x in lab) for lab in partial):
        raise ValueError("prescribed line labels must be nonzero")
    last = tuple((-sum(col)) % p for col in zip(*partial))
    return label_map((*partial, last), table, p, r)


def label_map(line_labels, table: IncidenceTable, p: int, r: int) -> LabelMap:
    """The label map of the given line labels, with each exceptional label
    the sum of the labels of the lines through its point.

    Nothing forces divisibility: line labels that do not sum to zero fail
    it in :func:`validate_labels`, which names the unit characters.
    """
    line_labels = tuple(tuple(lab) for lab in line_labels)
    point_labels = tuple(
        tuple(sum(col) % p for col in zip(*(line_labels[i] for i in through)))
        for through in table.lines_through
    )
    return LabelMap(p, r, line_labels, point_labels)


@dataclass(frozen=True)
class ValidationReport:
    divisibility: bool
    injectivity: bool
    spanning: bool
    smoothness: bool
    distinct_projective_labels: int
    projective_space_size: int
    details: dict

    @property
    def all_ok(self) -> bool:
        return self.divisibility and self.injectivity and self.spanning and self.smoothness

    def to_jsonable(self) -> dict:
        """The four verdicts and two counts, as the reports show them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}


def validate_labels(labels: LabelMap, table: IncidenceTable) -> ValidationReport:
    """Check divisibility, injectivity, spanning, and cover smoothness.

    Divisibility asks, for every character, that the labelled sum of
    divisor classes be divisible by p coordinatewise in the blowup
    lattice.  Mod p each coordinate is linear in the character, so the r
    unit characters decide it, and a failure names each unit character
    whose H or E coefficient is not divisible.  Smoothness needs the
    branch divisor to have normal crossings (automatic once every point
    on >= 3 lines is blown up: verified) and independent labels wherever
    two branch components meet: at a double point of the arrangement,
    or where a strict transform crosses an exceptional divisor.
    """
    p, r = labels.p, labels.r
    n = len(table.arrangement.lines)
    m = table.num_points
    details: dict = {}

    line_arr = np.array(labels.line_labels, dtype=np.int64)
    point_arr = np.array(labels.point_labels, dtype=np.int64).reshape(m, r)
    inc = table.incidence

    # row j: the H and E coefficients mod p for the j-th unit character
    h_coeff = line_arr.sum(axis=0)
    e_coeff = point_arr - inc @ line_arr
    bad = np.nonzero((h_coeff % p != 0) | (e_coeff % p != 0).any(axis=0))[0]
    divisibility = not bad.size
    if not divisibility:
        details["divisibility_failures"] = [tuple(int(j == k) for k in range(r)) for j in bad]

    all_arr = np.concatenate([line_arr, point_arr])
    keys = class_keys(all_arr, p)
    zero_labels = int((keys < 0).sum())
    distinct = len(set(keys.tolist()) - {-1})
    injectivity = zero_labels == 0 and distinct == len(keys)
    if not injectivity:
        details["zero_labels"] = zero_labels
        details["duplicate_projective_classes"] = len(keys) - zero_labels - distinct

    _, pivots = echelon_mod(all_arr, p)
    spanning = len(pivots) == r

    snc = all(mu >= 3 for mu in table.mu)
    # two lines share no singular point exactly when they meet at a double point
    dp_i, dp_j = np.nonzero(np.triu(inc.T @ inc == 0, k=1))
    e_nu, e_i = np.nonzero(inc)
    pair_keys = np.stack(
        [np.concatenate([keys[dp_i], keys[n + e_nu]]), np.concatenate([keys[dp_j], keys[e_i]])],
        axis=1,
    )
    dependent = np.nonzero(~distinct_nonzero(pair_keys))[0]
    if dependent.size:
        crossings = [(int(i), int(j)) for i, j in zip(dp_i, dp_j)]
        crossings += [(("E", int(nu)), int(i)) for nu, i in zip(e_nu, e_i)]
        details["dependent_label_pairs"] = [crossings[k] for k in dependent]
    smoothness = snc and not dependent.size

    return ValidationReport(
        divisibility=divisibility,
        injectivity=injectivity,
        spanning=spanning,
        smoothness=smoothness,
        distinct_projective_labels=distinct,
        projective_space_size=(p**r - 1) // (p - 1),
        details=details,
    )


def chi_class(labels: LabelMap, table: IncidenceTable, chi: Vector) -> DivisorClass:
    """Divisor class attached to a character.

    The coefficient of H is the p-th of the summed line pairings (an
    integer precisely because of divisibility); each exceptional
    coefficient is minus the floor of the p-th of the pairings over the
    incident lines, hence never positive.
    """
    p = labels.p
    line_pairings = [pairing_lift(chi, lab, p) for lab in labels.line_labels]
    total = sum(line_pairings)
    if total % p:
        raise ArithmeticError(
            f"divisibility violated for chi={chi}: line pairing sum {total}"
        )
    e = tuple(
        -(sum(line_pairings[i] for i in through) // p)
        for through in table.lines_through
    )
    return DivisorClass(total // p, e)


# ---------------------------------------------------------------------------
# seeded random search


MAX_SEARCH_ATTEMPTS = 1_000_000

# Labels drawn per call by random_label_search.  A (Z/7)^5 search on the
# bundled table reads about 80 labels, a (Z/7)^4 search about 130,000.
LABEL_CHUNK = 1_024

# Attempts drawn per block by empirical_acceptance.  On 2 cores (Python
# 3.11.7, numpy 2.4.6), 50,000 attempts in (Z/7)^4 took a median 181 ms
# with blocks of 1,000, 165 ms with 2,000, 152 ms with 5,000 and 150 ms
# with 10,000 (in process, 9 alternating calls each); in fresh processes
# after the search benchmark's label searches, 2,000 and 5,000 took 146
# and 136 ms (8 alternating processes each, spreads 124-171 and
# 117-162 ms).  The tracemalloc peak of 100,000 attempts grows with the
# block: 0.7 MiB at 1,000, 1.4 at 2,000, 3.4 at 5,000, 6.7 at 10,000.
ACCEPTANCE_BLOCK = 2_000


@dataclass(frozen=True)
class SearchResult:
    labels: LabelMap
    attempts: int
    accepted: bool


def _require_classes(count: int, p: int, r: int) -> None:
    """Refuse a draw of ``count`` labels in distinct classes that P^{r-1}(F_p) cannot hold."""
    classes = (p**r - 1) // (p - 1)
    if count > classes:
        raise ValueError(
            f"{count} labels in distinct projective classes are needed, "
            f"but P^{r - 1}(F_{p}) has only {classes} classes"
        )


def _require_span(n: int, m: int, p: int, r: int) -> None:
    """Refuse a search whose n + m labels cannot span (Z/p)^r.

    Every label is a sum of the n - 1 drawn line labels (the last line's
    is minus their sum, each point's the sum of the lines through it), so
    the labels span at most n - 1 dimensions.
    """
    if n - 1 < r:
        raise ValueError(
            f"the {n + m} labels of {n} lines and {m} points are sums of "
            f"{n - 1} drawn ones, which cannot span (Z/{p})^{r}"
        )


def _completion_matrix(table: IncidenceTable) -> np.ndarray:
    """Coefficients of the completed labels on the n - 1 drawn line labels.

    Row k of the (n + m) x (n - 1) integer matrix gives the k-th label of
    the completed map (the lines, then the points): the drawn lines are
    the unit rows, the last line is minus their sum, and each point is
    the sum of the rows of the lines through it.
    """
    n = len(table.arrangement.lines)
    lines = np.concatenate([np.eye(n - 1, dtype=np.int64), -np.ones((1, n - 1), dtype=np.int64)])
    return np.concatenate([lines, table.incidence @ lines])


def _require_free_completion(table: IncidenceTable, completion: np.ndarray, p: int) -> None:
    """Refuse a search whose completion forces a zero label or two proportional ones.

    A zero row of the ``completion`` matrix mod p makes that label zero,
    and two proportional rows put two labels in one class, whatever is
    drawn.  Each row is scaled so that its first nonzero entry is 1 and
    the rows are compared by one lexsort, as base-p keys of rows this
    long overflow int64.  The first row that is zero or repeats an
    earlier one is named.
    """
    rows = completion % p
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows = rows * np.array([pow(int(x), -1, p) if x else 0 for x in lead.tolist()])[:, None] % p
    order = np.lexsort(rows.T[::-1])
    # first[k]: the first row equal to row k (lexsort is stable)
    starts = np.concatenate([[True], (rows[order[1:]] != rows[order[:-1]]).any(axis=1)])
    first = np.empty_like(order)
    first[order] = order[starts][np.cumsum(starts) - 1]
    bad = np.flatnonzero((lead == 0) | (first != np.arange(len(rows))))
    if not bad.size:
        return
    slots = [*(f"line {l}" for l in table.arrangement.lines), *(f"point {q}" for q in table.points)]
    k = bad[0]
    if lead[k] == 0:
        raise ValueError(f"the completed label of {slots[k]} is zero mod {p} for every draw")
    raise ValueError(
        f"the completed labels of {slots[first[k]]} and {slots[k]} "
        f"are proportional mod {p} for every draw"
    )


# The key table holds one int32 per vector of (Z/p)^r: at most 64 MB.
MAX_KEY_TABLE = 2**24


def _require_key_table(p: int, r: int) -> None:
    """Refuse a class-key table over more than ``MAX_KEY_TABLE`` vectors."""
    if p**r > MAX_KEY_TABLE:
        raise ValueError(
            f"p^r = {p}^{r} = {p**r} vectors exceed the class-key table cap "
            f"2^24 = {MAX_KEY_TABLE}"
        )


def _distinct_projective_draws(rng: np.random.Generator, count: int, p: int, r: int):
    """Yield, attempt after attempt, ``count`` nonzero labels in distinct classes.

    An attempt reads the labels of the stream in order and keeps a label
    unless it is zero or in the class of one it already keeps; the next
    attempt starts after the last label read.  The stream is drawn
    ``LABEL_CHUNK`` labels at a time, and bounded draws of one generator
    do not depend on how they are split into calls, so the labels are
    those of one ``rng.integers(0, p, size=r)`` per label.
    """
    labels = np.empty((0, r), dtype=np.int64)
    keys = np.empty(0, dtype=np.int64)
    start = 0
    while True:
        # prev[i]: the last position before i of a label in the class of i, or -1
        order = np.argsort(keys, kind="stable")
        same = keys[order[1:]] == keys[order[:-1]]
        prev = np.full(keys.size, -1)
        prev[order[1:][same]] = order[:-1][same]
        while True:
            kept = np.flatnonzero((keys[start:] >= 0) & (prev[start:] < start))
            if kept.size < count:
                break
            yield labels[start + kept[:count]]
            start += int(kept[count - 1]) + 1
        more = rng.integers(0, p, size=(LABEL_CHUNK, r))
        labels = np.concatenate([labels[start:], more])
        keys = np.concatenate([keys[start:], class_keys(more, p)])
        start = 0


def random_label_search(table: IncidenceTable, p: int, r: int, seed: int) -> SearchResult:
    """Draw line labels until the completed map passes validation.

    Injectivity of the completed labels is the expensive filter and is
    checked first, on one product with the completion matrix; a label
    map is built and fully validated only for candidates that survive
    it.  Deterministic for a given seed; the attempt count is reported
    so acceptance rates can be compared with the birthday estimate.
    Raises ValueError when the n line and m point labels outnumber the
    classes of P^{r-1}(F_p), so no map can be injective, when they
    cannot span (Z/p)^r, or when the completion forces a label to be
    zero or two labels into one class.
    """
    n = len(table.arrangement.lines)
    _require_classes(n + table.num_points, p, r)
    _require_span(n, table.num_points, p, r)
    completion = _completion_matrix(table)
    _require_free_completion(table, completion, p)
    draws = _distinct_projective_draws(np.random.default_rng(seed), n - 1, p, r)
    for attempt, drawn in zip(range(1, MAX_SEARCH_ATTEMPTS + 1), draws):
        completed = completion @ drawn % p
        if not distinct_nonzero(class_keys(completed, p)):
            continue
        rows = [tuple(lab) for lab in completed.tolist()]
        labels = LabelMap(p, r, tuple(rows[:n]), tuple(rows[n:]))
        if validate_labels(labels, table).all_ok:
            return SearchResult(labels, attempt, True)
    raise RuntimeError(f"no valid label map found in {MAX_SEARCH_ATTEMPTS} attempts")


def acceptance_estimate(n: int, m: int, p: int, r: int) -> Fraction:
    """Birthday-style success estimate for the random search.

    The n-1 drawn labels are distinct by construction; the n-th and the
    m exceptional labels are modelled as uniform draws that must all
    land on fresh projective classes.
    """
    size = (p**r - 1) // (p - 1)
    prob = Fraction(1)
    for k in range(n - 1, n + m):
        prob *= Fraction(size - k, size)
    return prob


def _floor_divmod(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Floor quotient and remainder by p of float32 integers below 2^24 in size.

    Both are exact: the rounding error of x / p, at most 2^-24 |x| / p,
    is below 1/p, the least distance from a fraction x / p to an
    integer, so the floor is the integer quotient q, and q p and x - q p
    are integers float32 holds.
    """
    quotient = x / p
    np.floor(quotient, out=quotient)
    remainder = quotient * p
    np.subtract(x, remainder, out=remainder)
    return quotient, remainder


def _base_p(digits: np.ndarray, p: int) -> np.ndarray:
    """Each label over axis 1 of float32 digits read as an int32 number in base p."""
    index = digits[:, 0]
    for j in range(1, digits.shape[1]):
        index = index * p + digits[:, j]
    return index.astype(np.int32)


def empirical_acceptance(
    table: IncidenceTable, p: int, r: int, seed: int, attempts: int
) -> tuple[int, int]:
    """Vectorized acceptance counting over many seeded attempts.

    An attempt draws n-1 projectively distinct line labels (in bulk:
    uniform draws filtered for distinctness), completes them, and
    succeeds when all completed labels are nonzero and pairwise distinct
    in P^{r-1}(F_p).  Returns (successes, attempts).

    Each label is drawn as one uniform index into the p^r vectors of
    (Z/p)^r, read in base p, so a label costs one random number, not r;
    the distribution is that of r uniform coordinates.  The index reads
    the label's key from a table of the :func:`class_keys` of all p^r
    vectors, built once per call, and only the attempts whose drawn keys
    are distinct are split into digits.

    The draws stream in blocks of ``ACCEPTANCE_BLOCK`` attempts, so the
    memory held does not grow with ``attempts``.  The count does not
    depend on the block size: consecutive draws from one generator
    concatenate to the stream of a single large draw, and the distinct
    draws are taken in stream order until ``attempts`` of them are
    counted.

    Rejection is staged, as almost every attempt fails: the drawn keys
    are checked first, then the keys of the last line and the points in
    three groups, and each stage keeps only the rows still free of a
    zero label and a repeated class.  An attempt passes every stage
    exactly when all its labels are distinct, so the count is that of
    checking all labels at once.  A stage's labels are float32 products
    of each attempt's digits with columns of the completion matrix, one
    stacked matmul; one product over the whole block is large enough
    for OpenBLAS to thread it, which took about 30 times as long on 2
    shared cores.  float32 is exact here: every sum is at most
    (n - 1) (p - 1) in absolute value, which is below p^r, as n - 1
    labels in distinct classes number at most (p^r - 1) / (p - 1), and
    p^r is at most the 2^24 of the key table, below which float32 holds
    every integer (:func:`_floor_divmod` reduces them mod p).

    Raises ValueError when the n - 1 drawn labels outnumber the classes,
    so no draw is distinct, and, before allocating anything, when p^r
    exceeds ``MAX_KEY_TABLE``.
    """
    n = len(table.arrangement.lines)
    _require_classes(n - 1, p, r)
    _require_key_table(p, r)
    powers = p ** np.arange(r - 1, -1, -1, dtype=np.int32)
    key_of = class_keys(np.arange(p**r)[:, None] // powers % p, p).astype(np.int32)
    # the coefficients of the last line and the points, in three groups
    completion = _completion_matrix(table)[n - 1:].T.astype(np.float32)
    stages = np.array_split(completion, 3, axis=1)
    rng = np.random.default_rng(seed)
    # one buffer for the drawn keys: a fresh array per block is large
    # enough to be mapped and faulted in again each time
    drawn_keys = np.empty((ACCEPTANCE_BLOCK, n - 1), dtype=np.int32)
    successes = 0
    done = 0
    while done < attempts:
        draws = rng.integers(0, p**r, size=(ACCEPTANCE_BLOCK, n - 1), dtype=np.int32)
        keys = np.take(key_of, draws, out=drawn_keys)
        kept = np.flatnonzero(distinct_nonzero(keys))[: attempts - done]
        done += kept.size
        keys = keys[kept]
        # digits[k, j] holds digit j, in base p, of each label drawn in attempt k
        rest = draws[kept].astype(np.float32)
        digits = np.empty((kept.size, r, n - 1), dtype=np.float32)
        for j in range(r - 1, -1, -1):
            rest, digits[:, j] = _floor_divmod(rest, p)
        for coeffs in stages:
            labels = _floor_divmod(digits @ coeffs, p)[1]
            keys = np.concatenate([keys, key_of[_base_p(labels, p)]], axis=1)
            alive = distinct_nonzero(keys)
            digits, keys = digits[alive], keys[alive]
        successes += keys.shape[0]
    return successes, attempts


# ---------------------------------------------------------------------------
# the critical character systems at a triple point


def critical_chi_solutions(line_labels, p: int) -> list[AffineSolutionSet | None]:
    """Characters vanishing on two of three labels and hitting p-1 on one.

    For each choice of distinguished label (the one paired to p-1),
    solves the 3xr system over F_p; entry k of the result is the
    solution set with label k distinguished, or None if inconsistent.
    """
    if len(line_labels) != 3:
        raise ValueError("exactly three line labels required")
    if not is_prime(p):
        raise ValueError("p must be prime")
    out = []
    for k in range(3):
        rhs = [0, 0, 0]
        rhs[k] = p - 1
        out.append(solve_mod(line_labels, rhs, p))
    return out


__all__ = [
    "AffineSolutionSet",
    "LabelMap",
    "SearchResult",
    "ValidationReport",
    "acceptance_estimate",
    "all_characters",
    "chi_class",
    "class_keys",
    "complete_labels",
    "critical_chi_solutions",
    "distinct_nonzero",
    "empirical_acceptance",
    "is_prime",
    "label_map",
    "pairing_lift",
    "projective_label",
    "random_label_search",
    "validate_labels",
]
