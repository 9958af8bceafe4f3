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

# Rows (attempts) drawn per block by empirical_acceptance; its buffers
# grow with the block.  On 2 shared cores (Python 3.11.7, numpy 2.4.6),
# 50,000 attempts in (Z/7)^4 took a median 92, 85, 80, 75 and 79 ms with
# blocks of 500, 700, 1,000, 2,000 and 5,000 (in process, 11 alternating
# calls each; 70 ms for 700 and 1,000 alike in a faster phase), with
# tracemalloc peaks of 1.0, 1.3, 1.8, 3.4 and 8.3 MiB, the same at
# 100,000 attempts.  Blocks of 1,000 raised the peak RSS of a search
# benchmark repetition from 39.5 to 40.0 MB.
ACCEPTANCE_BLOCK = 700

# empirical_acceptance reads rows wide enough that fewer than this share
# of them hold too few distinct classes
ROW_SKIP = 0.01

# empirical_acceptance refuses to count when an attempt reads more labels
# than this on average: 33 labels in the 400 classes of P^3(F_7) read
# about 34, but n - 1 labels in n - 1 classes read about C ln C
MAX_ATTEMPT_LABELS = 256

# Entries of a stage decode table with two digits per word, at most.
MAX_DECODE_TABLE = 2**17


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


# Tables over the vectors of (Z/p)^r, built once per acceptance count, and
# a label drawn from 24 random bits: p^r is at most 2^24.
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


def _hit_rate(p: int, per: int) -> float:
    """Probability that one drawn label is in a given class: p - 1 labels
    of ``per`` numbers each, out of 2^24."""
    return (p - 1) * per / 2**24


def _mean_labels(count: int, p: int, r: int, per: int) -> float:
    """Mean number of labels read until ``count`` lie in distinct classes.

    With k classes held, a label brings a new one with probability
    (C - k) times the hit rate, C the number of classes.
    """
    classes = (p**r - 1) // (p - 1)
    return sum(1 / ((classes - k) * _hit_rate(p, per)) for k in range(count))


def _skip_probabilities(count: int, p: int, r: int, per: int):
    """Yield, for rows of 1, 2, ... labels, the probability of fewer than
    ``count`` distinct classes in the row.

    An occupancy DP over the labels of a row: ``held[k]`` is the
    probability that the labels read so far bring k distinct classes
    (``count`` standing for ``count`` or more).
    """
    classes = (p**r - 1) // (p - 1)
    fresh = np.array([(classes - k) * _hit_rate(p, per) for k in range(count)] + [0.0])
    held = np.zeros(count + 1)
    held[0] = 1.0
    while True:
        moved = held * fresh
        held -= moved
        held[1:] += moved[:-1]
        yield 1 - held[count]


def _row_width(count: int, p: int, r: int, per: int) -> tuple[int, float]:
    """The least row width whose skip probability is below ``ROW_SKIP``,
    and that probability."""
    for width, skip in enumerate(_skip_probabilities(count, p, r, per), start=1):
        if width >= count and skip < ROW_SKIP:
            return width, skip


def _label_tables(p: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The labels by class and scalar, and the class of every label.

    Row c (p - 1) + a of the first table, for a < p - 1, is (a + 1) times
    the representative of class c, the classes ordered by their
    representatives read in base p with the first nonzero digit 1; the
    last row, p^r - 1, is the zero label.  Entry v of the second is the
    class of the label read as v in base p, -1 for zero.
    """
    size = p**r
    digits = np.arange(size)[:, None] // p ** np.arange(r - 1, -1, -1) % p
    keys = class_keys(digits, p)
    reps = np.flatnonzero(keys == np.arange(size))
    class_of = np.where(keys >= 0, np.searchsorted(reps, keys), -1)
    labels = digits[reps][:, None, :] * np.arange(1, p)[:, None] % p
    labels = np.concatenate([labels.reshape(-1, r), np.zeros((1, r), dtype=digits.dtype)])
    dtype = np.int16 if len(reps) < 2**15 else np.int32
    return labels, class_of.astype(dtype)


def _stage_tables(completion: np.ndarray, labels: np.ndarray, p: int):
    """Coefficient, word and decode tables of the packed stage sums.

    Every completed label but the drawn ones is a sum of the drawn labels
    over a subset, or minus one, and negating a column changes no class,
    so the columns are taken with 0/1 coefficients.  The r base-p digits
    of a label are packed g to a float32 word, in base beta, beta above
    every column's digit sum, so a column's sum of words carries nothing
    from one digit to the next.  ``words[k, t]`` is word k of row t of
    ``labels``, the first word holding the leading digits (with zeros in
    front to fill it); ``decode[s]`` is the base-p value of the g digits
    of a word sum s, each reduced mod p.  g is 2 when the decode table
    has at most ``MAX_DECODE_TABLE`` entries, else 1.
    """
    r = labels.shape[1]
    coeffs = completion * np.where(completion.sum(axis=0) < 0, -1, 1)
    assert (coeffs >= 0).all(), "a completion column mixes signs"
    beta = int(coeffs.sum(axis=0).max(initial=0)) * (p - 1) + 1
    g = 2 if beta**2 <= MAX_DECODE_TABLE else 1
    count = -(-r // g)
    # word sums stay below beta^g <= 2^24, where float32 sums are exact
    assert beta**g <= 2**24
    digits = np.concatenate([np.zeros((len(labels), count * g - r), dtype=labels.dtype), labels], axis=1)
    words = digits.reshape(len(labels), count, g) @ beta ** np.arange(g - 1, -1, -1)
    # built digit by digit in the table's own dtype, as int64 columns of
    # beta^g sums would fault in several hundred fresh pages per call
    digit = (np.arange(beta) % p).astype(np.int16 if p**r <= 2**15 else np.int32)
    decode = digit
    for _ in range(g - 1):
        decode = np.add.outer(decode * digit.dtype.type(p), digit).ravel()
    return coeffs.astype(np.float32), np.ascontiguousarray(words.T, np.float32), decode, g


def _stage_sums(words: np.ndarray, coeffs: np.ndarray, out: np.ndarray) -> None:
    """``words @ coeffs`` into ``out``, in products OpenBLAS runs on one thread.

    OpenBLAS threads a product of more than 2^18 multiply-adds (65,536
    times its default ``GEMM_MULTITHREAD_THRESHOLD`` of 4).  A threaded
    product waits for the second thread: a 1,000 x 33 by 33 x 18 product
    took 6-16 ms in place of 20 us whenever the other core was busy, on
    one run in 15 of the ``search`` workload on 2 shared cores.  Each call
    here stays at or below 2^18.
    """
    step = max(1, 2**18 // max(1, coeffs.size))
    for s in range(0, len(words), step):
        np.matmul(words[s:s + step], coeffs, out=out[s:s + step])


def empirical_acceptance(
    table: IncidenceTable, p: int, r: int, seed: int, attempts: int
) -> tuple[int, int]:
    """Vectorized acceptance counting over many seeded attempts.

    An attempt reads one row of ``width`` labels from the generator,
    keeps the first n-1 that are nonzero and in classes of P^{r-1}(F_p)
    not kept before, in row order, completes them, and succeeds when all
    completed labels are nonzero and pairwise distinct in P^{r-1}(F_p).
    A row holding fewer than n-1 classes is skipped and not counted.
    Returns (successes, attempts).

    The kept labels are uniform over ordered (n-1)-tuples of labels in
    distinct classes, as when whole rows of n-1 labels are drawn until
    one is distinct: the rule reads only which labels are zero and which
    share a class, so their law is invariant under permuting the classes
    and rescaling each one, and these act transitively on such tuples.
    The width is the least whose exact skip probability, from an
    occupancy DP (:func:`_skip_probabilities`), is below ``ROW_SKIP``: on
    the bundled table in (Z/7)^4, rows of 38 labels skip 0.46%, where
    drawing rows of 33 until one was distinct kept only 25% of them.

    Each label is one float32 draw u, read as the 24-bit number 2^24 u:
    t = 2^24 u // (2^24 // p^r) takes each value below p^r - 1 with the
    same probability, and t names label t, the (t mod (p - 1) + 1)-th
    multiple of the representative of class t // (p - 1); larger t, the
    zero label and the remainder of 2^24, are skipped.  Rows are
    consecutive draws of one generator, whose float32 draws concatenate
    across calls, so the count does not depend on ``ACCEPTANCE_BLOCK``,
    the rows drawn per block.

    Each row is sorted once by [class | position | label] and once by
    [repeated | position | label], which lists its kept labels first in
    row order.  The last line and the points are completed in three
    stages of columns, and each stage keeps only the rows still free of
    a zero label and a repeated class (:func:`distinct_nonzero`), so an
    attempt passes every stage exactly when all its labels are distinct.
    A stage's labels are float32 products of packed digit words with 0/1
    columns, decoded by table (:func:`_stage_tables`); every sum is an
    integer below 2^24, so the products are exact.  The draw's and the
    stages' arrays are allocated once per call.

    Raises ValueError when the n-1 drawn labels outnumber the classes,
    when p^r exceeds ``MAX_KEY_TABLE``, both before allocating anything,
    and when an attempt needs more than ``MAX_ATTEMPT_LABELS`` labels on
    average, as it does when n-1 is close to the number of classes.
    """
    n = len(table.arrangement.lines)
    count = n - 1
    _require_classes(count, p, r)
    _require_key_table(p, r)
    size = p**r
    per = 2**24 // size
    mean = _mean_labels(count, p, r, per)
    if mean > MAX_ATTEMPT_LABELS:
        raise ValueError(
            f"an attempt reads {mean:.0f} labels on average to find {count} in distinct "
            f"classes of P^{r - 1}(F_{p}), above the cap {MAX_ATTEMPT_LABELS}"
        )
    width, _ = _row_width(count, p, r, per)
    classes = (size - 1) // (p - 1)
    labels, class_of = _label_tables(p, r)
    coeffs, words, decode, per_word = _stage_tables(_completion_matrix(table)[n - 1:].T, labels, p)
    stages = np.array_split(coeffs, 3, axis=1)
    word_count = len(words)

    # sort keys [C - class | position | label row]: the zero label and
    # void draws (t >= p^r - 1, clipped to it) sort first, as class C
    label_bits = (size - 1).bit_length()
    low = (width - 1).bit_length() + label_bits
    key_dtype = np.int32 if classes + 1 << low < 2**31 else np.int64
    positions = (np.arange(width) << label_bits).astype(key_dtype)
    cols = coeffs.shape[1]
    block = ACCEPTANCE_BLOCK
    # the per-block arrays, allocated once per call, so that no block maps
    # or faults in memory of its own; a stage's arrays are cut from flat
    # ones as wide as the widest stage
    uniform = np.empty((block, width), dtype=np.float32)
    order = np.empty((block, width), dtype=key_dtype)
    flags = np.empty((block, width), dtype=key_dtype)
    repeat = np.empty((block, width), dtype=bool)
    drawn = np.empty((block, count), dtype=np.intp)
    keys = np.empty((block, count + cols), dtype=class_of.dtype)
    stacked = np.empty((word_count, block, count), dtype=np.float32)
    flat = block * max(part.shape[1] for part in stages)
    sums = np.empty(flat, dtype=np.float32)
    wide = np.empty(flat, dtype=np.intp)
    parts = np.empty(flat, dtype=decode.dtype)
    label = np.empty(flat, dtype=decode.dtype)
    new = np.empty(flat, dtype=class_of.dtype)
    rng = np.random.default_rng(seed)
    successes = 0
    done = 0
    while done < attempts:
        rng.random(out=uniform, dtype=np.float32)
        np.multiply(uniform, 2**24, out=uniform)
        np.copyto(order, uniform, casting="unsafe")
        np.floor_divide(order, per, out=order)
        np.minimum(order, size - 1, out=order)
        np.floor_divide(order, p - 1, out=flags)
        np.subtract(classes, flags, out=flags)
        flags <<= low
        order |= flags
        order |= positions
        order.sort(axis=1)
        # a label is kept when it is the first of its class, and not zero
        np.right_shift(order, low, out=flags)
        np.equal(flags.ravel()[1:], flags.ravel()[:-1], out=repeat.ravel()[1:])
        np.equal(flags[:, 0], 0, out=repeat[:, 0])
        # kept labels first, each part in position order
        order &= (1 << low) - 1
        np.left_shift(repeat, low, out=flags, dtype=key_dtype)
        order |= flags
        order.sort(axis=1)
        alive = order[:, count - 1] < 1 << low
        rows = np.flatnonzero(alive)[: attempts - done]
        # rows after the last attempt still to count are dropped
        alive[rows[-1] + 1 if rows.size else 0:] = False
        done += rows.size
        np.bitwise_and(order[:, :count], (1 << label_bits) - 1, out=drawn)
        np.floor_divide(drawn, p - 1, out=keys[:, :count], casting="unsafe")
        for k in range(word_count):
            np.take(words[k], drawn, out=stacked[k], mode="clip")
        live = block
        held = count
        for part in stages:
            if not live:
                break
            c = part.shape[1]
            out = sums[: live * c].reshape(live, c)
            at = wide[: live * c].reshape(live, c)
            digits = parts[: live * c].reshape(live, c)
            vector = label[: live * c].reshape(live, c)
            # the label's base-p value, word after word
            vector[...] = 0
            for k in range(word_count):
                _stage_sums(stacked[k, :live], part, out)
                np.copyto(at, out, casting="unsafe")
                np.take(decode, at, out=digits, mode="clip")
                vector *= p**per_word
                vector += digits
            np.copyto(at, vector)
            ids = new[: live * c].reshape(live, c)
            np.take(class_of, at, out=ids, mode="clip")
            keys[:live, held:held + c] = ids
            held += c
            alive &= distinct_nonzero(keys[:live, :held])
            rows = np.flatnonzero(alive)
            live = rows.size
            keys[:live, :held] = keys[rows, :held]
            stacked[:, :live] = stacked[:, rows]
            alive = np.ones(live, dtype=bool)
        successes += live
    return successes, attempts


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
