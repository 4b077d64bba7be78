"""Independent brute-force oracles used by the test suite.

Everything here is written from the definitions with plain loops, Fractions,
and quadrature, and deliberately shares no code with the library under test.
The exceptions are the last three sections: helpers that only tests call, built
on the library's private pieces; adapters that feed row-wise weight matrices
to the bootstrap engine, so tests can compare its draws with these oracles
weight row by weight row, plus the running-sum KS reduction that the engine's
max-prefix tree must match bit for bit; and a frozen copy of the CSV parser
that read every file into one list of rows, which the streaming
``domtest.cli.parse_csv`` must match byte for byte and error for error.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from domtest import Pairing, TwoSampleData, empirical_odc, variance_profile
from domtest.bootstrap import _wmw_sums
from domtest.limitdist import _pinned_walk
from domtest.odc import _as_sample, _check_int, _quantile_rank
from domtest.simulate import _gaussian_copula

# ---------------------------------------------------------------------------
# plain and weighted empirical distributions


def ecdf_brute(sample, x):
    return sum(1 for s in sample if s <= x) / len(sample)


def row_counts(categories, n):
    """Per-row counts of a matrix of category draws in ``range(n)``."""
    return np.array([np.bincount(row, minlength=n) for row in categories], dtype=np.int64)


def weighted_ecdf_brute(values, weights, x):
    return sum(w for v, w in zip(values, weights) if v <= x) / len(values)


def weighted_quantile_brute(values, weights, target):
    """Smallest value whose cumulative weight reaches ``target`` (an integer)."""
    pairs = sorted(zip(values, weights))
    cum = 0
    for v, w in pairs:
        cum += w
        if cum >= target:
            return v
    raise AssertionError("total weight below target")


def odc_brute(x1, x2):
    return [ecdf_brute(x1, v) for v in sorted(x2)]


def bootstrap_odc_brute(x1, x2, w1, w2):
    n2 = len(x2)
    out = []
    for i in range(1, n2 + 1):
        q = weighted_quantile_brute(x2, w2, i)
        out.append(weighted_ecdf_brute(x1, w1, q))
    return out


def area_excess_brute(counts, n1, n2):
    """Triangle excess of the ODC area over the WMW sum, as the integer
    numerator over ``2*n1^2*n2^2``, cell by cell in Python ints."""
    extra_num = 0
    for i in range(1, n2 + 1):
        lhs = int(counts[i - 1]) * n2
        if lhs <= (i - 1) * n1:
            continue
        if lhs >= i * n1:
            extra_num += n1 * n1
        else:
            gap = lhs - (i - 1) * n1
            extra_num += gap * gap
    return extra_num


def ks_excess_brute(x1, x2):
    """Largest ``n2*#(x1 <= x) - n1*#(x2 <= x)`` over the pooled points."""
    n1, n2 = len(x1), len(x2)
    return max(
        n2 * sum(1 for a in x1 if a <= x) - n1 * sum(1 for b in x2 if b <= x)
        for x in list(x1) + list(x2)
    )


def ks_recentered_brute(x1, x2, w1, w2):
    """Largest recentered bootstrap KS numerator over the pooled points,
    clipped at 0: ``n2*(#w1(x1 <= x) - #(x1 <= x)) - n1*(#w2(x2 <= x) - #(x2 <= x))``
    with ``#w`` counting resampled copies under the weights ``w``."""
    n1, n2 = len(x1), len(x2)
    best = 0
    for x in list(x1) + list(x2):
        cum1 = sum(int(w) for a, w in zip(x1, w1) if a <= x)
        cum2 = sum(int(w) for b, w in zip(x2, w2) if b <= x)
        cnt1 = sum(1 for a in x1 if a <= x)
        cnt2 = sum(1 for b in x2 if b <= x)
        best = max(best, n2 * (cum1 - cnt1) - n1 * (cum2 - cnt2))
    return best


# ---------------------------------------------------------------------------
# bootstrap statistics from the definitions


def vhat_brute(x1, x2, matched):
    n2 = len(x2)
    if not matched:
        return [i / n2 - i**2 / n2**2 for i in range(1, n2 + 1)]
    n = n2
    u = [ecdf_brute(x1, v) for v in x1]
    v = [ecdf_brute(x2, w) for w in x2]
    out = []
    for i in range(1, n + 1):
        level = i / n
        joint = sum(1 for a, b in zip(u, v) if a <= level and b <= level) / n
        out.append(i / n - joint)
    return out


def bootstrap_stat_brute(x1, x2, w1, w2, tau, matched):
    n1, n2 = len(x1), len(x2)
    sqrt_tn = math.sqrt(n1 * n2 / (n1 + n2))
    rhat = odc_brute(x1, x2)
    rstar = bootstrap_odc_brute(x1, x2, w1, w2)
    vhat = vhat_brute(x1, x2, matched)
    total = 0.0
    for i in range(1, n2 + 1):
        term = max(rstar[i - 1] - rhat[i - 1], 0.0)
        if math.isfinite(tau):
            if not (sqrt_tn * (rhat[i - 1] - i / n2) >= -tau * math.sqrt(vhat[i - 1])):
                term = 0.0
        total += term
    return sqrt_tn / n2 * total


def odc_counts_reference(x1, x2, w1, w2):
    """Bootstrap ODC numerators from count matrices, one row per weight row.

    The count-matrix reduction: running totals of ``w1`` over sorted x1,
    read at each sorted x2 value, then each sorted x2 value's total repeated
    by its own weight, which lists the totals at the resampled x2 in order.
    """
    x1, x2 = np.asarray(x1), np.asarray(x2)
    w1, w2 = np.asarray(w1, dtype=np.int64), np.asarray(w2, dtype=np.int64)
    perm1 = np.argsort(x1, kind="stable")
    perm2 = np.argsort(x2, kind="stable")
    m = np.searchsorted(x1[perm1], x2[perm2], side="right")
    cum1 = np.zeros((w1.shape[0], x1.size + 1), dtype=np.int64)
    cum1[:, 1:] = np.cumsum(w1[:, perm1], axis=1)
    h = cum1[:, m]
    return np.repeat(h.ravel(), w2[:, perm2].ravel()).reshape(w2.shape), m


def wmw_draws_reference(x1, x2, w1, w2, keep):
    """WMW bootstrap draws from count matrices: clipped recentered ODC
    numerators, summed over the kept columns (all when ``keep`` is None)."""
    n1, n2 = len(x1), len(x2)
    rstar, m = odc_counts_reference(x1, x2, w1, w2)
    excess = np.maximum(rstar - m, 0)
    if keep is not None:
        excess = excess[:, keep]
    return excess.sum(axis=1) * (math.sqrt(n1 * n2 / (n1 + n2)) / (n1 * n2))


# ---------------------------------------------------------------------------
# exhaustive enumeration of the multinomial bootstrap (small n only)


def compositions(total, parts):
    """All nonnegative integer vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def multinomial_prob(counts) -> Fraction:
    n = sum(counts)
    p = Fraction(math.factorial(n), n**n)
    for c in counts:
        p /= math.factorial(c)
    return p


def enumerate_bootstrap(x1, x2, tau, matched):
    """Exact conditional distribution of the bootstrap statistic.

    Returns a list of ``(weights, probability, value)`` triples covering the
    full multinomial support, where ``weights`` is the ``(w1, w2)`` pair and
    probabilities are exact Fractions summing to one. Only feasible for tiny
    samples.
    """
    n1, n2 = len(x1), len(x2)
    if n1 > 4 or n2 > 4:
        raise ValueError("enumeration oracle supports n1, n2 <= 4 only")
    outcomes = []
    if matched:
        if n1 != n2:
            raise ValueError("matched enumeration needs n1 == n2")
        for w in compositions(n1, n1):
            value = bootstrap_stat_brute(x1, x2, w, w, tau, matched=True)
            outcomes.append(((w, w), multinomial_prob(w), value))
    else:
        support1 = list(compositions(n1, n1))
        support2 = list(compositions(n2, n2))
        prob1 = [multinomial_prob(w) for w in support1]
        prob2 = [multinomial_prob(w) for w in support2]
        for w1, p1 in zip(support1, prob1):
            for w2, p2 in zip(support2, prob2):
                value = bootstrap_stat_brute(x1, x2, w1, w2, tau, matched=False)
                outcomes.append(((w1, w2), p1 * p2, value))
    return outcomes


def exact_critical_value(outcomes, alpha):
    """Smallest support value whose cumulative probability reaches 1 - alpha."""
    target = 1 - Fraction(alpha)
    cum = Fraction(0)
    for _, prob, value in sorted(outcomes, key=lambda item: item[2]):
        cum += prob
        if cum >= target:
            return value
    raise AssertionError("probabilities sum below the target")


def exact_point_mass(outcomes, value, tol=1e-12):
    """Exact probability that the enumerated statistic equals ``value``."""
    total = Fraction(0)
    for _, prob, v in outcomes:
        if abs(v - value) <= tol:
            total += prob
    return total


def quantile_gap(outcomes, alpha):
    """Distance from 1 - alpha to the nearest cumulative atom boundary.

    A comfortably positive gap means a large sampled quantile almost surely
    coincides with the exact one.
    """
    target = 1 - Fraction(alpha)
    totals = {}
    for _, prob, value in outcomes:
        totals[value] = totals.get(value, Fraction(0)) + prob
    cum = Fraction(0)
    best = None
    for value in sorted(totals):
        cum += totals[value]
        gap = abs(cum - target)
        if best is None or gap < best:
            best = gap
    return float(best)


# ---------------------------------------------------------------------------
# quadrature cross-checks


def quadrature_area(odc_values, n1, n2, grid):
    """Midpoint-rule estimate of the scaled area above the diagonal."""
    if grid < 1000:
        raise ValueError("use at least 1000 quadrature cells")
    sqrt_tn = math.sqrt(n1 * n2 / (n1 + n2))
    total = 0.0
    for j in range(1, grid + 1):
        u = (j - 0.5) / grid
        idx = math.ceil(u * n2) - 1
        total += max(odc_values[idx] - u, 0.0)
    return sqrt_tn * total / grid


def normal_cdf_ref(x):
    """Standard normal CDF by adaptive quadrature of the density."""
    val, _ = quad(lambda s: math.exp(-0.5 * s * s), 0.0, x, limit=200)
    return 0.5 + val / math.sqrt(2.0 * math.pi)


def normal_quantile_ref(p):
    return brentq(lambda x: normal_cdf_ref(x) - p, -12.0, 12.0, xtol=1e-12)


def _phi_density(s):
    return math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)


def _phi_erfc(t):
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def bvn_diag_ref(u, rho):
    """Gaussian-copula value C(u, u) by one-dimensional numeric integration."""
    z = normal_quantile_ref(u)
    if rho == 0.0:
        return normal_cdf_ref(z) ** 2
    scale = math.sqrt(1.0 - rho * rho)
    val, _ = quad(
        lambda s: _phi_density(s) * _phi_erfc((z - rho * s) / scale),
        -40.0,
        z,
        limit=400,
    )
    return val


# ---------------------------------------------------------------------------
# Brownian bridge functional


def bridge_functional_reference(num_paths, grid_size, seed, chunk_paths=2048):
    """Positive-part bridge integrals from whole-chunk matrices.

    Each chunk of ``chunk_paths`` paths draws its ``(rows, grid_size)``
    normals at once from its own child of ``SeedSequence(seed)``, builds the
    walk with a fresh ``cumsum``, pins it by ``W(u) - u*W(1)`` and sums the
    positive part by the rectangle rule.
    """
    children = np.random.SeedSequence(seed).spawn(-(-num_paths // chunk_paths))
    u = np.arange(1, grid_size + 1, dtype=np.float64) / grid_size
    out = []
    for c, child in enumerate(children):
        rows = min(chunk_paths, num_paths - c * chunk_paths)
        steps = np.random.default_rng(child).standard_normal((rows, grid_size))
        walk = np.cumsum(steps * math.sqrt(1.0 / grid_size), axis=1)
        bridge = walk - u[np.newaxis, :] * walk[:, -1:]
        out.append(np.maximum(bridge, 0.0).sum(axis=1) / grid_size)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# test-only helpers on the library's private pieces


def empirical_quantile(sample, u: float) -> float:
    """Empirical quantile ``inf{x : ecdf(x) >= u}`` for ``u`` in (0, 1].

    Returns the k-th order statistic for the smallest k with ``k/n >= u``.
    """
    arr = _as_sample(sample, "sample")
    if not (0.0 < u <= 1.0):
        raise ValueError(f"quantile level must lie in (0, 1], got {u}")
    k = _quantile_rank(arr.size, u)
    return float(np.partition(arr, k - 1)[k - 1])


def gaussian_copula_pair(rho: float, rng: np.random.Generator) -> tuple[float, float]:
    """One draw from the Gaussian copula: two uniforms with normal dependence."""
    if not (-1.0 < rho < 1.0):
        raise ValueError(f"need |rho| < 1, got {rho}")
    u, v = _gaussian_copula(rho, 1, rng)
    return float(u[0]), float(v[0])


def bridge_paths(rng: np.random.Generator, num_paths: int, grid_size: int) -> np.ndarray:
    """Brownian bridge paths on ``j/grid_size``, j = 0..grid_size, pinned to zero at both ends."""
    _check_int("num_paths", num_paths, 0)
    _check_int("grid_size", grid_size, 1)
    walk = np.empty((num_paths, grid_size), dtype=np.float64)
    _pinned_walk(rng, walk, np.empty_like(walk), np.arange(1, grid_size + 1) / grid_size)
    return np.hstack((np.zeros((num_paths, 1)), walk))


# ---------------------------------------------------------------------------
# engine adapters: a ``_Prepared`` engine driven by row-wise weight matrices


def categories_of(w):
    """Category draws with row-wise counts ``w``, in category order; each row
    of ``w`` must sum to its length. Their ``_column_counts`` are ``w.T``."""
    rows, n = w.shape
    return np.repeat(np.tile(np.arange(n), rows), w.ravel()).reshape(rows, n)


def kept_columns(data, tau):
    """Grid columns that the contact-set screen keeps at ``tau``, from the
    public ODC and variance profile; None keeps every column (tau = inf)."""
    if math.isinf(tau):
        return None
    odc, v = empirical_odc(data), variance_profile(data).v
    scaled = math.sqrt(data.n1 * data.n2 / (data.n1 + data.n2)) * (odc.values - odc.grid)
    return np.flatnonzero(scaled >= -tau * np.sqrt(v))


def wmw_draws(prep, w1, w2, keep):
    """WMW draws of the engine ``prep`` from row-wise weights ``w1`` and ``w2``,
    summed over the grid columns ``keep`` (all when None): a column recentered
    at n1 instead of its numerator clips to 0."""
    center = prep.m
    if keep is not None:
        center = np.full_like(prep.m, prep.n1)
        center[keep] = prep.m[keep]
    head = prep.wmw_head(prep.g1[categories_of(w1)])
    excess = prep.odc_tail(head, np.sort(prep.rank2[categories_of(w2)]))
    return _wmw_sums(excess - center, prep.n1, prep.n2)


def ks_draws(prep, w1, w2):
    """KS draws of the engine ``prep`` from row-wise weights ``w1`` and ``w2``;
    matched pairs read ``w1`` alone. The engine takes one column per row."""
    matched = prep.data.pairing is Pairing.MATCHED
    return prep.ks_shared(w1.T, (w1 if matched else w2).T)


def ks_cumsum_reference(prep, w1, w2):
    """KS draws from row-wise weights by one running sum along each row: the
    engine's reduction before its max-prefix tree.

    The recentered numerator ``n2*(cum1 - cnt1) - n1*(cum2 - cnt2)`` at each
    pooled point is a running sum of ``coef*(w[src] - 1)`` over both sorted
    samples merged into one order (tied x2 before tied x1), read where each
    group of tied values ends, in ``prep.ks_dtype``, clipped at 0 and scaled.
    """
    n1, n2 = prep.n1, prep.n2
    matched = prep.data.pairing is Pairing.MATCHED
    w = w1 if matched else np.concatenate((w1, w2), axis=1)
    below = np.cumsum(np.bincount(prep.cnt2[:n1], minlength=n2 + 1)[:n2])
    pos1 = np.arange(n1) + prep.cnt2[:n1]
    pos2 = np.arange(n2) + below
    src = np.empty(n1 + n2, dtype=np.intp)
    src[pos1] = prep.perm1
    src[pos2] = prep.perm2 if matched else prep.perm2 + n1
    coef = np.empty(n1 + n2, dtype=np.int64)
    coef[pos1], coef[pos2] = n2, -n1
    base = np.cumsum(coef).astype(prep.ks_dtype)
    ends = np.flatnonzero(np.bincount(prep.cnt1 + prep.cnt2)) - 1
    diff = np.cumsum(np.take(w, src, axis=1) * coef, axis=1, dtype=prep.ks_dtype)
    diff -= base
    best = np.maximum(diff[:, ends].max(axis=1), 0)
    return best * (math.sqrt(n1 * n2 / (n1 + n2)) / (n1 * n2))


# ---------------------------------------------------------------------------
# the row-list CSV parser, frozen


def _is_number_reference(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _float_cell_reference(text: str, line_no: int, column: str = "") -> float:
    try:
        return float(text)
    except ValueError:
        what = f"{column} value".lstrip()
        raise ValueError(f"line {line_no}: cannot parse {what} {text!r}") from None


def parse_csv_reference(source, paired: bool = False) -> TwoSampleData:
    """``domtest.cli.parse_csv`` as it was when it read every row into one
    list before converting: the same samples, or the same ValueError text."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return parse_csv_reference(fh, paired=paired)
    reader = csv.reader(source)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    start = 1 if rows and not any(map(_is_number_reference, rows[0])) else 0
    try:
        x1, x2 = _bulk_columns_reference(rows[start:], paired)
    except ValueError:
        x1, x2 = _row_columns_reference(rows, start, paired)
    pairing = Pairing.MATCHED if paired else Pairing.INDEPENDENT
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


def _bulk_columns_reference(body: list, paired: bool):
    if set(map(len, body)) != {2}:
        raise ValueError("not two cells per row")
    first, second = zip(*body)
    values = np.fromiter(map(float, second), np.float64)
    if paired:
        return np.fromiter(map(float, first), np.float64), values
    if not set(first) <= {"1", "2"}:
        raise ValueError("a group other than 1 or 2")
    in1 = np.array(first) == "1"
    if in1.all() or not in1.any():
        raise ValueError("an empty sample")
    return values[in1], values[~in1]


def _row_columns_reference(rows: list, start: int, paired: bool):
    layout = "x1,x2" if paired else "group,value"
    x1: list[float] = []
    x2: list[float] = []
    for idx in range(start, len(rows)):
        row = [cell.strip() for cell in rows[idx]]
        if not any(row):
            continue
        line_no = idx + 1
        if len(row) != 2 or not all(row):
            raise ValueError(f"line {line_no}: expected two cells {layout}")
        if paired:
            x1.append(_float_cell_reference(row[0], line_no, "x1"))
            x2.append(_float_cell_reference(row[1], line_no, "x2"))
        else:
            group = row[0]
            if group not in ("1", "2"):
                raise ValueError(f"line {line_no}: group must be 1 or 2, got {group!r}")
            value = _float_cell_reference(row[1], line_no)
            (x1 if group == "1" else x2).append(value)
    if not x1 or not x2:
        raise ValueError("each sample needs at least one observation")
    return np.array(x1), np.array(x2)
