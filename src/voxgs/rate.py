"""Laplace rate proxy: interval probabilities, bit estimates, alpha calibration.

The proxy models each integer stream with a Laplace distribution whose
location is the sample mean and whose scale is derived from the sample
standard deviation by moment matching (b = sigma / sqrt(2)). Estimated bits
are the cross-entropy of the quantized values under the integer-interval
probabilities; the actual run-length coder is expected to track this up to
a proportionality constant alpha.

Quantized streams hold few distinct integers (a 51,200-symbol sandbox feature
group holds about 48), so for an integer-dtype stream estimate_bits and
nll_bits_and_grads evaluate the Laplace kernel once per value of min..max and
gather the results back to the symbols whenever that table is shorter than
the stream. Each per-symbol value is the one direct evaluation gives, bit for
bit, and every sum still runs over the full per-symbol array in stream order,
so totals keep their bits too. Wide integer streams and every float stream
are evaluated directly, in pieces of _BLOCK symbols. Both functions share
one evaluator, _per_symbol, that makes this choice.

Given counts, each value's multiplicity, fit_laplace and estimate_bits weight
their sums by them instead of repeating the values, which moves only the last
bits. analyze_container counts run-length tokens with _value_counts and prices
a group's channels at once with channel_bits, that weighted fit by channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorrelationUndefinedError
from .model import _as_2d
from .rlc import rlc_encode

# Floor on interval probabilities: caps any symbol at 40 estimated bits.
PROB_FLOOR = 2.0**-40
# Scale floor for degenerate constant streams.
B_MIN = 1e-3
# Symbols per direct kernel call: bounds its temporaries at 512 KiB each.
_BLOCK = 1 << 16

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LaplaceModel:
    """Location/scale pair fitted to an integer stream."""

    mu: float
    b: float
    sigma: float

    def __post_init__(self):
        _check_laplace(self.mu, self.b)


def _check_laplace(mu, b):
    """ValueError unless the location mu is finite and the scale b positive and finite."""
    if not (math.isfinite(mu) and 0 < b < math.inf):
        raise ValueError("Laplace location must be finite and scale positive and finite")


def _multiplicities(counts, values) -> np.ndarray:
    """counts as int64; ValueError unless it has values' shape and non-negative integers."""
    if np.shape(counts) != np.shape(values):
        raise ValueError(f"counts must have the shape of values {np.shape(values)}")
    weights = _as_2d(counts, np.int64, 1, "counts", flat=True)[:, 0]
    if weights.size and weights.min() < 0:
        raise ValueError("counts must be non-negative")
    return weights


def fit_laplace(values, counts=None) -> LaplaceModel:
    """Fit mu and sigma by moments (population variance) and derive b = sigma/sqrt(2)."""
    arr = np.asarray(values).ravel()
    weights = None if counts is None else _multiplicities(counts, values)
    total = arr.size if weights is None else int(weights.sum())
    if total == 0:
        raise ValueError("cannot fit a Laplace model to an empty sequence")
    # Integers whose sums stay below 2**53 sum exactly in any order: no float64 copy needed.
    if arr.dtype.kind not in "iu" or max(-int(arr.min()), int(arr.max())) * total >= 2**53:
        arr = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("fit_laplace requires finite input")
    if weights is None:
        mu, sigma = float(arr.mean()), float(arr.std())
    else:
        mu = float((weights * arr).sum() / total)
        sigma = math.sqrt(float((weights * np.square(arr - mu)).sum()) / total)
    b = max(sigma / _SQRT2, B_MIN)
    return LaplaceModel(mu=mu, b=b, sigma=sigma)


def _laplace_terms(x: np.ndarray, mu: float, b: float):
    """CDF(x+0.5) - CDF(x-0.5), branch-free and cancellation-free: (q, u1, u2, e1, e2).

    u1, u2 = x - mu -/+ 0.5 are the interval ends and e = exp(-|u|/b). If mu is
    inside (u1 < 0 < u2), q is one minus both tails; else the nearer tail times 1 - exp(-1/b).
    """
    u1 = x - mu - 0.5
    u2 = x - mu + 0.5
    e1 = np.exp(-np.abs(u1) / b)
    e2 = np.exp(-np.abs(u2) / b)
    span = -np.expm1(-1.0 / b)  # 1 - exp(-1/b)
    mid = (u1 < 0) & (u2 > 0)
    q = np.where(mid, 1.0 - 0.5 * e2 - 0.5 * e1, 0.5 * np.maximum(e1, e2) * span)
    return q, u1, u2, e1, e2


def interval_prob(model: LaplaceModel, x, floor: bool = True):
    """Probability mass of the unit interval centered on integer x.

    With floor=True (default) the result is clamped below at PROB_FLOOR.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 0
    q = _laplace_terms(np.atleast_1d(arr), model.mu, model.b)[0]
    if floor:
        np.maximum(q, PROB_FLOOR, out=q)
    return float(q[0]) if single else q


def nll_bits(model: LaplaceModel, x) -> np.ndarray:
    """Per-symbol -log2 interval probability, floored; ValueError for a non-finite x."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.isfinite(arr).all():
        raise ValueError("nll_bits requires finite input")
    return -np.log2(interval_prob(model, arr))


def _symbol_table(x: np.ndarray):
    """(table, index) with table = min + arange(max - min + 1) and table[index] == x.

    None unless x has an integer dtype that fits int64 and max - min < x.size,
    so the table is never longer than the stream. Float streams, including
    integer-valued ones, are evaluated directly.
    """
    if x.size == 0 or x.dtype.kind not in "iu" or not np.can_cast(x.dtype, np.int64):
        return None
    lo, hi = int(x.min()), int(x.max())
    if hi - lo >= x.size:
        return None
    return (lo + np.arange(hi - lo + 1)).astype(np.float64), np.subtract(x, lo, dtype=np.intp)


def _per_symbol(kernel, x, rows: int) -> np.ndarray:
    """(rows, x.size) float64: the rows kernel returns, at every symbol of the flattened x.

    kernel maps a float64 array to rows arrays of its shape. It runs once on
    the symbol table when x has one, else on _BLOCK-sized pieces of x. Each
    row is a contiguous per-symbol array, so its sums have the bits of one
    direct pass over the whole stream.
    """
    arr = np.asarray(x).ravel()
    found = _symbol_table(arr)
    if found is not None:
        table, index = found
        return np.take(np.stack(kernel(table)), index, axis=1)
    out = np.empty((rows, arr.size))
    for i in range(0, arr.size, _BLOCK):
        out[:, i : i + _BLOCK] = kernel(np.asarray(arr[i : i + _BLOCK], dtype=np.float64))
    return out


def _nll_terms(x: np.ndarray, mu: float, b: float):
    """(f, df/dx, df/dmu, df/db) of every element of the float64 array x."""
    q, u1, u2, e1, e2 = _laplace_terms(x, mu, b)
    dq_dx = e2 / (2.0 * b) - e1 / (2.0 * b)
    dq_db = -(u2 * e2 - u1 * e1) / (2.0 * b * b)

    floored = q <= PROB_FLOOR
    qc = np.maximum(q, PROB_FLOOR)
    f = -np.log2(qc)
    scale = np.where(floored, 0.0, -1.0 / (qc * _LOG2))
    df_dx = scale * dq_dx
    df_dmu = -df_dx
    df_db = scale * dq_db
    return f, df_dx, df_dmu, df_db


def nll_bits_and_grads(x, mu: float, b: float):
    """Value and exact partials of f(x) = -log2 q(x; mu, b).

    Returns (f, df/dx, df/dmu, df/db) as float64 arrays. Where the
    probability floor binds, all gradients are zero (clamp subgradient).
    mu and b are checked as LaplaceModel checks them; x is not.
    """
    _check_laplace(mu, b)
    return tuple(_per_symbol(lambda v: _nll_terms(v, mu, b), x, 4))


def estimate_bits(model: LaplaceModel, values, counts=None) -> float:
    """Total cross-entropy bits of an integer sequence under the model."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu" and not np.all(np.isfinite(values)):
        raise ValueError("estimate_bits requires finite input")
    # The values are checked above, so the kernel skips nll_bits' check of each table or block.
    bits = _per_symbol(lambda v: (-np.log2(interval_prob(model, v)),), values, 1)[0]
    return float((bits if counts is None else _multiplicities(counts, values) * bits).sum())


def _value_counts(values, weights, lengths):
    """(channels, distinct, counts) int64 rows: each channel's distinct values, summed weights.

    Channel c holds the lengths[c] values and weights after channel c - 1's. Rows come
    channel-major, values ascending; a zero sum drops its row. One table keyed
    channel * width + value - lo counts every channel, by _symbol_table's rule or np.unique.
    """
    lo = int(values.min())
    width = int(values.max()) - lo + 1
    keys = values + np.repeat(np.arange(len(lengths)) * width - lo, lengths)
    found = _symbol_table(keys)
    table, index = np.unique(keys, return_inverse=True) if found is None else found
    counts = np.bincount(index, weights, len(table))
    kept = np.flatnonzero(counts)
    channels, distinct = np.divmod(table[kept].astype(np.int64), width)
    return channels, distinct + lo, counts[kept].astype(np.int64)


def channel_bits(channels, values, counts) -> np.ndarray:
    """Each channel's estimate_bits(fit_laplace(v, n), v, n) from _value_counts' rows.

    Every channel 0..channels.max() needs a row. np.bincount by channel sums mu and sigma,
    b = max(sigma / sqrt(2), B_MIN), and one _laplace_terms call floored at PROB_FLOOR prices
    every row. The sums run in another order than those calls', so bits agree to rounding.
    """
    n, x = np.asarray(counts, dtype=np.float64), np.asarray(values, dtype=np.float64)
    total = np.bincount(channels, n)
    mu = np.bincount(channels, n * x) / total
    dev = x - mu[channels]
    b = np.maximum(np.sqrt(np.bincount(channels, n * dev * dev) / total) / _SQRT2, B_MIN)
    q = np.maximum(_laplace_terms(x, mu[channels], b[channels])[0], PROB_FLOOR)
    return np.bincount(channels, n * -np.log2(q))


def pearson(xs, ys):
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size < 2:
        return None
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return None
    # Rounding can carry the quotient just past 1 in magnitude, as on two points.
    return float(np.clip(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy), -1.0, 1.0))


@dataclass(frozen=True)
class CalibrationResult:
    alpha: float
    correlation: float
    estimated_bits: np.ndarray
    actual_bits: np.ndarray


def calibrate_alpha(corpus) -> CalibrationResult:
    """Fit alpha = total actual bits / total estimated bits over a corpus.

    Each corpus entry is an integer sequence; estimation uses a model fitted
    to that sequence alone. Raises ValueError for an entry holding a value
    that is not an integer int64 holds, and CorrelationUndefinedError
    (carrying the fitted alpha) when the Pearson correlation of the scatter
    is undefined.
    """
    if not corpus:
        raise ValueError("calibration corpus is empty")
    est = []
    act = []
    for seq in corpus:
        arr = _as_2d(seq, np.int64, 1, "values", flat=True)[:, 0]
        if arr.size == 0:
            raise ValueError("calibration corpus contains an empty sequence")
        est.append(estimate_bits(fit_laplace(arr), arr))
        act.append(rlc_encode(arr).bits)
    est = np.asarray(est)
    act = np.asarray(act, dtype=np.float64)
    if est.sum() == 0.0:
        raise ValueError("corpus has zero estimated bits")
    alpha = float(act.sum() / est.sum())
    corr = pearson(est, act)
    if corr is None:
        raise CorrelationUndefinedError(
            "correlation undefined: corpus has fewer than two distinct estimates",
            alpha=alpha,
        )
    return CalibrationResult(alpha=alpha, correlation=corr, estimated_bits=est, actual_bits=act)


def bit_shares(bits: dict) -> dict:
    """Each component's percentage of the total bits (all 0 when the total is 0)."""
    total = sum(bits.values())
    return {key: (100.0 * b / total if total else 0.0) for key, b in bits.items()}


@dataclass
class RateReport:
    """Estimated vs actual bits per component plus bit-allocation shares."""

    actual_bits: dict       # keys P, O, A, S, MLP -> int
    estimated_bits: dict    # keys O, A, S -> float
    group_alpha: dict       # keys O, A, S -> float or None
    alpha: float
    correlation: float      # per-channel scatter inside this container; may be None
    percentages: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.percentages:
            self.percentages = bit_shares(self.actual_bits)

    @property
    def total_bits(self) -> int:
        return sum(self.actual_bits.values())

    def to_text(self) -> str:
        lines = [
            f"{'component':<10}{'bytes':>12}{'share':>9}{'est. bits':>14}{'alpha':>8}",
        ]
        for key in ("P", "O", "A", "S", "MLP"):
            est = self.estimated_bits.get(key)
            ga = self.group_alpha.get(key)
            lines.append(
                f"{key:<10}{self.actual_bits[key] // 8:>12}"
                f"{self.percentages[key]:>8.2f}%"
                f"{est if est is not None else float('nan'):>14.1f}"
                + (f"{ga:>8.3f}" if ga is not None else f"{'-':>8}")
            )
        lines.append(f"total      {self.total_bits // 8:>11} bytes")
        lines.append(f"alpha (O+A+S): {self.alpha:.4f}")
        corr = "n/a" if self.correlation is None else f"{self.correlation:.4f}"
        lines.append(f"per-channel correlation: {corr}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        pairs = []
        for key in ("P", "O", "A", "S", "MLP"):
            pairs.append(f"actual_bits_{key}={self.actual_bits[key]}")
            pairs.append(f"pct_{key}={self.percentages[key]:.4f}")
        for key in ("O", "A", "S"):
            pairs.append(f"estimated_bits_{key}={self.estimated_bits[key]:.2f}")
        pairs.append(f"alpha={self.alpha:.6f}")
        pairs.append(f"correlation={'nan' if self.correlation is None else f'{self.correlation:.6f}'}")
        pairs.append(f"total_bits={self.total_bits}")
        return "\n".join(pairs)
