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
are evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorrelationUndefinedError
from .rlc import rlc_encode

# Floor on interval probabilities: caps any symbol at 40 estimated bits.
PROB_FLOOR = 2.0**-40
# Scale floor for degenerate constant streams.
B_MIN = 1e-3
# Symbols per kernel call in estimate_bits: bounds its temporaries at 512 KiB each.
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
        if not (self.b > 0):
            raise ValueError("Laplace scale must be positive")


def fit_laplace(values) -> LaplaceModel:
    """Fit mu and sigma by moments (population variance) and derive b = sigma/sqrt(2)."""
    arr = np.asarray(values).ravel()
    if arr.size == 0:
        raise ValueError("cannot fit a Laplace model to an empty sequence")
    # Integers whose sums stay below 2**53 sum exactly in any order: no float64 copy needed.
    if arr.dtype.kind not in "iu" or max(-int(arr.min()), int(arr.max())) * arr.size >= 2**53:
        arr = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("fit_laplace requires finite input")
    mu = float(arr.mean())
    sigma = float(arr.std())
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
    """Per-symbol -log2 interval probability, floored."""
    return -np.log2(interval_prob(model, np.atleast_1d(np.asarray(x, dtype=np.float64))))


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
    """
    arr = np.asarray(x).ravel()
    found = _symbol_table(arr)
    if found is None:
        return _nll_terms(np.asarray(arr, dtype=np.float64), mu, b)
    table, index = found
    # One take gathers all four; each row is a contiguous per-symbol array, so its sums
    # have the bits of a direct evaluation's.
    return tuple(np.take(np.stack(_nll_terms(table, mu, b)), index, axis=1))


def estimate_bits(model: LaplaceModel, values) -> float:
    """Total cross-entropy bits of an integer sequence under the model."""
    arr = np.asarray(values).ravel()
    found = _symbol_table(arr)
    if found is not None:
        table, index = found
        bits = nll_bits(model, table)[index]
    else:
        arr = np.asarray(arr, dtype=np.float64)
        bits = np.empty_like(arr)
        for i in range(0, arr.size, _BLOCK):
            bits[i : i + _BLOCK] = nll_bits(model, arr[i : i + _BLOCK])
    return float(bits.sum())  # one sum over all symbols: the same bits on every path


def rate_loss(offsets, features, scalings) -> float:
    """Sum over the three groups of the mean per-symbol bits under fresh fits.

    Positions are deliberately excluded: geometry is coded by the octree and
    carries no rate constraint.
    """
    total = 0.0
    for group in (offsets, features, scalings):
        arr = np.asarray(group).ravel()
        if arr.size:
            total += estimate_bits(fit_laplace(arr), arr) / arr.size
    return total


def pearson(xs, ys):
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size < 2:
        return None
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


@dataclass(frozen=True)
class CalibrationResult:
    alpha: float
    correlation: float
    estimated_bits: np.ndarray
    actual_bits: np.ndarray


def calibrate_alpha(corpus) -> CalibrationResult:
    """Fit alpha = total actual bits / total estimated bits over a corpus.

    Each corpus entry is an integer sequence; estimation uses a model fitted
    to that sequence alone. Raises CorrelationUndefinedError (carrying the
    fitted alpha) when the Pearson correlation of the scatter is undefined.
    """
    if not corpus:
        raise ValueError("calibration corpus is empty")
    est = []
    act = []
    for seq in corpus:
        arr = np.asarray(seq, dtype=np.int64).ravel()
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
