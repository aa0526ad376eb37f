"""Laplace rate proxy: interval probabilities, bit estimates, alpha calibration.

The proxy models each integer stream with a Laplace distribution whose
location is the sample mean and whose scale is derived from the sample
standard deviation by moment matching (b = sigma / sqrt(2)). Estimated bits
are the cross-entropy of the quantized values under the integer-interval
probabilities; the actual run-length coder is expected to track this up to
a proportionality constant alpha.
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
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot fit a Laplace model to an empty sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("fit_laplace requires finite input")
    mu = float(arr.mean())
    sigma = float(arr.std())
    b = max(sigma / _SQRT2, B_MIN)
    return LaplaceModel(mu=mu, b=b, sigma=sigma)


def _interval_prob_raw(x: np.ndarray, mu: float, b: float) -> np.ndarray:
    """CDF(x+0.5) - CDF(x-0.5) in a cancellation-free piecewise form."""
    u1 = x - mu - 0.5
    u2 = x - mu + 0.5
    q = np.empty_like(u1)

    right = u1 >= 0  # whole interval right of mu
    left = u2 <= 0   # whole interval left of mu
    mid = ~(right | left)

    span = -np.expm1(-1.0 / b)  # 1 - exp(-1/b)
    q[right] = 0.5 * np.exp(-u1[right] / b) * span
    q[left] = 0.5 * np.exp(u2[left] / b) * span
    q[mid] = 1.0 - 0.5 * np.exp(-u2[mid] / b) - 0.5 * np.exp(u1[mid] / b)
    return q


def interval_prob(model: LaplaceModel, x, floor: bool = True):
    """Probability mass of the unit interval centered on integer x.

    With floor=True (default) the result is clamped below at PROB_FLOOR.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 0
    q = _interval_prob_raw(np.atleast_1d(arr), model.mu, model.b)
    if floor:
        np.maximum(q, PROB_FLOOR, out=q)
    return float(q[0]) if single else q


def nll_bits(model: LaplaceModel, x) -> np.ndarray:
    """Per-symbol -log2 interval probability, floored."""
    return -np.log2(interval_prob(model, np.atleast_1d(np.asarray(x, dtype=np.float64))))


def nll_bits_and_grads(x, mu: float, b: float):
    """Value and exact partials of f(x) = -log2 q(x; mu, b).

    Returns (f, df/dx, df/dmu, df/db) as float64 arrays. Where the
    probability floor binds, all gradients are zero (clamp subgradient).
    """
    arr = np.asarray(x, dtype=np.float64).ravel()
    u1 = arr - mu - 0.5
    u2 = arr - mu + 0.5
    q = _interval_prob_raw(arr, mu, b)

    pdf1 = np.exp(-np.abs(u1) / b) / (2.0 * b)
    pdf2 = np.exp(-np.abs(u2) / b) / (2.0 * b)
    dq_dx = pdf2 - pdf1
    dq_db = -(u2 * np.exp(-np.abs(u2) / b) - u1 * np.exp(-np.abs(u1) / b)) / (2.0 * b * b)

    floored = q <= PROB_FLOOR
    qc = np.maximum(q, PROB_FLOOR)
    f = -np.log2(qc)
    scale = np.where(floored, 0.0, -1.0 / (qc * _LOG2))
    df_dx = scale * dq_dx
    df_dmu = -df_dx
    df_db = scale * dq_db
    return f, df_dx, df_dmu, df_db


def estimate_bits(model: LaplaceModel, values) -> float:
    """Total cross-entropy bits of an integer sequence under the model."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0.0
    return float(nll_bits(model, arr).sum())


def rate_loss(offsets, features, scalings) -> float:
    """Sum over the three groups of the mean per-symbol bits under fresh fits.

    Positions are deliberately excluded: geometry is coded by the octree and
    carries no rate constraint.
    """
    total = 0.0
    for group in (offsets, features, scalings):
        arr = np.asarray(group, dtype=np.float64).ravel()
        if arr.size == 0:
            continue
        model = fit_laplace(arr)
        total += float(nll_bits(model, arr).mean())
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
