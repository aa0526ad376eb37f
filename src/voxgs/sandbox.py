"""Desk-scale rate-distortion sandbox.

Optimizes continuous attribute tensors against a synthetic reconstruction
target under a three-term loss: an L1 term, an L2 term standing in for the
structural-similarity term of the image pipeline, and the Laplace rate term
weighted by lambda3. Quantization uses the straight-through contract
(rounding forward, identity backward); backprop is implemented by hand, so
the codec keeps no autodiff dependency.

Loss normalization: the distortion terms are summed over anchors and
averaged over the total attribute dimensionality, while the rate term is
the total estimated bits of the quantized tensors. That mirrors the scale
split the reference training uses (image terms of order one against a rate
term of order hundreds per anchor), which is what makes the small default
lambda3 meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .container import markov_channels
from .geometry import morton_encode
from .model import GROUPS, AnchorCloud, AttributeLayout, QuantParams
from .quantize import ste_round
from .rate import B_MIN, estimate_bits, fit_laplace, nll_bits_and_grads
from .rlc import MAX_ELEMENTS, encode_attributes

_SQRT2 = math.sqrt(2.0)

DEFAULT_LAMBDA1 = 0.2
DEFAULT_LAMBDA2 = 0.8
DEFAULT_LAMBDA3 = 1e-4
DEFAULT_LR = 1e-2
DEFAULT_ANCHORS = 256

# make_scene's quantization, parameter noise around the targets (in quantization
# steps) and offset mix (zeros, then boundary-straddlers, then the integer tail).
SCENE_QUANT = QuantParams(q_p=256, q_o=32, q_a=1, q_s=8)
INIT_NOISE = 0.05
ZERO_FRAC = 0.5
BOUNDARY_FRAC = 0.25
# make_scene's target fractions keep this far (plus 0.02) from a rounding boundary.
TARGET_MARGIN = 0.03


@dataclass
class SandboxScene:
    """Trainable tensors, their targets, and the quantization configuration."""

    targets: dict            # group name -> (n, d) float64
    params: dict             # group name -> (n, d) float64, updated in place
    positions: np.ndarray    # (n, 3) int64 Morton-sorted voxels for RLC measurement
    layout: AttributeLayout
    quant: QuantParams
    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2
    lambda3: float = DEFAULT_LAMBDA3

    def __post_init__(self):
        for name in GROUPS:
            if self.targets[name].shape != self.params[name].shape:
                raise ValueError(f"{name} target/param shape mismatch")
            dims = self.layout.dims_for(name)
            if self.targets[name].shape[1] != dims:
                raise ValueError(f"{name} must have {dims} channels")

    @property
    def anchor_count(self) -> int:
        return self.positions.shape[0]

    def scale(self, name: str) -> float:
        return float(self.quant.scale_for(name))

    def quantized(self) -> dict:
        return {
            name: ste_round(self.params[name] * self.scale(name))
            for name in GROUPS
        }

    def to_cloud(self) -> AnchorCloud:
        return AnchorCloud(
            positions=self.positions,
            **self.quantized(),
            layout=self.layout,
            quant=self.quant,
            bbox=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
        )


@dataclass(frozen=True)
class LossBreakdown:
    l1: float
    mse: float
    rate_loss: float     # sum over groups of mean per-symbol bits
    est_bits: float      # total estimated bits over all groups


@dataclass
class TrainTrace:
    """Per-step optimization record plus periodic actual RLC measurements."""

    steps: list = field(default_factory=list)
    l1: list = field(default_factory=list)
    mse: list = field(default_factory=list)
    rate_loss: list = field(default_factory=list)
    est_bits: list = field(default_factory=list)
    actual_bits: list = field(default_factory=list)  # (step, bits) pairs

    def to_csv(self) -> str:
        actual = dict(self.actual_bits)
        lines = ["step,distortion_l1,distortion_mse,rate_loss,est_bits,actual_bits"]
        for i, step in enumerate(self.steps):
            abits = actual.get(step, "")
            lines.append(
                f"{step},{self.l1[i]:.8g},{self.mse[i]:.8g},"
                f"{self.rate_loss[i]:.8g},{self.est_bits[i]:.8g},{abits}"
            )
        return "\n".join(lines) + "\n"


def _rate_grads(z: np.ndarray):
    """Total estimated bits of z and its gradient, including the model fit path.

    The gradient is built in place in the arrays nll_bits_and_grads returns.
    """
    flat = z.ravel()
    n = flat.size
    model = fit_laplace(flat)
    mu, sigma = model.mu, model.sigma
    f, grad, df_dmu, df_db = nll_bits_and_grads(flat, mu, model.b)
    bits = float(f.sum())
    grad += df_dmu.sum() / n
    if model.b > B_MIN:  # fit-path b gradient only when the floor is inactive
        fit = np.subtract(flat, mu, out=f)  # f is summed already
        fit *= df_db.sum()
        grad += np.divide(fit, n * sigma * _SQRT2, out=fit)
    return bits, grad.reshape(z.shape)


def step(
    scene: SandboxScene,
    learning_rate: float = DEFAULT_LR,
    quantize: bool = True,
    include_rate: bool = True,
) -> LossBreakdown:
    """One gradient-descent update; mutates scene.params in place."""
    dims_total = scene.layout.total_dims
    l1_sum = 0.0
    sq_sum = 0.0
    elem_total = 0
    est_total = 0.0
    rate_loss_total = 0.0
    grads = {}

    for name in GROUPS:
        p = scene.params[name]
        t = scene.targets[name]
        q = scene.scale(name)
        z = ste_round(p * q) if quantize else p * q

        # Rate first, then the distortion in place: with few full-size arrays alive at once
        # the allocator reuses one region every step instead of faulting fresh pages in.
        rate_grad = None
        if z.size:
            if include_rate and scene.lambda3 != 0.0:
                est, rate_grad = _rate_grads(z)
            else:
                # Diagnostics only: keep the trace finite without touching gradients.
                zi = z if quantize else ste_round(z)
                est = estimate_bits(fit_laplace(zi), zi)
            est_total += est
            rate_loss_total += est / z.size

        d = z / q if quantize else p.copy()
        d -= t
        del z
        grad = np.abs(d)
        l1_sum += float(grad.sum())
        sq_sum += float(np.multiply(d, d, out=grad).sum())
        elem_total += d.size

        # (lambda1 * sign(d) + 2 * lambda2 * d) / dims_total, plus lambda3 * rate_grad * q.
        np.sign(d, out=grad)
        grad *= scene.lambda1
        grad += np.multiply(d, 2.0 * scene.lambda2, out=d)
        grad /= dims_total
        if rate_grad is not None:
            rate_grad *= scene.lambda3
            grad += np.multiply(rate_grad, q, out=rate_grad)
        grads[name] = grad

    total = (
        scene.lambda1 * l1_sum / dims_total
        + scene.lambda2 * sq_sum / dims_total
        + scene.lambda3 * (est_total if include_rate else 0.0)
    )
    if not math.isfinite(total):
        raise FloatingPointError(
            f"non-finite loss (l1={l1_sum}, l2={sq_sum}, est_bits={est_total})"
        )

    for name in GROUPS:
        scene.params[name] -= np.multiply(grads[name], learning_rate, out=grads[name])

    return LossBreakdown(
        l1=l1_sum / dims_total,
        mse=sq_sum / max(elem_total, 1),
        rate_loss=rate_loss_total,
        est_bits=est_total,
    )


def measure_rlc_bits(scene: SandboxScene) -> int:
    """Actual attribute bits of the current quantized state under RLC."""
    _, bits = encode_attributes(scene.to_cloud())
    return sum(bits.values())


def run(
    scene: SandboxScene,
    steps: int,
    warmup: int,
    learning_rate: float = DEFAULT_LR,
    measure_every: int = 50,
) -> TrainTrace:
    """Warmup phase (distortion only, no rounding) then the joint phase."""
    if not 0 <= warmup < steps:
        raise ValueError("warmup must satisfy 0 <= warmup < steps")
    trace = TrainTrace()
    for i in range(steps):
        joint = i >= warmup
        breakdown = step(scene, learning_rate, quantize=joint, include_rate=joint)
        trace.steps.append(i)
        trace.l1.append(breakdown.l1)
        trace.mse.append(breakdown.mse)
        trace.rate_loss.append(breakdown.rate_loss)
        trace.est_bits.append(breakdown.est_bits)
        if i % measure_every == 0 or i == steps - 1:
            trace.actual_bits.append((i, measure_rlc_bits(scene)))
    return trace


def _fresh_with_margin(count, draw, scale):
    """Draw target values whose scaled fraction keeps clear of rounding boundaries."""
    z = draw(count) * scale
    frac = z - np.round(z)
    frac = np.clip(frac, -0.5 + TARGET_MARGIN + 0.02, 0.5 - TARGET_MARGIN - 0.02)
    return (np.round(z) + frac) / scale


def make_scene(
    seed: int = 0,
    anchors: int = DEFAULT_ANCHORS,
    k: int = 10,
    m: int = 50,
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
    lambda3: float = DEFAULT_LAMBDA3,
) -> SandboxScene:
    """Seeded synthetic scene mirroring the qualitative per-group distributions.

    Offsets are zero-inflated with a slice of barely-active values just past
    a rounding boundary (the compressible mass), features are spatially
    correlated Gaussians, scalings are narrow-range and slowly varying.
    """
    quant = SCENE_QUANT
    if anchors > quant.q_p**3:
        raise ValueError(f"anchors={anchors} exceeds the {quant.q_p}^3 voxels of the scene grid")
    layout = AttributeLayout(k=k, m=m)
    # The largest scene a container holds; checked before anything is allocated.
    if anchors * layout.total_dims > MAX_ELEMENTS:
        raise ValueError(
            f"anchors={anchors} x {layout.total_dims} attribute channels exceeds"
            f" the {MAX_ELEMENTS}-element container limit"
        )
    rng = np.random.default_rng(seed)

    # Distinct Morton-sorted voxel positions.
    pos = rng.integers(0, quant.q_p, size=(anchors * 2, 3), dtype=np.int64)
    pos = np.unique(pos, axis=0)
    while pos.shape[0] < anchors:
        extra = rng.integers(0, quant.q_p, size=(anchors, 3), dtype=np.int64)
        pos = np.unique(np.vstack([pos, extra]), axis=0)
    pos = pos[rng.permutation(pos.shape[0])[:anchors]]
    pos = pos[np.argsort(morton_encode(pos))]

    qo, qa, qs = (float(quant.scale_for(name)) for name in GROUPS)

    # Offsets: zeros, boundary-straddlers, and a thin integer Laplace tail.
    n_off = anchors * layout.offset_dims
    cat = rng.random(n_off)
    off = np.zeros(n_off)
    boundary = (cat >= ZERO_FRAC) & (cat < ZERO_FRAC + BOUNDARY_FRAC)
    signs = rng.choice([-1.0, 1.0], size=n_off)
    off[boundary] = signs[boundary] * (0.52 + 0.1 * rng.random(int(boundary.sum()))) / qo
    tail = cat >= ZERO_FRAC + BOUNDARY_FRAC
    tail_z = ste_round(rng.laplace(0.0, 0.8, size=int(tail.sum())))
    off[tail] = np.clip(tail_z, -3, 3) / qo
    offsets_t = off.reshape(anchors, layout.offset_dims)

    def chains(dims, draw, scale, repeat_prob):
        return markov_channels(
            rng, anchors, dims, lambda count: _fresh_with_margin(count, draw, scale), repeat_prob
        )

    # Features: per-channel Morton-correlated Gaussians, off-boundary fractions.
    feats = chains(m, lambda s: rng.normal(0.0, 6.0, s), qa, 0.8)
    # Scalings: narrow range, strongly correlated along Morton order.
    scal = chains(6, lambda s: rng.uniform(-2.0, 2.0, s), qs, 0.9)

    targets = {"offsets": offsets_t, "features": feats, "scalings": scal}
    params = {
        name: targets[name]
        + rng.normal(0.0, INIT_NOISE / float(quant.scale_for(name)), size=targets[name].shape)
        for name in GROUPS
    }
    return SandboxScene(
        targets=targets,
        params=params,
        positions=pos,
        layout=layout,
        quant=quant,
        lambda1=lambda1,
        lambda2=lambda2,
        lambda3=lambda3,
    )
