import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from voxgs import SandboxScene, TrainTrace, make_scene, run, step
from voxgs.model import GROUPS, AttributeLayout, QuantParams
from voxgs.rate import B_MIN
from voxgs.sandbox import measure_rlc_bits

_SQRT2 = math.sqrt(2.0)


def _controlled_scene(seed=0, anchors=32, lambda3=0.0, frac_range=0.2, noise=0.01):
    """Scene whose target fractions stay well inside their rounding cells."""
    rng = np.random.default_rng(seed)
    layout = AttributeLayout(k=1, m=4)
    quant = QuantParams(q_p=64, q_o=Fraction(8), q_a=Fraction(1), q_s=Fraction(8))
    pos = np.unique(rng.integers(0, 64, size=(anchors * 2, 3), dtype=np.int64), axis=0)
    from voxgs.geometry import morton_encode

    pos = pos[np.argsort(morton_encode(pos))][:anchors]

    targets = {}
    params = {}
    for name in GROUPS:
        dims = layout.dims_for(name)
        q = float(quant.scale_for(name))
        base = rng.integers(-4, 5, size=(anchors, dims)).astype(np.float64)
        frac = rng.uniform(-frac_range, frac_range, size=(anchors, dims))
        targets[name] = (base + frac) / q
        params[name] = targets[name] + rng.normal(0.0, noise / q, size=(anchors, dims))
    return SandboxScene(
        targets=targets, params=params, positions=pos, layout=layout, quant=quant,
        lambda3=lambda3,
    )


def _reference_loss(scene, params):
    """Independent warmup-mode loss (no rounding, rate on continuous values)."""
    dims = scene.layout.total_dims
    total = 0.0
    for name in GROUPS:
        p = params[name]
        d = p - scene.targets[name]
        total += scene.lambda1 * np.abs(d).sum() / dims
        total += scene.lambda2 * (d * d).sum() / dims
        if scene.lambda3:
            z = (p * scene.scale(name)).ravel()
            mu = z.mean()
            b = max(z.std() / _SQRT2, B_MIN)

            def cdf(t):
                u = t - mu
                return 0.5 + 0.5 * np.sign(u) * (1.0 - np.exp(-np.abs(u) / b))

            q = np.maximum(cdf(z + 0.5) - cdf(z - 0.5), 2.0**-40)
            total += scene.lambda3 * float(-np.log2(q).sum())
    return total


class TestStep:
    def test_distortion_only_hits_quantization_bound(self):
        scene = _controlled_scene(seed=1, lambda3=0.0)
        run(scene, steps=300, warmup=100)
        quantized = scene.quantized()
        for name in GROUPS:
            q = scene.scale(name)
            err = np.abs(quantized[name] / q - scene.targets[name])
            assert err.max() <= 0.5 / q + 1e-12

    def test_rate_only_non_increasing(self):
        scene = make_scene(seed=3, lambda1=0.0, lambda2=0.0, lambda3=1e-4)
        losses = [step(scene).rate_loss for _ in range(200)]
        for prev, cur in zip(losses[:-1], losses[1:]):
            assert cur <= prev * 1.01  # numerical jitter allowance
        assert losses[-1] < losses[0]

    def test_warmup_gradient_matches_finite_differences(self):
        scene = make_scene(seed=5, anchors=16, k=2, m=6)
        params0 = {name: scene.params[name].copy() for name in GROUPS}
        lr = 1e-2
        step(scene, lr, quantize=False, include_rate=True)
        grads = {name: (params0[name] - scene.params[name]) / lr for name in GROUPS}

        rng = np.random.default_rng(0)
        eps = 1e-6
        for name in GROUPS:
            for _ in range(8):
                i = int(rng.integers(params0[name].shape[0]))
                j = int(rng.integers(params0[name].shape[1]))
                bumped = {n: params0[n].copy() for n in GROUPS}
                bumped[name][i, j] += eps
                up = _reference_loss(scene, bumped)
                bumped[name][i, j] -= 2 * eps
                down = _reference_loss(scene, bumped)
                fd = (up - down) / (2 * eps)
                assert abs(grads[name][i, j] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_ste_contract_hand_derived(self):
        # 1-anchor scene, lambda3=0: the joint-phase update must equal the
        # warmup-mode gradient evaluated at the quantized values.
        layout = AttributeLayout(k=1, m=1)
        quant = QuantParams(q_p=4, q_o=Fraction(4), q_a=Fraction(1), q_s=Fraction(8))
        targets = {
            "offsets": np.array([[0.1, -0.3, 0.6]]),
            "features": np.array([[1.4]]),
            "scalings": np.array([[0.2, -0.2, 0.8, 0.0, 1.1, -0.9]]),
        }
        params = {
            "offsets": np.array([[0.2, -0.1, 0.4]]),
            "features": np.array([[1.0]]),
            "scalings": np.array([[0.3, -0.4, 0.7, 0.1, 1.0, -1.0]]),
        }
        scene = SandboxScene(
            targets={n: targets[n].copy() for n in GROUPS},
            params={n: params[n].copy() for n in GROUPS},
            positions=np.array([[0, 0, 0]]),
            layout=layout,
            quant=quant,
            lambda3=0.0,
        )
        lr = 1e-2
        step(scene, lr, quantize=True, include_rate=True)
        dims = layout.total_dims  # 3 + 1 + 6 = 10
        for name in GROUPS:
            q = float(quant.scale_for(name))
            rounded = np.sign(params[name] * q) * np.floor(np.abs(params[name] * q) + 0.5)
            d = rounded / q - targets[name]
            grad = (0.2 * np.sign(d) + 2 * 0.8 * d) / dims
            expected = params[name] - lr * grad
            assert np.allclose(scene.params[name], expected, atol=1e-15)

    def test_non_finite_loss_raises(self):
        scene = _controlled_scene(seed=2)
        scene.params["features"][0, 0] = np.inf
        with pytest.raises((FloatingPointError, ValueError)):
            step(scene)

    def test_shape_mismatch_rejected(self):
        scene = _controlled_scene(seed=4)
        with pytest.raises(ValueError):
            SandboxScene(
                targets=scene.targets,
                params={**scene.params, "features": scene.params["features"][:, :2]},
                positions=scene.positions,
                layout=scene.layout,
                quant=scene.quant,
            )


class TestRun:
    def test_rate_reduced_after_warmup(self):
        scene = make_scene(seed=0)
        trace = run(scene, steps=500, warmup=100)
        assert trace.est_bits[-1] < trace.est_bits[100]

    def test_warmup_boundary(self):
        scene = _controlled_scene(seed=6)
        trace = run(scene, steps=5, warmup=4)
        assert trace.steps == [0, 1, 2, 3, 4]
        assert all(np.isfinite(trace.est_bits))

    def test_invalid_warmup(self):
        scene = _controlled_scene(seed=7)
        with pytest.raises(ValueError):
            run(scene, steps=10, warmup=10)
        with pytest.raises(ValueError):
            run(scene, steps=10, warmup=-1)

    @pytest.mark.parametrize(
        "seed,anchors,k,m,digest",
        [
            (0, 256, 10, 50, "6809d6b2b7bc184f7e7b9ed870f5273c2fe503eb35d4bc5d242ac36b51c62097"),
            (1, 64, 10, 50, "b9bfa4e2ba1660a3dbe3b4406662725f4227bcc6e146732e1a2c31690613c65e"),
            (2, 1, 10, 50, "7bfb6bed5a38055101d5d0e5dfc633e814c48837a32f58b354f4e7c7c51cb63c"),
            (3, 1000, 2, 8, "d3c9eea0016c6b839a1373553f0ab32d19bfd208cd05b431531cf8ff99bf6354"),
        ],
    )
    def test_make_scene_pinned(self, seed, anchors, k, m, digest):
        scene = make_scene(seed=seed, anchors=anchors, k=k, m=m)
        h = hashlib.sha256(scene.positions.tobytes())
        for tensors in (scene.targets, scene.params):
            for name in GROUPS:
                h.update(tensors[name].tobytes())
        assert h.hexdigest() == digest

    def test_determinism(self):
        t1 = run(make_scene(seed=9, anchors=64), steps=60, warmup=20)
        t2 = run(make_scene(seed=9, anchors=64), steps=60, warmup=20)
        assert t1.l1 == t2.l1
        assert t1.mse == t2.mse
        assert t1.est_bits == t2.est_bits
        assert t1.actual_bits == t2.actual_bits

    def test_trace_csv(self):
        scene = _controlled_scene(seed=10)
        trace = run(scene, steps=4, warmup=1, measure_every=2)
        csv = trace.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "step,distortion_l1,distortion_mse,rate_loss,est_bits,actual_bits"
        assert len(lines) == 5
        assert isinstance(trace, TrainTrace)

    def test_actual_bits_measured_periodically(self):
        scene = _controlled_scene(seed=11)
        trace = run(scene, steps=7, warmup=1, measure_every=3)
        steps_measured = [s for s, _ in trace.actual_bits]
        assert steps_measured == [0, 3, 6]
        assert all(b > 0 for _, b in trace.actual_bits)


class TestAblation:
    def test_rate_term_compacts_offsets(self):
        base = make_scene(seed=0, lambda3=0.0)
        rate = make_scene(seed=0)
        run(base, steps=300, warmup=100)
        run(rate, steps=300, warmup=100)
        assert measure_rlc_bits(rate) < measure_rlc_bits(base)

    def test_measure_rlc_bits_positive(self):
        scene = make_scene(seed=1, anchors=32)
        assert measure_rlc_bits(scene) > 0
