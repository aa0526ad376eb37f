"""The four seeded benchmark workloads.

Each workload is a closed loop with one caller. ``setup`` builds the inputs
from the seed; ``round`` runs one fixed unit of work through the public
voxgs API, timing every operation through the recorder and checking every
output; ``named_metrics`` turns the recorded samples into the workload's
own metrics.

A round is identical every time it runs, so per-round call and work counts
repeat exactly.
"""

from __future__ import annotations

import copy
import hashlib
import os
import statistics
from dataclasses import dataclass, field

import numpy as np
from click.testing import CliRunner

# Library calls go through module attributes at call time (voxgs.encode_container,
# not a local binding), so the tracer's wrappers on those attributes see them.
import voxgs
from voxgs import AttributeLayout, QuantParams
from voxgs.cli import PRESETS

# k=10, m=50: 30 offset + 50 feature + 6 scaling = 86 attribute channels.
LAYOUT = AttributeLayout(k=10, m=50)
PRESET = "synthetic-nerf"
QUANT = QuantParams(**PRESETS[PRESET])
RUN_BIAS = 0.5

# Sandbox acceptance: the rate term must cut RLC bits to at most this share of
# the baseline while raising the distortion MSE by at most this fraction.
MAX_BITS_RATIO = 0.80
MAX_MSE_INCREASE = 0.05
SANDBOX_LAMBDA3 = 1e-4

SIZES = {
    "full": {
        "scene-large": {"anchors": 100_000},
        "clouds-small": {"clouds": 64, "min_anchors": 10, "max_anchors": 1000},
        "sandbox-ablation": {"anchors": 1024, "steps": 500, "warmup": 100},
        "cli-files": {"anchors": 20_000},
    },
    "smoke": {
        "scene-large": {"anchors": 2_000},
        "clouds-small": {"clouds": 6, "min_anchors": 10, "max_anchors": 200},
        "sandbox-ablation": {"anchors": 256, "steps": 200, "warmup": 40},
        "cli-files": {"anchors": 300},
    },
}


def sha256(*blobs) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else float("nan")


@dataclass
class State:
    """A workload's inputs plus what its first round produced."""

    seed: int
    size: dict
    tmp: str
    inputs: object = None
    expected_digest: str = None  # golden digest, known only at the golden seed
    digest: str = None           # digest of the first round played in this process
    first: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""

    def setup(self, state: State) -> None:
        raise NotImplementedError

    def round(self, state: State, rec) -> None:
        raise NotImplementedError

    def units_per_round(self, state: State) -> float:
        raise NotImplementedError

    def named_metrics(self, state: State, rec) -> list:
        """[(name, value, unit, note)] in the workload's own terms."""
        raise NotImplementedError

    def check_digest(self, state: State, rec, kind: str, digest: str) -> None:
        """Lock the container bytes: golden at the golden seed, stable across rounds."""
        if state.digest is None:
            state.digest = digest
            if state.expected_digest is not None:
                rec.check(
                    kind,
                    digest == state.expected_digest,
                    f"container SHA-256 {digest} differs from golden {state.expected_digest}",
                )
        else:
            rec.check(kind, digest == state.digest, "container bytes changed between rounds")


def _encode(fcloud):
    cloud = voxgs.quantize_cloud(fcloud, QUANT)
    return cloud, voxgs.encode_container(cloud)


def _decode(blob):
    cloud = voxgs.decode_container(blob)
    return cloud, voxgs.dequantize_cloud(cloud)


class SceneLarge(Workload):
    name = "scene-large"
    why = (
        "One 1e5-anchor scene: per-element cost dominates; encode and decode share "
        "rlc, geometry, quantize and model.validate, and rate dominates analyze."
    )

    def setup(self, state):
        state.inputs = voxgs.generate_synthetic(
            state.seed, state.size["anchors"], LAYOUT, run_bias=RUN_BIAS
        )

    def round(self, state, rec):
        encoded = rec.run("encode", _encode, state.inputs)
        if encoded is None:
            return
        cloud, blob = encoded
        if "expected" not in state.first:
            state.first["expected"] = voxgs.sort_by_morton(cloud)
            state.first["anchors"] = cloud.anchor_count
            state.first["bytes"] = len(blob)
        self.check_digest(state, rec, "encode", sha256(blob))
        decoded = rec.run("decode", _decode, blob)
        if decoded is not None:
            rec.check("decode", decoded[0].equals(state.first["expected"]), "round trip not bit-exact")
        report = rec.run("analyze", voxgs.analyze_container, blob)
        if report is not None:
            rec.check(
                "analyze",
                0 < report.total_bits <= 8 * len(blob) and np.isfinite(report.alpha),
                "analyze report does not account for the container",
            )

    def units_per_round(self, state):
        return state.first["anchors"]

    def named_metrics(self, state, rec):
        n = state.first["anchors"]
        out = []
        for kind in ("encode", "decode", "analyze"):
            s = rec.samples[kind]
            out.append((f"{kind}_anchors_per_s", n / median(s), "anchors/s", f"median of n={len(s)}"))
        out.append(("bytes_per_anchor", state.first["bytes"] / state.first["anchors"], "B", "exact"))
        return out


class CloudsSmall(Workload):
    name = "clouds-small"
    why = (
        "64 clouds of 10-1000 anchors, each round-tripped about 20 times a run: the fixed "
        "cost of each call dominates, and rate never runs, so a rate change must show no "
        "change here."
    )

    def setup(self, state):
        size = state.size
        rng = np.random.default_rng(state.seed)
        # The sizes are the midpoints of equal-probability strata of the
        # log-uniform law, so every seed brings the same total work; the seed
        # picks their order and each cloud's content.
        clouds = size["clouds"]
        lo, hi = np.log(size["min_anchors"]), np.log(size["max_anchors"])
        strata = (np.arange(clouds) + 0.5) / clouds
        counts = rng.permutation(np.exp(lo + (hi - lo) * strata).astype(int))
        seeds = rng.integers(0, 2**31, clouds)
        state.inputs = [
            voxgs.generate_synthetic(int(s), int(n), LAYOUT, run_bias=RUN_BIAS)
            for s, n in zip(seeds, counts)
        ]

    @staticmethod
    def _roundtrip(fcloud):
        cloud, blob = _encode(fcloud)
        return cloud, blob, _decode(blob)[0]

    def round(self, state, rec):
        blobs = []
        anchors = 0
        for fcloud in state.inputs:
            out = rec.run("roundtrip", self._roundtrip, fcloud)
            if out is None:
                continue
            cloud, blob, decoded = out
            rec.check("roundtrip", decoded.equals(voxgs.sort_by_morton(cloud)), "round trip not bit-exact")
            blobs.append(blob)
            anchors += cloud.anchor_count
        if len(blobs) == len(state.inputs):
            state.first.setdefault("anchors", anchors)
            state.first.setdefault("bytes", sum(len(b) for b in blobs))
            self.check_digest(state, rec, "roundtrip", sha256(*blobs))

    def units_per_round(self, state):
        return len(state.inputs)

    def named_metrics(self, state, rec):
        s = rec.samples["roundtrip"]
        deciles = statistics.quantiles(s, n=10) if len(s) > 1 else [float("nan")] * 9
        per_s = self.units_per_round(state) / median(rec.round_totals)
        return [
            ("roundtrip_clouds_per_s", per_s, "clouds/s", f"median of {len(rec.round_totals)} passes"),
            ("roundtrip_p50_ms", 1e3 * median(s), "ms", f"n={len(s)}"),
            ("roundtrip_p90_ms", 1e3 * deciles[-1], "ms", f"n={len(s)}, {len(s) // 10} beyond"),
            ("bytes_per_anchor", state.first["bytes"] / state.first["anchors"], "B", "exact"),
        ]


class SandboxAblation(Workload):
    name = "sandbox-ablation"
    why = (
        "What voxgs sandbox runs, lambda3=0 against 1e-4 on 1024 anchors: sandbox.step, "
        "the Laplace gradients and ste_round do nearly all the work."
    )

    def setup(self, state):
        state.inputs = {
            tag: voxgs.make_scene(seed=state.seed, anchors=state.size["anchors"], lambda3=lam)
            for tag, lam in (("baseline", 0.0), ("rate", SANDBOX_LAMBDA3))
        }

    def _train(self, state, scene):
        trace = voxgs.run(scene, steps=state.size["steps"], warmup=state.size["warmup"])
        return voxgs.sandbox.measure_rlc_bits(scene), trace.mse[-1]

    @staticmethod
    def _fresh(state, tag):
        # run() updates the scene in place, so every round trains a fresh copy.
        return copy.deepcopy(state.inputs[tag])

    def round(self, state, rec):
        finals = {}
        for tag in ("baseline", "rate"):
            finals[tag] = rec.run(tag, self._train, state, self._fresh(state, tag))
        if finals["baseline"] is None or finals["rate"] is None:
            return
        (base_bits, base_mse), (rate_bits, rate_mse) = finals["baseline"], finals["rate"]
        ratio = rate_bits / base_bits
        rec.check("rate", ratio <= MAX_BITS_RATIO, f"bits ratio {ratio:.4f} > {MAX_BITS_RATIO}")
        rise = rate_mse / base_mse - 1.0
        rec.check("rate", rise <= MAX_MSE_INCREASE, f"MSE rose {rise:.2%} > {MAX_MSE_INCREASE:.0%}")
        if "bits" in state.first:
            rec.check("rate", state.first["bits"] == (base_bits, rate_bits), "RLC bits changed between rounds")
        else:
            state.first.update(bits=(base_bits, rate_bits), ratio=ratio, mse_rise=rise)

    def units_per_round(self, state):
        return 2 * state.size["steps"]

    def named_metrics(self, state, rec):
        per_s = self.units_per_round(state) / median(rec.round_totals)
        return [
            ("sandbox_steps_per_s", per_s, "steps/s", f"median of {len(rec.round_totals)} pairs"),
            (
                "sandbox_bits_ratio",
                state.first["ratio"],
                "1",
                f"exact; MSE {100 * state.first['mse_rise']:+.3f}%",
            ),
        ]


class CliError(RuntimeError):
    pass


def _cli(args):
    result = CliRunner().invoke(voxgs.cli.main, args)
    if result.exit_code != 0 or result.exception is not None:
        raise CliError(f"voxgs {args[0]} exited {result.exit_code}: {result.output[-300:]!r}")
    return result.output


class CliFiles(Workload):
    name = "cli-files"
    why = (
        "One 2e4-anchor scene as a 29 MB anchor text file through the CLI: the only "
        "workload that measures anchor-file I/O and the cli layer."
    )

    def setup(self, state):
        fcloud = voxgs.generate_synthetic(state.seed, state.size["anchors"], LAYOUT, run_bias=RUN_BIAS)
        path = os.path.join(state.tmp, "scene.txt")
        voxgs.write_anchor_file(path, fcloud)
        state.inputs = (fcloud, path)

    def round(self, state, rec):
        fcloud, scene = state.inputs
        first = os.path.join(state.tmp, "scene.vxgs")
        decoded = os.path.join(state.tmp, "decoded.txt")
        again = os.path.join(state.tmp, "decoded.vxgs")
        for path in (first, decoded, again):
            if os.path.exists(path):
                os.unlink(path)
        if rec.run("encode", _cli, ["encode", scene, first, "--preset", PRESET]) is None:
            return
        with open(first, "rb") as fh:
            blob = fh.read()
        if "expected" not in state.first:
            expected = voxgs.sort_by_morton(voxgs.quantize_cloud(fcloud, QUANT))
            state.first.update(expected=expected, anchors=expected.anchor_count)
            rec.check("encode", voxgs.decode_container(blob).equals(expected), "round trip not bit-exact")
        self.check_digest(state, rec, "encode", sha256(blob))
        rec.run("analyze", _cli, ["analyze", first])
        if rec.run("decode", _cli, ["decode", first, decoded]) is None:
            return
        if rec.run("reencode", _cli, ["encode", decoded, again, "--preset", PRESET]) is None:
            return
        with open(again, "rb") as fh:
            rec.check("reencode", fh.read() == blob, "re-encoding the decoded file changed the bytes")

    def units_per_round(self, state):
        return state.first["anchors"]

    def named_metrics(self, state, rec):
        out = []
        for kind in ("encode", "decode", "analyze"):
            s = rec.samples[kind]
            out.append((f"cli_{kind}_s", median(s), "s", f"median of n={len(s)}"))
        return out


WORKLOADS = {wl.name: wl for wl in (SceneLarge(), CloudsSmall(), SandboxAblation(), CliFiles())}
