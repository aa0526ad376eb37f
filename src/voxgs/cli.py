"""Command-line surface: encode, decode, analyze, calibrate, sweep, sandbox."""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import container as cont
from .errors import AnchorFileError, CorrelationUndefinedError, CorruptStreamError, VoxgsError
from .model import AttributeLayout, QuantParams
from .rate import bit_shares, calibrate_alpha
from .sandbox import make_scene, measure_rlc_bits, run

EXIT_INPUT = 2
EXIT_CORRUPT = 3

PRESETS = {
    "synthetic-nerf": {"q_p": 1024},
    "large-scene": {"q_p": 200},
}


def _fail(message):
    """Report a usage or input error on stderr and exit 2."""
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _fraction(_ctx, param, value):
    if value is None:
        return None
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"{param.name} must be a rational number")
    if frac <= 0:
        raise click.BadParameter("quant scale must be positive")
    return frac


def _finite(_ctx, param, value):
    if not math.isfinite(value):
        raise click.BadParameter(f"{param.name} must be finite")
    return value


def _thread_cap() -> int:
    env = os.environ.get("VOXGS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _atomic_write(path, write):
    """write(tmp) a temporary sibling, move it onto path; an OSError exits 2, leaving no tmp."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _quant_from_options(preset, qp, qo, qa, qs) -> QuantParams:
    base = {"q_p": 1024, "q_o": Fraction(1), "q_a": Fraction(1), "q_s": Fraction(8)}
    if preset:
        base.update(PRESETS[preset])
    given = {"q_p": qp, "q_o": qo, "q_a": qa, "q_s": qs}
    base.update({key: value for key, value in given.items() if value is not None})
    return QuantParams(**base)


def quant_options(fn):
    fn = click.option("--qp", type=int, default=None, help="Voxel grid resolution.")(fn)
    fn = click.option("--qo", callback=_fraction, default=None, help="Offset scale.")(fn)
    fn = click.option("--qa", callback=_fraction, default=None, help="Feature scale.")(fn)
    fn = click.option("--qs", callback=_fraction, default=None, help="Scaling-factor scale.")(fn)
    fn = click.option(
        "--preset",
        type=click.Choice(sorted(PRESETS)),
        default=None,
        help="Named quantization preset.",
    )(fn)
    return fn


@click.group()
def main():
    """Lossless codec and rate toolkit for voxelized anchor point clouds."""


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_path", type=click.Path(dir_okay=False, writable=True))
@quant_options
def encode(input_path, output_path, qp, qo, qa, qs, preset):
    """Quantize an anchor file and write a container."""
    try:
        quant = _quant_from_options(preset, qp, qo, qa, qs)
        fcloud = cont.read_anchor_file(input_path)
        cloud = cont.quantize_cloud(fcloud, quant)
        blob = cont.encode_container(cloud)
    except (AnchorFileError, VoxgsError, ValueError) as exc:
        _fail(exc)
    _atomic_write(output_path, lambda tmp: Path(tmp).write_bytes(blob))

    bits = cont.section_bits(blob)
    shares = bit_shares(bits)
    click.echo(f"wrote {output_path}: {len(blob)} bytes, {cloud.anchor_count} anchors")
    for key in ("P", "O", "A", "S", "MLP"):
        click.echo(f"  {key:<4}{bits[key] // 8:>10} bytes  {shares[key]:6.2f}%")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_path", type=click.Path(dir_okay=False, writable=True))
def decode(input_path, output_path):
    """Decode a container to a dequantized anchor file."""
    with open(input_path, "rb") as fh:
        data = fh.read()
    try:
        cloud = cont.decode_container(data)
    except CorruptStreamError as exc:
        click.echo(f"corrupt container: {exc}", err=True)
        sys.exit(EXIT_CORRUPT)
    fcloud = cont.dequantize_cloud(cloud)
    _atomic_write(output_path, lambda tmp: cont.write_anchor_file(tmp, fcloud))
    click.echo(f"wrote {output_path}: {cloud.anchor_count} anchors")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "kv"]), default="text")
def analyze(input_path, fmt):
    """Print the rate report for a container."""
    with open(input_path, "rb") as fh:
        data = fh.read()
    try:
        report = cont.analyze_container(data)
    except CorruptStreamError as exc:
        click.echo(f"corrupt container: {exc}", err=True)
        sys.exit(EXIT_CORRUPT)
    click.echo(report.to_text() if fmt == "text" else report.to_kv())


def _corpus_sequences(corpus_dir, synthetic, seed):
    if corpus_dir:
        paths = sorted(
            os.path.join(corpus_dir, p) for p in os.listdir(corpus_dir) if not p.startswith(".")
        )
        fclouds = (cont.read_anchor_file(path) for path in paths)
    else:
        rng = np.random.default_rng(seed)
        # Smooth scenes have both long runs and concentrated marginals, so the
        # Laplace scale shrinks as run_bias grows; sizes span two orders of
        # magnitude, as real scenes do.
        scales = np.exp(np.linspace(np.log(8.0), np.log(0.5), synthetic))
        biases = np.linspace(0.0, 0.9, synthetic)
        sizes = np.exp(rng.uniform(np.log(100), np.log(10000), synthetic)).astype(int)
        fclouds = (
            cont.generate_synthetic(
                seed=seed + i,
                anchors=int(sizes[i]),
                layout=AttributeLayout(k=4, m=12),
                run_bias=float(biases[i]),
                value_scale=float(scales[i]),
            )
            for i in range(synthetic)
        )
    sequences = []
    for fcloud in fclouds:
        cloud = cont.quantize_cloud(fcloud, QuantParams(q_p=256))
        sequences.append(
            np.concatenate([cloud.group(g).T.ravel() for g in ("offsets", "features", "scalings")])
        )
    return sequences


@main.command()
@click.option("--corpus", "corpus_dir", type=click.Path(exists=True, file_okay=False), default=None)
@click.option("--synthetic", type=int, default=0, help="Generate N synthetic scenes instead.")
@click.option("--seed", type=int, default=0)
def calibrate(corpus_dir, synthetic, seed):
    """Fit alpha and report the estimate/actual correlation over a corpus."""
    if not corpus_dir and synthetic <= 0:
        _fail("provide --corpus DIR or --synthetic N")
    try:
        sequences = _corpus_sequences(corpus_dir, synthetic, seed)
        result = calibrate_alpha(sequences)
    except CorrelationUndefinedError as exc:
        _fail(f"{exc} (alpha={exc.alpha:.4f})")
    except (AnchorFileError, VoxgsError, ValueError) as exc:
        _fail(exc)
    click.echo("estimated_bits,actual_bits")
    for est, act in zip(result.estimated_bits, result.actual_bits):
        click.echo(f"{est:.2f},{act:.0f}")
    if result.alpha < 0.05:
        click.echo("warning: alpha near zero (RLC crushes constants beyond the proxy)", err=True)
    click.echo(f"alpha={result.alpha:.4f}")
    click.echo(f"correlation={result.correlation:.4f}")


def _sweep_point(fcloud, quant: QuantParams):
    cloud, kept = cont.quantize_cloud_kept(fcloud, quant)
    blob = cont.encode_container(cloud)
    deq = cont.dequantize_cloud(cloud)
    # Distortion: MSE of dequantized attributes vs the input rows that were kept.
    errs = [
        ((getattr(deq, g) - getattr(fcloud, g)[kept]) ** 2).ravel()
        for g in ("offsets", "features", "scalings")
    ]
    mse = float(np.concatenate(errs).mean())
    return 8 * len(blob), cont.section_bits(blob)["P"], mse


@main.command()
@click.option("--axis", type=click.Choice(["q_p", "q_o", "q_a", "q_s"]), required=True)
@click.option("--values", required=True, help="Comma-separated list, e.g. 128,256,512.")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--synthetic", type=int, default=0, help="Anchor count for a synthetic scene.")
@click.option("--seed", type=int, default=0)
@quant_options
def sweep(axis, values, input_path, synthetic, seed, qp, qo, qa, qs, preset):
    """Encode the same scene across one quantization axis; CSV to stdout."""
    if not input_path and synthetic <= 0:
        _fail("provide --input FILE or --synthetic N")
    try:
        base = _quant_from_options(preset, qp, qo, qa, qs)
        if input_path:
            fcloud = cont.read_anchor_file(input_path)
        else:
            fcloud = cont.generate_synthetic(
                seed=seed, anchors=synthetic, layout=AttributeLayout(k=10, m=50), run_bias=0.5
            )
        points = []
        for raw in values.split(","):
            raw = raw.strip()
            fields = {"q_p": base.q_p, "q_o": base.q_o, "q_a": base.q_a, "q_s": base.q_s}
            fields[axis] = int(raw) if axis == "q_p" else Fraction(raw)
            points.append((raw, QuantParams(**fields)))
    except (AnchorFileError, ValueError, ZeroDivisionError) as exc:
        _fail(exc)

    try:
        with ThreadPoolExecutor(max_workers=min(_thread_cap(), len(points))) as pool:
            results = list(pool.map(lambda pq: _sweep_point(fcloud, pq[1]), points))
    except (VoxgsError, ValueError) as exc:
        _fail(exc)

    click.echo(f"{axis},size_bits,geometry_bits,distortion_mse")
    for (raw, _), (size_bits, geom_bits, mse) in zip(points, results):
        click.echo(f"{raw},{size_bits},{geom_bits},{mse:.10g}")


@main.command()
@click.option("--steps", type=int, default=500)
@click.option("--warmup", type=click.IntRange(min=0), default=100)
@click.option("--anchors", type=click.IntRange(min=1), default=256)
@click.option("--lambda1", type=float, callback=_finite, default=0.2)
@click.option("--lambda2", type=float, callback=_finite, default=0.8)
@click.option("--lambda3", type=float, callback=_finite, default=1e-4)
@click.option("--lr", type=float, callback=_finite, default=1e-2)
@click.option("--seed", type=int, default=0)
@click.option("--out-prefix", type=click.Path(), default=None, help="Write trace CSVs here.")
def sandbox(steps, warmup, anchors, lambda1, lambda2, lambda3, lr, seed, out_prefix):
    """Run the rate-constrained and unconstrained optimizations and compare."""
    if warmup >= steps:
        _fail("warmup must be smaller than steps")

    finals = {}
    for tag, lam3 in (("baseline", 0.0), ("rate", lambda3)):
        scene = make_scene(
            seed=seed, anchors=anchors, lambda1=lambda1, lambda2=lambda2, lambda3=lam3
        )
        try:
            trace = run(scene, steps=steps, warmup=warmup, learning_rate=lr)
            finals[tag] = (measure_rlc_bits(scene), trace.mse[-1])
        except (ValueError, FloatingPointError) as exc:
            _fail(f"{tag} run failed: {exc}")
        if out_prefix:
            path = f"{out_prefix}.{tag}.csv"
            _atomic_write(path, lambda tmp: Path(tmp).write_text(trace.to_csv()))
            click.echo(f"wrote {path}")

    base_bits, base_mse = finals["baseline"]
    rate_bits, rate_mse = finals["rate"]
    reduction = 1.0 - rate_bits / base_bits if base_bits else 0.0
    click.echo(f"baseline_bits={base_bits} rate_bits={rate_bits}")
    click.echo(f"rate_reduction={100 * reduction:.2f}%")
    click.echo(f"baseline_mse={base_mse:.6g} rate_mse={rate_mse:.6g}")


if __name__ == "__main__":
    main()
