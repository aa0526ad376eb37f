"""Run one benchmark workload (or all of them) and report its metrics.

A run repeats whole rounds for about ``--seconds``, with the workload set up
again between rounds, and keeps the fastest set-up time. The first round
runs in a forked child, which also measures peak memory. With ``--trace 1`` traced
and untraced rounds alternate after it, and the traced rounds give the
per-layer metrics. Every output is checked; a failed check counts as a
failed operation, and the run exits 1 when any operation failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from . import tracer as tracing
from .workloads import SIZES, WORKLOADS, State

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
BASELINE_PATH = BENCH_DIR / "baseline.json"

# Between rounds the workload is set up again while set-ups have taken less
# than this share of the run, so the fastest set-up (reported for the reason
# given in best_round_s) is taken over the whole run, not one burst at its start.
SETUP_SHARE = 0.2

MAX_ERRORS_KEPT = 20


class Recorder:
    """Times operations, counts attempts and failures, and runs checks.

    ``run`` executes one operation; an exception fails it and returns None.
    ``check`` fails the most recent operation of a kind when a condition on
    its output does not hold, and drops that operation's time sample.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)
        self.round_totals = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._round = 0.0

    def begin_round(self):
        self._round = 0.0

    def end_round(self):
        self.round_totals.append(self._round)

    def run(self, kind, fn, *args):
        self.attempted += 1
        start = perf_counter()
        try:
            if self.tracer is not None:
                value = self.tracer.root(kind, fn, *args)
            else:
                value = fn(*args)
        except Exception as exc:  # every failure is counted, none ends the run
            self.fail(kind, f"raised {exc!r}")
            return None
        elapsed = perf_counter() - start
        self.samples[kind].append(elapsed)
        self._round += elapsed
        return value

    def check(self, kind, ok, message):
        if ok:
            return
        self.fail(kind, message)
        if self.samples[kind]:
            self._round -= self.samples[kind].pop()

    def to_dict(self):
        return {
            "samples": dict(self.samples),
            "round_totals": self.round_totals,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }

    def merge(self, data):
        for kind, values in data["samples"].items():
            self.samples[kind].extend(values)
        self.round_totals.extend(data["round_totals"])
        self.attempted += data["attempted"]
        self.failed += data["failed"]
        self.errors.extend(data["errors"])

    def fail(self, kind, message):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"{kind}: {message}")


def spread(values):
    """Interquartile range as a share of the median (None below two samples)."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def best_round_s(rec):
    """Sum over a round's operations of each one's fastest repeat.

    Other tenants of a shared machine only ever slow an operation down, and
    do so in bursts of seconds, so the fastest of an operation's repeats is
    a far steadier estimate of its own cost than their median.
    Valid only for a run without failures, where every round holds the same
    operations.
    """
    rounds = len(rec.round_totals)
    return sum(
        np.asarray(samples).reshape(rounds, -1).min(axis=0).sum()
        for samples in rec.samples.values()
    )


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _read(path, default=None):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return default


def git_commit():
    """HEAD commit read from .git without running git; None outside a checkout."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(git / ref)
    if value is not None:
        return value.strip()
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def filesystem_of(path):
    """Filesystem type of the mount holding path, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", None
    for line in (_read("/proc/self/mountinfo") or "").splitlines():
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def provenance(tmp):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "tmp_dir_filesystem": filesystem_of(tmp),
    }


def _loop(start, seconds, cycle):
    """Run the cycle of rounds once, then again while that ends nearer the deadline.

    Stops once another cycle would end more than half a cycle past
    ``start + seconds``, so the measured time stays close to ``seconds``
    even when one round takes several seconds.
    """
    while True:
        began = perf_counter()
        for play in cycle:
            play()
        took = perf_counter() - began
        if perf_counter() - start + took / 2 >= seconds:
            return


def _status_kb(field):
    for line in (_read("/proc/self/status") or "").splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def forked_round(play, rec):
    """Play one round in a forked child, merge its record into rec; returns peak MB.

    A forked child's peak resident set (VmHWM) starts at its resident set at
    the fork, so their difference is the memory the round added at its
    peak. The round is timed as any other, so measuring memory costs no
    extra round, where tracemalloc would slow the pure-Python anchor-file
    parsing about tenfold.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            child = Recorder()
            base = _status_kb("VmRSS")
            play(child)
            report = {"peak_kb": _status_kb("VmHWM") - base, **child.to_dict()}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(report, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        rec.attempted += 1
        rec.fail("round", f"forked round exited with status {status}")
        return float("nan")
    report = json.loads(text)
    rec.merge(report)
    return report["peak_kb"] * 1024 / 1e6


def golden_probe(wl, golden, tmp):
    """One round at smoke size and the golden seed, checked against its digest.

    Runs on every seed, so a change to the container bytes fails any run.
    """
    rec = Recorder()
    expected = golden.get("smoke", {}).get(wl.name)
    if expected is None:
        return rec
    probe_dir = os.path.join(tmp, "golden")
    os.mkdir(probe_dir)
    state = State(seed=golden["seed"], size=SIZES["smoke"][wl.name], tmp=probe_dir)
    state.expected_digest = expected
    wl.setup(state)
    wl.round(state, rec)
    return rec


def run_workload(name, seed, seconds, trace, mode, out_dir):
    """Run one workload; returns its result record."""
    wl = WORKLOADS[name]
    spec = load_spec()
    golden = json.loads(_read(GOLDEN_PATH, "{}"))
    size = SIZES[mode][name]

    def play(rec):
        gc.collect()
        rec.begin_round()
        wl.round(state, rec)
        rec.end_round()

    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=out_dir) as tmp:
        setup_times = []

        def set_up(where):
            fresh = State(seed=seed, size=size, tmp=where)
            gc.collect()
            began = perf_counter()
            wl.setup(fresh)
            setup_times.append(perf_counter() - began)
            return fresh

        def set_up_again():
            while sum(setup_times) < SETUP_SHARE * (perf_counter() - start):
                set_up(spare)

        state = set_up(tmp)
        spare = os.path.join(tmp, "spare")
        os.mkdir(spare)
        if seed == golden.get("seed"):
            state.expected_digest = golden.get(mode, {}).get(name)

        plain = Recorder()
        recorders = [plain]
        cycle = [set_up_again, lambda: play(plain)]
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            traced = Recorder(tracer=tracer)
            recorders.append(traced)

            def traced_round():
                tracer.install()
                try:
                    play(traced)
                finally:
                    tracer.uninstall()

            cycle.insert(0, traced_round)
        start = perf_counter()
        peak_mb = forked_round(play, plain)
        _loop(start, seconds, cycle)
        recorders.append(golden_probe(wl, golden, tmp))
        prov = provenance(tmp)

    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    errors = [e for r in recorders for e in r.errors]
    named = []
    if not failed:
        named = [
            ("setup_s", min(setup_times), "s", f"fastest of {len(setup_times)} set-ups"),
            ("peak_mem_mb", peak_mb, "MB", "resident memory added by the first round"),
        ] + wl.named_metrics(state, plain)

    metrics = {}
    coverage = {}
    if not failed and not trace:
        values = {
            "work_per_s": wl.units_per_round(state) / best_round_s(plain),
            "peak_mem_mb": peak_mb,
            "setup_s": min(setup_times),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    if not failed and trace:
        per_layer, coverage = layer_metrics(tracer, traced, plain)
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}

    result = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "mode": mode,
        "sizes": size,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "container_sha256": state.digest,
        "named_metrics": [
            {"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in named
        ],
        "metrics": metrics,
        "samples": {kind: s for kind, s in plain.samples.items()},
        "round_totals_s": plain.round_totals,
        "within_run_spread": {
            kind: spread(s) for kind, s in list(plain.samples.items()) + [("round", plain.round_totals)]
        },
        "setup_times_s": setup_times,
        "coverage": coverage,
        "provenance": prov,
        "observed_run_to_run_spread": json.loads(_read(BASELINE_PATH, "null")),
    }
    stem = f"{name}-seed{seed}-trace{trace}"
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"spans-{stem}.csv"))
    with open(os.path.join(out_dir, f"results-{stem}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def layer_metrics(tracer, traced, plain):
    """Per-round layer metrics from the traced rounds, plus tracing overhead."""
    rounds = len(traced.round_totals)
    agg = tracer.aggregate()
    out = {}
    for name in tracing.span_names():
        calls, total, own, count = agg.get(name, (0, 0, 0, 0))
        out[f"{name}.calls"] = calls / rounds
        out[f"{name}.total_s"] = total / 1e9 / rounds
        out[f"{name}.self_s"] = own / 1e9 / rounds
        if name in tracing.COUNTS:
            out[f"{name}.{tracing.COUNTS[name][0]}"] = count / rounds
    out["trace.overhead_s"] = best_round_s(traced) - best_round_s(plain)
    # A root span's self time is the part of the operation no layer claims:
    # benchmark glue plus the wrappers' own bookkeeping. The end-to-end
    # overhead above is a difference of two noisy times; the wrapper cost is
    # the spans recorded times a calibrated cost per span.
    cost_s = tracing.span_cost_ns() / 1e9
    kind_of = {op: name[len(tracing.ROOT_PREFIX):] for name, op, parent, *_ in tracer.spans if parent < 0}
    spans_per_kind = Counter(kind_of[span[1]] for span in tracer.spans)
    out["trace.unattributed_s"] = sum(
        agg[tracing.ROOT_PREFIX + kind][2] for kind in spans_per_kind
    ) / 1e9 / rounds
    out["trace.wrapper_cost_s"] = len(tracer.spans) * cost_s / rounds
    coverage = {}
    for kind, spans in spans_per_kind.items():
        _calls, total, own, _count = agg[tracing.ROOT_PREFIX + kind]
        coverage[kind] = {
            "span_s": total / 1e9 / rounds,
            "layer_self_sum_s": (total - own) / 1e9 / rounds,
            "unattributed_s": own / 1e9 / rounds,
            "wrapper_cost_s": spans * cost_s / rounds,
        }
    return out, coverage


def report(result, spec):
    """Human-readable lines for one workload result."""
    print(
        f"== {result['workload']}  seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} mode={result['mode']}"
    )
    for m in result["named_metrics"]:
        print(f"  {m['name']:<24} {m['value']:>14.6g} {m['unit']:<10} {m['note']}")
    if result["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, entry in result["metrics"].items():
            print(f"  {name:<40} {entry['value']:>14.6g} {units[name]}")
        for kind, cov in result["coverage"].items():
            print(
                f"  coverage {kind}: span {cov['span_s']:.6f} s, layer self sum "
                f"{cov['layer_self_sum_s']:.6f} s, unattributed {cov['unattributed_s']:.6f} s "
                f"(wrapper cost {cov['wrapper_cost_s']:.6f} s)"
            )
    print(f"  operations: attempted {result['attempted']}, failed {result['failed']}")
    for err in result["errors"]:
        print(f"  FAILED {err}")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"), help="results directory")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    mode = "smoke" if args.smoke else "full"
    os.makedirs(args.out, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace, mode, args.out)
        report(result, spec)
        results.append(result)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["metrics"] = {
            f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1
