"""One measured child process of the benchmark.

run.py starts this script in a fresh interpreter (with -B, so no bytecode
lands in the measured source tree) for every sample, one at a time.  It
prints one JSON object on stdout.

Modes:
  batch     set up (import linfam, generate inputs), run the workload's
            batch, check its outputs.  With --trace 1 the batch runs under
            a Tracer and the per-layer metrics are reported.
  setup     set up only: one more setup_s sample.
  cli       run the workload's CLI subcommand in-process through
            linfam.cli.main under a Tracer (the cli.main_s metric).
  clicheck  check the saved stdout of the CLI subcommand.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

sys.dont_write_bytecode = True

import clock  # noqa: E402  (sibling modules; bytecode switched off first)
import tracing  # noqa: E402
import workloads  # noqa: E402


def _import_linfam(src: str):
    sys.path.insert(0, src)
    import linfam
    import linfam.cli  # noqa: F401  (loaded so a tracer can wrap cli.main)
    import linfam.mis  # noqa: F401
    return linfam


def _load_expected(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def batch(args) -> dict:
    lf = _import_linfam(args.src)
    inputs = workloads.generate(args.workload, lf, args.seed, args.size)
    raw_setup_s = time.monotonic() - args.spawn_ts
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{args.sample}")
        tracer.install(lf)
    clk = clock.Clock()
    outputs = workloads.run(args.workload, lf, inputs, clk)
    clk.finish()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"setup_s": raw_setup_s * clock.NOMINAL_PROBE_S / clk.probes[0],
           "wall_s": clk.wall, "cpu_s": clk.cpu, "peak_rss_mib": peak_rss_mib,
           "raw": {"setup_s": raw_setup_s, "wall_s": clk.raw_wall,
                   "cpu_s": clk.raw_cpu, "probes": clk.probes}}
    if tracer is not None:
        scale = clk.wall / clk.raw_wall if clk.raw_wall else 1.0
        out["layers"] = _layer_metrics(tracer, lf, args.seed, scale)
        out["spans"] = tracer.dump()
    checks = workloads.check(args.workload, lf, inputs, outputs,
                             _load_expected(args.expected), bool(args.oracle))
    out["checks"] = [[label, bool(ok)] for label, ok in checks]
    out["digest"] = workloads.digest(args.workload, outputs)
    if args.oracle:
        workloads.write_cli_input(args.workload, lf, args.seed, args.size, args.tmp)
    return out


def setup(args) -> dict:
    lf = _import_linfam(args.src)
    workloads.generate(args.workload, lf, args.seed, args.size)
    raw_setup_s = time.monotonic() - args.spawn_ts
    clock.probe()   # warm-up, as in Clock
    return {"setup_s": raw_setup_s * clock.NOMINAL_PROBE_S / clock.probe(),
            "raw": {"setup_s": raw_setup_s}}


def _layer_metrics(tracer: tracing.Tracer, lf, seed: int, scale: float) -> dict:
    """Per-layer metrics; times and rates are rescaled to the nominal speed
    by the batch's own factor (scale), the kernel slices by a fresh probe."""
    metrics = {f"{name}_s": secs * scale for name, secs in tracer.totals().items()}
    metrics.update({f"{layer}.self_s": secs * scale
                    for layer, secs in tracer.self_times().items()})
    metrics["fourier.butterfly.cells_per_s"] = tracer.work_rate(
        ("fourier.fast_transform", "fourier.inverse_transform")) / scale
    metrics["spectra.spectrum.matrices_per_s"] = (
        tracer.work_rate(("spectra.spectrum",)) / scale)
    caps = tracer.results("families.is_captureable")
    metrics["families.captures_found"] = sum(caps) / len(caps) if caps else 0.0
    metrics["families.regularity.nodes"] = sum(
        tracer.results("families.regularity_decompose"))
    for key, metric in (("matspace.rank_table", "matspace.rank_table.misses"),
                        ("matspace.subspaces_of_dim",
                         "matspace.subspaces_of_dim.misses")):
        misses = tracer.cache_misses(key)
        if misses is not None:   # absent once the cache is gone
            metrics[metric] = misses
    kernel_scale = clock.probe() / clock.NOMINAL_PROBE_S
    rates = tracing.cyclo_kernel(lf, seed, 8000)
    rates.update(tracing.gf_kernel(lf, seed, 1000000))
    metrics.update({k: v * kernel_scale for k, v in rates.items()})
    return metrics


def cli(args) -> dict:
    lf = _import_linfam(args.src)
    tracer = tracing.Tracer(f"{args.workload}-{args.seed}-cli-{args.sample}")
    tracer.install(lf)
    argv = workloads.cli_argv(args.workload, args.size, args.tmp)
    buf = io.StringIO()
    clock.probe()   # warm-up
    p0 = clock.probe()
    with contextlib.redirect_stdout(buf):
        code = lf.cli.main(argv)
    scale = clock.NOMINAL_PROBE_S / ((p0 + clock.probe()) / 2)
    stdout = buf.getvalue()
    return {"layers": {"cli.main_s": tracer.totals()["cli.main"] * scale,
                       "cli.self_s": tracer.self_times()["cli"] * scale},
            "exit": code,
            "digest": hashlib.sha256(stdout.encode()).hexdigest()}


def clicheck(args) -> dict:
    lf = _import_linfam(args.src)
    with open(f"{args.tmp}/cli_stdout.txt", encoding="utf-8") as fh:
        stdout = fh.read()
    checks = workloads.check_cli_stdout(args.workload, lf, args.seed, args.size,
                                        args.tmp, stdout,
                                        _load_expected(args.expected))
    return {"checks": [[label, bool(ok)] for label, ok in checks]}


MODES = {"batch": batch, "setup": setup, "cli": cli, "clicheck": clicheck}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=sorted(MODES), default="batch")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sample", type=int, default=0)
    ap.add_argument("--spawn-ts", type=float, default=0.0,
                    help="time.monotonic() just before the parent spawned us")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--expected", required=True)
    args = ap.parse_args()
    try:
        out = MODES[args.mode](args)
    except Exception:   # reported to the parent, which counts it as a failure
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
