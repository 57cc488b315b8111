"""linfam benchmark runner.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 30 --trace 0

For --seconds seconds (at least two iterations) it repeats one iteration:
a fresh interpreter runs the workload's batch (worker.py), two more only
set up, and fresh interpreters run the workload's fixed linfam subcommand
for at least 3 s.  Children run one at a time and every one starts cold,
as each linfam command does.  The first batch also runs the oracle checks;
after the loop one more child checks the subcommand's output.  End-to-end
metrics (--trace 0) are medians over the samples, with times rescaled to a
fixed machine speed (clock.py).  With --trace 1 untraced and traced
batches alternate, and the traced ones give the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every check passed.  --workload all
runs the three workloads in turn and prints each one's result.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CHILD_TIMEOUT = 150.0
MIN_ITERATIONS = 2
SETUPS_PER_ITERATION = 3   # setup_s samples: the batch child's, plus two more
# the subcommand is short: in every iteration, run it at least twice and
# until this much time has gone into it
CLI_SECONDS_PER_ITERATION = 3.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB", "cli_s": "s"}


class RunFailed(Exception):
    """A child process crashed or timed out."""


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"   # set iteration order, hence timings, repeat
    return env


class Runner:
    def __init__(self, args, src: Path, tmp: Path):
        self.args = args
        self.src = src
        self.tmp = tmp
        self.env = _env(src)
        self.attempted = 0
        self.failed = []

    def record(self, checks) -> None:
        for label, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed.append(label)

    def worker(self, mode: str, sample: int, trace: int = 0,
               oracle: int = 0) -> dict:
        a = self.args
        spawn = time.monotonic()
        cmd = [sys.executable, "-B", str(WORKER), "--mode", mode,
               "--src", str(self.src), "--workload", a.workload,
               "--seed", str(a.seed), "--size", a.size, "--trace", str(trace),
               "--oracle", str(oracle), "--sample", str(sample),
               "--spawn-ts", repr(spawn), "--tmp", str(self.tmp),
               "--expected", str(a.expected)]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT, cwd=self.tmp)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} child exceeded {CHILD_TIMEOUT}s")
        lines = proc.stdout.strip().splitlines()
        try:
            doc = json.loads(lines[-1]) if lines else {}
        except ValueError:
            doc = {"error": f"unreadable output: {lines[-1][:200]}"}
        if proc.returncode != 0 or "error" in doc:
            raise RunFailed(doc.get("error") or proc.stderr[-2000:])
        self.record(doc.get("checks", []))
        return doc

    def cli(self) -> tuple[float, float, str]:
        """One run of the subcommand in a fresh interpreter: (seconds scaled
        to the nominal speed by probes just before and after, raw seconds,
        stdout)."""
        argv = workloads.cli_argv(self.args.workload, self.args.size, str(self.tmp))
        cmd = [sys.executable, "-B", "-m", "linfam.cli", *argv]
        p0 = clock.probe()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT, cwd=self.tmp)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"linfam {argv[0]} exceeded {CHILD_TIMEOUT}s")
        secs = time.perf_counter() - t0
        scale = clock.NOMINAL_PROBE_S / ((p0 + clock.probe()) / 2)
        self.record([(f"cli {argv[0]} exit code 0", proc.returncode == 0)])
        return secs * scale, secs, proc.stdout


def measure(args, runner: Runner) -> dict:
    """The iteration loop of one run; returns the samples it took."""
    samples = {"untraced": [], "traced": [], "setup_s": [], "raw_setup_s": [],
               "cli_s": [], "raw_cli_s": [], "cli_main": []}
    digests, cli_digests = set(), set()
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    i = 0
    # at least two samples per median; after that, start another
    # iteration only if one more like the last still fits
    while i < MIN_ITERATIONS or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        traced = args.trace == 1 and i % 2 == 1
        doc = runner.worker("batch", i, trace=int(traced), oracle=int(i == 0))
        samples["traced" if traced else "untraced"].append(doc)
        digests.add(doc["digest"])
        if not traced:
            for sdoc in [doc] + [runner.worker("setup", i)
                                 for _ in range(SETUPS_PER_ITERATION - 1)]:
                samples["setup_s"].append(sdoc["setup_s"])
                samples["raw_setup_s"].append(sdoc["raw"]["setup_s"])
        if traced:
            cdoc = runner.worker("cli", i)
            samples["cli_main"].append(cdoc["layers"])
            runner.record([("in-process cli exit code 0", cdoc["exit"] == 0)])
            cli_digests.add(cdoc["digest"])
        else:
            spent, runs = 0.0, 0
            while runs < 2 or spent < CLI_SECONDS_PER_ITERATION:
                secs, raw, stdout = runner.cli()
                samples["cli_s"].append(secs)
                samples["raw_cli_s"].append(raw)
                cli_digests.add(hashlib.sha256(stdout.encode()).hexdigest())
                spent += raw
                runs += 1
            if i == 0:
                (runner.tmp / "cli_stdout.txt").write_text(stdout, encoding="utf-8")
        last = time.perf_counter() - t0
        i += 1
    runner.worker("clicheck", i)
    runner.record([("batch outputs identical across samples", len(digests) == 1),
                   ("cli stdout identical across runs", len(cli_digests) == 1)])
    return samples


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(args, samples: dict) -> dict:
    if args.trace == 0:
        runs = samples["untraced"]
        vals = {key: _median([d[key] for d in runs])
                for key in ("wall_s", "cpu_s", "peak_rss_mib")}
        vals["setup_s"] = _median(samples["setup_s"])
        vals["cli_s"] = _median(samples["cli_s"])
        return {k: {"value": vals[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    traced = [d["layers"] for d in samples["traced"]] + samples["cli_main"]
    out = {}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            continue
        vals = [d[name] for d in traced if name in d]
        if vals:
            out[name] = {"value": _median(vals), "unit": unit}
    overhead = (_median([d["wall_s"] for d in samples["traced"]])
                - _median([d["wall_s"] for d in samples["untraced"]]))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the speed probes
    run where the measured work runs."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args, src: Path) -> dict:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    runner = Runner(args, src, tmp)
    env_before = environment()
    try:
        samples = measure(args, runner)
        metrics = summarize(args, samples)
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        runner.attempted += 1
        runner.failed.append(f"child failed: {str(e).strip().splitlines()[-1:]}")
        samples, metrics = None, {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    result = {"correct": not runner.failed and bool(metrics),
              "attempted": max(1, runner.attempted),
              "failed": len(runner.failed), "metrics": metrics}
    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "size": args.size, "seconds": args.seconds, "src": str(src),
               "env_before": env_before, "env_after": environment(),
               "samples": None if samples is None else {
                   "wall_s": [d["wall_s"] for d in samples["untraced"]],
                   "traced_wall_s": [d["wall_s"] for d in samples["traced"]],
                   "setup_s": samples["setup_s"],
                   "raw_setup_s": samples["raw_setup_s"],
                   "cli_s": samples["cli_s"],
                   "raw": [d["raw"] for d in samples["untraced"]
                           + samples["traced"]],
                   "raw_cli_s": samples["raw_cli_s"]},
               "error_rate": len(runner.failed) / max(1, runner.attempted),
               "failed_checks": runner.failed[:20]}
    _save(args, context, result, samples)
    print(json.dumps({"context": context}))
    return result


def _save(args, context: dict, result: dict, samples) -> None:
    """Keep the full result, and the spans of a traced run, under .perfbench_out."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1), encoding="utf-8")
    if samples and samples["traced"]:
        spans = [sp for d in samples["traced"] for sp in d["spans"]]
        (out / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description="linfam benchmark runner")
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="linfam source tree to measure (default: ./src)")
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny shrinks every input, for the self-test")
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="frozen values for the checks")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    if not (src / "linfam" / "__init__.py").is_file():
        print(f"error: no linfam package under {src}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        results[name] = run_one(args, src)
        res = results[name]
        for metric, mv in res["metrics"].items():
            print(f"{name:9s} {metric:40s} {mv['value']:.6g} {mv['unit']}")
        print(f"{name:9s} {'error_rate':40s} {res['failed'] / res['attempted']:.6g} ratio")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
