"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, exits 0 and prints every
metric BENCHMARK.json names with its unit; that a deliberately wrong
frozen value is counted as a failure and makes the run exit nonzero; and
that a tree without linfam makes the run exit nonzero without a result.
It also reports whether the known capture-search defect (see CTX_S in
workloads.py) still reproduces; that report does not affect the verdict.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def _run(*extra: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "-B", str(RUN), "--seed", "3",
                           "--seconds", "1", "--size", "tiny", *extra],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    return doc


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            code, lines = _run("--workload", name, "--trace", str(trace))
            doc = _result(lines)
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if code != 0 or not doc["correct"] or doc["failed"]:
                problems.append(f"{name} trace={trace}: exit {code}, {doc}")
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                problems.append(f"{name} trace={trace}: metrics differ, "
                                f"missing {missing}, unexpected {extra}")
            print(f"{name} trace={trace}: exit {code}, {doc['attempted']} checks")

    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT))
    try:
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            wrong = json.load(fh)
        key = workloads._key(workloads.GRAPH_GRID["tiny"][0])
        wrong["spectrum"][key][1] = "1/1000"
        bad = scratch / "wrong.json"
        bad.write_text(json.dumps(wrong), encoding="utf-8")
        code, lines = _run("--workload", "graphs", "--expected", str(bad))
        doc = _result(lines)
        print(f"wrong expected value: exit {code}, failed {doc['failed']}")
        if code == 0 or doc["correct"] or doc["failed"] < 1:
            problems.append("a wrong expected value was not counted as a failure")

        empty = scratch / "empty"
        empty.mkdir()
        code, lines = _run("--workload", "transform", "--src", str(empty))
        print(f"no linfam tree: exit {code}, {len(lines)} stdout lines")
        if code == 0 or lines:
            problems.append("a missing linfam tree did not fail without a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"known capture-search defect: {_defect_status()}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _defect_status() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = (
        "import sys; sys.dont_write_bytecode = True; "
        f"sys.path.insert(0, {str(HERE)!r}); "
        "import linfam, linfam.mis, workloads; "
        "F = workloads.defect_family(linfam); "
        "linfam.regularity_decompose(F, 2, 2)")
    proc = subprocess.run([sys.executable, "-B", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode == 0:
        return "no longer reproduces; CTX_S can return to REG_S"
    return "still reproduces (" + proc.stderr.strip().splitlines()[-1] + ")"


if __name__ == "__main__":
    sys.exit(main())
