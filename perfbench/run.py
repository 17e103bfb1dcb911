"""klcells benchmark: the KL tower, the module search and the verify suite.

    python3 perfbench/run.py --workload kl-tower|classify|verify --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is the parent of this directory and the
program is imported from its src/.  All load comes from this one process,
one child interpreter at a time (the reference box has 2 cores):

1. one import of klcells to compile its bytecode (not measured);
2. SETUP_SAMPLES fresh interpreters that only import klcells;
3. passes for S seconds: a next pass starts only if, at the mean pass time
   so far, it would end within S (there is at least one).  Each pass is a
   fresh interpreter (worker.py) calling the workload's public API in the
   order the seed permutes, and checking every result against pins.json.
   ref_wall_s and peak_rss_mb are medians over passes, and setup_s is the
   median import time over every child but the first.  ref_wall_s is in
   seconds at the reference speed of the core (speed.py), because the
   reference box's cores change speed by 20-40 % within seconds; the raw
   wall_s is printed too, and is a per-layer metric of the traced run.

With --trace 0 the last line holds the end-to-end metrics of BENCHMARK.json.
With --trace 1 each pass is a pair: an untraced pass, then a traced one that
wraps every layer (tracer.py); the last line holds the per-layer metrics
(medians over traced passes), spans go to perfbench/out/, and the setup_s
split between numpy and klcells proper comes from `python -X importtime`.
Outside a checkout with src/klcells the script exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from worker import ITEMS  # noqa: E402

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
# every child and the whole run must finish well inside the 180 s limit
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child(args: list[str], deadline: float, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the next child")
    try:
        proc = subprocess.run(
            [sys.executable, *flags, str(HERE / "worker.py"), "--src", str(SRC), *args],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run killed and reaped it
        raise BenchError(f"child {args} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc


def worker_result(args: list[str], deadline: float) -> dict:
    return json.loads(child(args, deadline).stdout.strip().splitlines()[-1])


def setup_sample(deadline: float) -> dict:
    """klcells' import time, scaled by numpy's timed in the next fresh interpreter."""
    import_s = worker_result(["--import-only"], deadline)["import_s"]
    numpy_s = worker_result(["--import-numpy"], deadline)["import_s"]
    return {"import_s": import_s, "numpy_s": numpy_s,
            "ref_import_s": import_s * speed.REFERENCE_NUMPY_IMPORT_S / numpy_s}


def importtime_split(deadline: float) -> tuple[float, float]:
    """Seconds spent importing numpy, and klcells without numpy, per -X importtime."""
    stderr = child(["--import-only"], deadline, ("-X", "importtime")).stderr
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    if "klcells" not in cumulative:
        raise BenchError("-X importtime did not report klcells")
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative["klcells"] - numpy_s


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    worker_result(["--import-only"], deadline)  # compiles bytecode; not measured
    setup = [setup_sample(deadline) for _ in range(SETUP_SAMPLES)]
    split = []
    if trace:
        split = [importtime_split(deadline) for _ in range(IMPORTTIME_SAMPLES)]
        OUT.mkdir(exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    passes, traced = [], []
    start = time.monotonic()
    while True:
        items = ",".join(rng.sample(ITEMS[workload], len(ITEMS[workload])))
        args = ["--workload", workload, "--items", items]
        passes.append(worker_result(args, deadline))
        if trace:
            spans = OUT / f"{workload}-seed{seed}-pass{len(traced)}.spans.json.gz"
            traced.append(worker_result([*args, "--spans", str(spans)], deadline))
        setup.append(setup_sample(deadline))  # so the samples spread over the whole run
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:  # the next pass would overrun
            break
    attempted = sum(p["attempted"] for p in passes + traced)
    failures = [f for p in passes + traced for f in p["failures"]]
    result = {
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "ref_wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["ref_import_s"] for p in setup),
        "import_s": statistics.median(p["import_s"] for p in setup),
        "numpy_s": statistics.median(p["numpy_s"] for p in setup),
        "setup_samples": len(setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "failed_frac": len(failures) / attempted,
    }
    if trace:
        names = set().union(*(p["layers"] for p in traced))
        layers = {
            name: statistics.median(p["layers"].get(name, 0.0) for p in traced)
            for name in sorted(names)
        }
        layers["setup.numpy_import_s"] = statistics.median(s[0] for s in split)
        layers["setup.klcells_import_s"] = statistics.median(s[1] for s in split)
        layers["setup.import_s"] = result["import_s"]
        layers["setup.reference_numpy_import_s"] = result["numpy_s"]
        layers["process.wall_s"] = result["wall_s"]
        layers["process.probe_s"] = statistics.median(p["probe_s"] for p in passes)
        layers["process.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["wall_s"]
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "klcells" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: no klcells sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    walls = sorted(p["wall_s"] for p in result["passes"])
    refs = sorted(p["ref_wall_s"] for p in result["passes"])
    print(f"workload {args.workload}, seed {args.seed}, {len(walls)} untraced passes "
          f"(wall {walls[0]:.4f} .. {walls[-1]:.4f} s, at reference speed "
          f"{refs[0]:.4f} .. {refs[-1]:.4f} s), {result['setup_samples']} set-up imports")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<12} {result[m['name']]:.6g} {m['unit']}")
    print(f"  {'wall_s':<12} {result['wall_s']:.6g} s (raw, not scaled)")
    print(f"  {'failed_frac':<12} {result['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        metrics = {
            m["name"]: {"value": result["layers"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        summary = OUT / f"{args.workload}-seed{args.seed}.layers.json"
        summary.write_text(json.dumps(result["layers"], indent=1, sort_keys=True))
        print(f"  per-layer metrics: {summary.relative_to(ROOT)}")
    else:
        metrics = {
            m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
