"""One pass of a klcells benchmark workload, in a fresh interpreter.

run.py starts this script once per pass, one child at a time:

    python3 perfbench/worker.py --src SRC --workload kl-tower --items 24,5,16,8
    python3 perfbench/worker.py --src SRC --workload classify --items Q6,Q3,Q5,Q4 --spans OUT.json.gz
    python3 perfbench/worker.py --src SRC --import-only
    python3 perfbench/worker.py --src SRC --import-numpy

It imports klcells from SRC, calls the public API for each item in the given
order, checks every result against the pins in pins.json (which were copied
from the output of the seed commit, never imported from the program's own
regression data), and prints one JSON line: the import time, the wall and CPU
time spent inside the calls, the child's peak RSS, and the checked calls
attempted and failed.  The time of the calls is also given in seconds at the
reference speed of the core, from probes run while the calls run (speed.py).
With --spans every layer is traced (tracer.py) and no probe runs; the spans
are written to OUT.json.gz and the per-layer metrics join the line.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import speed  # noqa: E402

# the items of each workload; the seed only permutes their order
ITEMS = {
    "kl-tower": ("5", "8", "16", "24"),
    "classify": ("Q3", "Q4", "Q5", "Q6"),
    "verify": ("8",),
}

# classify("Q6") runs at max_rank=4: the default max_rank=6 takes tens of minutes
Q6_MAX_RANK = 4

CHARACTER_TOLERANCE = 1e-9


class Pass:
    """Times the calls into klcells and tallies the checks on their results."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float]] = []
        self.cpu_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((wall, time.perf_counter()))
            self.cpu_s += time.process_time() - cpu

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def run_item(self, what: str, checks: int, body) -> None:
        """Run one item; if it raises, its unchecked results count as failed."""
        before = self.attempted
        try:
            body()
        except Exception as exc:  # a failing call is a result, not a crash
            missing = max(checks - (self.attempted - before), 1)
            self.attempted += missing
            self.failures.extend([f"{what}: {type(exc).__name__}: {exc}"] * missing)


# -- independent checks ------------------------------------------------------------


def table_sha256(c) -> str:
    return hashlib.sha256(json.dumps(c, separators=(",", ":")).encode()).hexdigest()


def qn_labels(n: int) -> list[str]:
    """e followed by the alternating words s, sts, ststs, ... of odd length below n."""
    return ["e"] + [("st" * n)[:length] for length in range(1, n, 2)]


def closed_form_characters(n: int) -> list[list[float]]:
    """chi_0 = (1, 0, ..., 0) and chi_j(kl(s(ts)^k)) = 2 sin((2k+1)j pi/n) / sin(j pi/n)."""
    size = 1 + n // 2
    rows = [[1.0] + [0.0] * (size - 1)]
    for j in range(1, n // 2 + 1):
        rows.append([1.0] + [
            2 * math.sin((2 * k + 1) * j * math.pi / n) / math.sin(j * math.pi / n)
            for k in range(size - 1)
        ])
    return rows


def characters_match(table_rows, n: int) -> bool:
    """Every row is a distinct closed-form character, value by value within 1e-9."""
    expected = closed_form_characters(n)
    if len(table_rows) != len(expected):
        return False
    unused = list(range(len(expected)))
    for row in table_rows:
        values = [float(v) for v in row]
        match = next(
            (
                i for i in unused
                if len(values) == len(expected[i])
                and all(abs(a - b) <= CHARACTER_TOLERANCE for a, b in zip(values, expected[i]))
            ),
            None,
        )
        if match is None:
            return False
        unused.remove(match)
    return True


def as_json(value):
    """Nested tuples as the nested lists pins.json holds."""
    return json.loads(json.dumps(value))


# -- workloads ----------------------------------------------------------------------


def kl_tower(api, items, pins, run: Pass) -> None:
    for item in items:
        n = int(item)
        pin = pins["kl-tower"][item]

        def body() -> None:
            constants = run.call(api.structure_constants, n)
            run.check(f"n={n}: structure-constant table sha256",
                      table_sha256(constants.c) == pin["table_sha256"])
            cells = run.call(api.compute_cells, constants.labels, constants.c,
                             constants.identity_index)
            run.check(f"n={n}: cell label lists",
                      as_json([cells.left, cells.right, cells.two_sided]) == pin["cells"])
            ring = run.call(api.subquotient_qn, n)
            run.check(f"n={n}: Q_n basis", list(ring.labels) == qn_labels(n))
            table = run.call(api.character_table, ring)
            run.check(f"n={n}: characters vs closed form", characters_match(table.rows, n))

        run.run_item(f"n={n}", 4, body)


def classify(api, items, pins, run: Pass) -> None:
    for ring_id in items:
        pin = pins["classify"][ring_id]

        def body() -> None:
            if ring_id == "Q6":
                report = run.call(api.classify, ring_id, max_rank=Q6_MAX_RANK)
                got = {"keys": as_json([c.module.key() for c in report.candidates])}
            else:
                report = run.call(api.classify, ring_id)
                got = {
                    "keys": as_json([c.module.key() for c in report.candidates]),
                    "statuses": [c.status for c in report.candidates],
                }
            run.check(f"{ring_id}: candidate keys and statuses", got == pin)

        run.run_item(ring_id, 1, body)


def verify(api, items, pins, run: Pass) -> None:
    for item in items:

        def body() -> None:
            report = run.call(api.run_suite, max_n=int(item))
            failing = [r.name for r in report.results if not r.ok]
            run.check(f"run_suite({item}): failing checks {failing}",
                      bool(report.results) and report.ok and not failing)

        run.run_item(f"run_suite({item})", 1, body)


WORKLOADS = {"kl-tower": kl_tower, "classify": classify, "verify": verify}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the klcells package")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--items", help="comma-separated items, in the order to run them")
    parser.add_argument("--spans", help="trace every layer and write the spans here")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--import-numpy", action="store_true",
                        help="time only numpy's import, the reference for setup_s")
    args = parser.parse_args()

    if args.import_numpy:
        start = time.perf_counter()
        import numpy  # noqa: F401
        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0

    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    start = time.perf_counter()
    import klcells
    import_s = time.perf_counter() - start
    if not str(Path(klcells.__file__).resolve()).startswith(src):
        print(f"klcells was imported from {klcells.__file__}, not from {src}", file=sys.stderr)
        return 2
    result: dict = {"import_s": import_s}
    if not args.import_only:
        if args.workload is None or args.items is None:
            parser.error("--workload and --items are required unless --import-only")
        items = args.items.split(",")
        if sorted(items) != sorted(ITEMS[args.workload]):
            parser.error(f"--items must be a permutation of {ITEMS[args.workload]}")
        pins = json.loads((HERE / "pins.json").read_text())
        tracer = probe = None
        if args.spans:
            from tracer import Tracer

            tracer = Tracer(klcells)
        else:  # the probe's time would land inside the spans
            probe = speed.SpeedProbe()
            probe.start()
        run = Pass()
        try:
            WORKLOADS[args.workload](klcells, items, pins, run)
        finally:
            if probe is not None:
                probe.stop()
        calls_s = sum(end - start for start, end in run.calls)
        result.update(wall_s=calls_s, attempted=run.attempted, failures=run.failures)
        if probe is not None:
            walls = [probe.measure(start, end) for start, end in run.calls]
            result.update(wall_s=sum(raw for raw, _ in walls),
                          ref_wall_s=sum(ref for _, ref in walls),
                          probe_s=probe.median_probe_s())
        # process_time counts the probes too; their wall time stands in for their CPU time
        result["cpu_s"] = run.cpu_s - (calls_s - result["wall_s"])
        if tracer is not None:
            result["layers"] = tracer.summary()
            with gzip.open(args.spans, "wt") as out:
                json.dump({"fields": ["id", "parent", "name", "tag", "start_ns", "end_ns",
                                      "extra"],
                           "spans": tracer.spans, "counts": tracer.counts}, out)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
