"""End-to-end benchmark of `vnum batch` on seeded graph6 inputs.

    python3 bench/run.py --workload cm36 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the program is taken from `src/`
there, byte-compiled first; nothing is installed).  One run:

1. writes the workload's inputs for the seed (bench/workloads.py);
2. set-up: starts a fresh interpreter that imports vnum and parses the
   inputs, SETUP_REPEATS times, and keeps the median wall time;
3. rounds, until --seconds have passed (at least one): `vnum batch
   --graph6 --json` at one worker, then at `--parallel nproc`, each in a
   fresh process so that no batch inherits another's caches;
4. checks every row of the first one-worker output with bench/checker.py and
   requires every later output to be byte-identical to it;
5. with --trace 1, runs one more one-worker batch under bench/tracer.py and
   derives the per-layer metrics from its spans.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; progress goes to standard error.
An input counts as failed in a batch when its row is an error row, differs
from the checked reference, fails a check, or the batch exits nonzero.
Outputs of the last run of each workload are left in .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11
# A batch that runs longer than this is killed and all its inputs fail, so
# that one run stays within its 180 s.
BATCH_LIMIT_S = 150.0

SETUP_CODE = (
    "import sys, vnum.cli\n"
    "from vnum.formats import parse_graph6\n"
    "with open(sys.argv[1]) as fh:\n"
    "    docs = [parse_graph6(ln).to_clutter() for ln in fh if ln.strip()]\n"
)


@dataclass
class Finished:
    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed hashing keeps set iteration, and so the work done, the same
    # from run to run; VNUM_THREADS would override --parallel.
    env["PYTHONHASHSEED"] = "0"
    env.pop("VNUM_THREADS", None)
    return env


def run_timed(argv: list[str], out_path: Path) -> Finished:
    """Run one fresh process to its end; wall time and its own peak RSS."""
    with open(out_path, "wb") as out, open(f"{out_path}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=program_env(), stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(BATCH_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind, if any
    except ProcessLookupError:
        pass
    return Finished(wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes())


def batch_argv(inputs: Path, field: str, workers: int) -> list[str]:
    return [
        "batch", str(inputs), "--graph6", "--json", "--field", field,
        "--parallel", str(workers),
    ]


class Verdicts:
    """Counts failed inputs against the checked first one-worker output."""

    def __init__(self, cases: list[workloads.Case], field: str, reference: Finished):
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines = reference.stdout.splitlines()
        self.bad: set[int] = set()
        if reference.code != 0 or len(self.lines) != len(cases):
            self.lines = None
            self.problems.append(
                f"reference batch exited {reference.code} with "
                f"{len(reference.stdout.splitlines())} rows for {len(cases)} inputs"
            )
            return
        rows = []
        for i, (line, case) in enumerate(zip(self.lines, cases)):
            try:
                row = json.loads(line)
            except ValueError:
                row = {"error": "row is not JSON"}
            rows.append(row)
            found = checker.check_row(row, case, i, field)
            if found:
                self.bad.add(i)
                self.problems += [f"{case.label} (line {i + 1}): {p}" for p in found]
        split = checker.check_split(rows, cases, field)
        if split:
            self.problems += split
            self.bad.update(i for i, c in enumerate(cases) if c.cm36)

    def count(self, fin: Finished, what: str) -> None:
        self.attempted += len(self.cases)
        lines = fin.stdout.splitlines()
        if self.lines is None or fin.code != 0 or len(lines) != len(self.lines):
            self.failed += len(self.cases)
            self.problems.append(f"{what}: exit {fin.code}, {len(lines)} rows")
            return
        differ = {i for i, (a, b) in enumerate(zip(lines, self.lines)) if a != b}
        if differ:
            self.problems.append(f"{what}: {len(differ)} rows differ from one worker")
        self.failed += len(differ | self.bad)


def _base(name: str) -> str:
    return name.split("[", 1)[0]


class SpanTable:
    """Inclusive, self and call totals per span name from a tracer dump."""

    def __init__(self, dump: dict):
        names = dump["names"]
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        for idx, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            base = _base(name)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + end - start - child[idx]
            # A span inside another of the same function is already counted.
            up = parent
            while up >= 0 and _base(names[spans[up][0]]) != base:
                up = spans[up][3]
            if up < 0:
                self.inclusive[name] = self.inclusive.get(name, 0.0) + end - start
        self.caches = dump["caches"]

    def _sum(self, table: dict, name: str, field: str = "") -> float:
        if field:
            return table.get(f"{name}[{field}]", 0)
        return sum(v for k, v in table.items() if _base(k) == name)

    def seconds(self, name: str, field: str = "") -> float:
        return self._sum(self.inclusive, name, field)

    def count(self, name: str) -> int:
        return self._sum(self.calls, name)

    def self_seconds(self, name: str) -> float:
        return self._sum(self.self_time, name)

    def hit_ratio(self, cache: str) -> float:
        info = self.caches.get(cache, {"hits": 0, "misses": 0})
        looked = info["hits"] + info["misses"]
        return info["hits"] / looked if looked else 0.0

    def entries(self, module: str) -> int:
        return sum(
            v["currsize"] for k, v in self.caches.items() if k.startswith(module + ".")
        )


def layer_metrics(t: SpanTable, efficiency: float, overhead: float) -> dict:
    s, n, r = "s", "count", "ratio"
    return {
        "formats.parse_s": (
            t.seconds("formats.parse_graph6") + t.seconds("formats.InputDocument.to_clutter"), s),
        "clutters.min_covers_s": (t.seconds("clutters.Clutter.minimal_cover_masks"), s),
        "clutters.min_covers_calls": (t.count("clutters.Clutter.minimal_cover_masks"), n),
        "clutters.min_covers_cache_hit_ratio": (t.hit_ratio("clutters._minimal_transversals"), r),
        "clutters.v_comb_s": (t.seconds("clutters.Clutter.v_number_with_witness"), s),
        "clutters.independence_calls": (t.count("clutters.Clutter.independence_number"), n),
        "clutters.cache_entries": (t.entries("clutters"), n),
        "monomials.v_alg_s": (t.seconds("monomials.v_number_algebraic"), s),
        "monomials.symbolic_power_s": (t.seconds("monomials.symbolic_power"), s),
        "monomials.polarize_s": (t.seconds("monomials.polarize"), s),
        "complexes.reg_q_s": (t.seconds("complexes.regularity", "Q"), s),
        "complexes.reg_f2_s": (t.seconds("complexes.regularity", "F2"), s),
        "complexes.rank_q_calls": (t.count("complexes.rank_int_matrix"), n),
        "complexes.rank_q_s": (t.seconds("complexes.rank_int_matrix"), s),
        "complexes.rank_f2_calls": (t.count("complexes.rank_gf2"), n),
        "complexes.rank_f2_s": (t.seconds("complexes.rank_gf2"), s),
        "complexes.cm_s": (t.seconds("complexes.is_cohen_macaulay"), s),
        "complexes.cm_cache_hit_ratio": (t.hit_ratio("complexes._cm_recursive"), r),
        "complexes.vd_s": (t.seconds("complexes.is_vertex_decomposable"), s),
        "complexes.cache_entries": (t.entries("complexes"), n),
        "classify.report_s": (t.seconds("classify.full_report"), s),
        "classify.report_self_s": (t.self_seconds("classify.full_report"), s),
        "classify.edge_criticality_calls": (t.count("classify.edge_criticality"), n),
        "classify.w2_s": (t.seconds("classify.is_w2"), s),
        "classify.sscm_s": (t.seconds("classify.symbolic_square_cm"), s),
        "classify.oracle_calls": (t.count("classify._symbolic_square_cm_oracle"), n),
        "cli.batch_self_s": (t.self_seconds("cli.cmd_batch"), s),
        "cli.parallel_efficiency": (efficiency, r),
        "trace.overhead_ratio": (overhead, r),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="vnum batch benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "vnum" / "cli.py").is_file():
        print(f"no vnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"], cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL,
    )
    cases = workloads.make_cases(args.workload, args.seed)
    field = workloads.FIELD[args.workload]
    out = ROOT / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    inputs = out / "inputs.g6"
    inputs.write_text("".join(c.graph6 + "\n" for c in cases))
    workers = len(os.sched_getaffinity(0))

    setups = [
        run_timed([sys.executable, "-c", SETUP_CODE, str(inputs)], out / "setup.out")
        for _ in range(SETUP_REPEATS)
    ]
    if any(f.code != 0 for f in setups):
        print("set-up failed: " + (out / "setup.out.err").read_text(), file=sys.stderr)
        return 1

    vnum = [sys.executable, "-m", "vnum.cli"]
    one, many = [], []
    verdicts = None
    deadline = time.perf_counter() + args.seconds
    while not one or time.perf_counter() < deadline:
        fin = run_timed(vnum + batch_argv(inputs, field, 1), out / "batch-1w.jsonl")
        if verdicts is None:
            verdicts = Verdicts(cases, field, fin)
        verdicts.count(fin, f"round {len(one) + 1}, one worker")
        one.append(fin)
        fin = run_timed(vnum + batch_argv(inputs, field, workers), out / "batch-nw.jsonl")
        verdicts.count(fin, f"round {len(many) + 1}, {workers} workers")
        many.append(fin)

    rate_1w = statistics.median(len(cases) / f.wall_s for f in one)
    rate_nw = statistics.median(len(cases) / f.wall_s for f in many)
    if args.trace:
        spans_path = out / "spans.json"
        spans_path.unlink(missing_ok=True)
        traced = run_timed(
            [sys.executable, str(BENCH / "tracer.py"), str(spans_path)]
            + batch_argv(inputs, field, 1),
            out / "batch-traced.jsonl",
        )
        verdicts.count(traced, "traced run")
        if not spans_path.is_file():
            print(f"the traced run left no spans (exit {traced.code})", file=sys.stderr)
            return 1
        table = SpanTable(json.loads(spans_path.read_text()))
        overhead = traced.wall_s / statistics.median(f.wall_s for f in one)
        raw = layer_metrics(table, rate_nw / (workers * rate_1w), overhead)
    else:
        raw = {
            "setup_s": (statistics.median(f.wall_s for f in setups), "s"),
            "graphs_per_s_1w": (rate_1w, "1/s"),
            "graphs_per_s_nw": (rate_nw, "1/s"),
            "peak_rss_mb": (statistics.median(f.peak_rss_mb for f in one), "MB"),
        }

    for p in verdicts.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(cases)} inputs, {len(one)} rounds, "
        f"{workers} workers; 1w {[round(f.wall_s, 3) for f in one]} s, "
        f"nw {[round(f.wall_s, 3) for f in many]} s",
        file=sys.stderr,
    )
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
