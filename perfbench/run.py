"""The pgf benchmark: three workloads over the acceptance matrix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  pgf is imported from its src/
directory; nothing is installed.  The run sets up MIN_SETUPS times, then
runs whole rounds of the workload's operations while another round still
ends within S seconds (at least one), so every run attempts the same
operations in the same proportion.  Within a round the repeats of each
operation are spread evenly (schedule()); the seed only orders the
operations that share a place.  The inputs are fixed acceptance specs and
fixed identity samples, so every count is the same for every seed.

Each `pgf` command runs as a child process (one at a time) in a fresh
working directory under .perfbench/work, without PGF_CACHE_DIR and without
--cache-dir, so every run computes and nothing lands in the repository.
The children and this process run numpy's BLAS on one thread (THREADS).
The identity suites and the search call pgf in this process.  Every output
is checked by checks.py.  The last line of stdout is the result JSON; it is
also written, with the trace of a traced run, under .perfbench/.

--trace 0 reports the end-to-end metrics: per operation the median of its
times, summed by kind.  --trace 1 wraps pgf's functions (tracer.py) and
reports the per-layer metrics, each the median over rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_SETUPS = 3
CHILD_TIMEOUT = 150
SEARCH_NODES = 2000            # node budget N of the cross-modulus search
IDENTITY_SAMPLES = 10 ** 4     # check_class3_identities default sample count
IDENTITY_EXHAUSTIVE = 300      # the suite is exhaustive up to this order
# repeats per round of the operations whose single times spread most
SMALL_REPS = 14                # the short commands of small-exhaustive
SAMPLED_REPS = 8               # a sampled identity suite, each on a fresh group
DECISION_REPS = 2              # an isoclinism decision through the CLI
INVARIANT_REPS = 4             # the invariants command of beyond-table
# idle BLAS threads would take the second of two cores from the timed work
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
IMPORT_CODE = "import time; t = time.perf_counter(); import pgf.cli; print(time.perf_counter() - t)"

TIMED_KINDS = ("invariants", "verify", "isoclinic", "identities")
IN_PROCESS = ("identities", "search")   # every other kind is a pgf command


@dataclass(frozen=True)
class Op:
    kind: str                  # invariants | verify | isoclinic | identities | search
    args: tuple                # pgf CLI arguments, or the specs of an in-process call
    expect: str = ""           # isoclinic | refuted, for decisions
    reps: int = 1
    at: float = 0.5            # where a single run of it sits in a round, 0..1

    @property
    def key(self) -> str:
        return " ".join(self.args if self.args[0] == self.kind else (self.kind, *self.args))


def _cli(*args, **kw) -> Op:
    return Op(args[0], args, **kw)


WORKLOADS = {
    # short commands at m = 1: interpreter start, import, report writing
    # and the product memo table (orders <= 4096) carry much of the time
    "prime-matrix": (
        *(_cli("invariants", f"hmod:p={p},m=1") for p in (3, 5, 7)),
        *(_cli("verify", f"hmod:p={p},m=1", "all") for p in (3, 5, 7)),
        _cli("isoclinic", "u3:p=3,m=1", "xab:u3:p=3,m=1,k=1", expect="isoclinic",
             reps=DECISION_REPS),
        _cli("isoclinic", "u3:p=3,m=1", "hmod:p=3,m=1", expect="refuted", reps=DECISION_REPS),
        Op("identities", ("hmod:p=5,m=1",), reps=SAMPLED_REPS),
    ),
    # every group is beyond the memo table: FieldOps, Backend.mul_rows and
    # the index_of_rows lookup carry each product; the hmat closure of
    # order 531441 and the order-59049 structural suite run here
    "beyond-table": (
        _cli("verify", "hmod:p=3,m=2", "all"),
        _cli("isoclinic", "hmod:p=7,m=1", "quint:p=7,m=1", expect="isoclinic",
             reps=DECISION_REPS),
        _cli("invariants", "hmod:p=7,m=1", reps=INVARIANT_REPS),
        Op("identities", ("quint:p=3,m=2",), reps=SAMPLED_REPS),
    ),
    # memo-table reads and the backtracking search; the cross-modulus
    # search is isomorphic input that the search cannot decide within N
    # nodes today, counted as failed and timed by no metric
    "small-exhaustive": (
        Op("identities", ("hmod:p=3,m=1",), at=1 / 3),
        Op("search", ("quint:p=3,m=2", "quint:p=3,m=2,modulus=[2,1,1]"), at=2 / 3),
        _cli("invariants", "quint:p=3,m=1", reps=SMALL_REPS),
        _cli("verify", "quint:p=3,m=1", "all", reps=SMALL_REPS),
        _cli("isoclinic", "hmod:p=3,m=1", "quint:p=3,m=1", expect="isoclinic", reps=SMALL_REPS),
    ),
}


def schedule(ops, rng: random.Random) -> list:
    """The (op, rep) pairs of one round, each op's repeats spread evenly.

    Repeat k of an op with r repeats sits at (k + 0.5) / r of the round, so
    every metric samples the whole run and a slow stretch of the shared
    host falls on every kind of operation alike.  rng orders the pairs that
    share a place.
    """
    slots = [(op.at if op.reps == 1 else (k + 0.5) / op.reps, rng.random(), i, k)
             for i, op in enumerate(ops) for k in range(op.reps)]
    return [(ops[i], k) for *_, i, k in sorted(slots)]


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.ops = WORKLOADS[workload]
        self.seed = seed
        # one fresh group per repeat, so no repeat reads another's caches
        self.group_keys = [(s, i) for op in self.ops if op.kind in IN_PROCESS
                           for i in range(op.reps) for s in op.args]
        self.work = OUT / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        os.environ.update(THREADS)     # before numpy is first imported
        self.env = {k: v for k, v in os.environ.items() if k != "PGF_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(SRC)
        sys.path.insert(0, str(SRC))
        import pgf.constructions
        import pgf.isoclinism
        self.constructions = pgf.constructions
        self.isoclinism = pgf.isoclinism
        self.tracer = tracing.install() if trace else None
        self.setup_s: list = []
        self.import_s: list = []

    # -- set-up: interpreter start and import, plus the in-process groups --

    def setup(self) -> dict:
        # groups hold reference cycles, so peak memory would otherwise
        # depend on when the collector last ran
        gc.collect()
        with self._workdir() as wd:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=wd, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            start = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing pgf failed:\n{proc.stderr}")
        t0 = time.perf_counter()
        groups = {key: self.constructions.build_group(key[0]) for key in self.group_keys}
        self.setup_s.append(start + time.perf_counter() - t0)
        self.import_s.append(float(proc.stdout))
        return groups

    @contextlib.contextmanager
    def _workdir(self):
        wd = Path(tempfile.mkdtemp(dir=self.work))
        try:
            yield wd
        finally:
            shutil.rmtree(wd, ignore_errors=True)

    # -- operations ---------------------------------------------------------

    def run_cli(self, op: Op):
        """(seconds, status, problems) of one pgf command."""
        with self._workdir() as wd:
            trace_file = wd / "trace.json"
            cmd = [sys.executable, "-m", "pgf.cli", *op.args]
            if self.tracer is not None:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *op.args]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=wd, env=self.env, capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                return time.perf_counter() - t0, "failed", ["timed out"]
            dt = time.perf_counter() - t0
            rc, stdout = proc.returncode, proc.stdout
            if self.tracer is not None and trace_file.is_file():
                self.tracer.merge(json.loads(trace_file.read_text()))
            if rc not in (0, 1):
                return dt, "failed", [f"exit code {rc}"]
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError:
                return dt, "wrong", ["stdout is not one JSON document"]
            spec = checks.parse_spec(op.args[1])
            if op.kind == "invariants":
                problems = checks.check_invariants(rc, report, spec)
            elif op.kind == "verify":
                problems = checks.check_verify(rc, report, spec,
                                               checks.load_params(wd, report.get("spec", "")))
            else:
                problems = checks.check_isoclinic(rc, report, spec,
                                                  checks.parse_spec(op.args[2]), op.expect)
        return dt, ("wrong" if problems else "ok"), problems

    def run_identities(self, op: Op, rep: int, groups: dict):
        g = groups.pop((op.args[0], rep))
        t0 = time.perf_counter()
        report = g.check_class3_identities(samples=IDENTITY_SAMPLES)
        dt = time.perf_counter() - t0
        order = checks.expected_invariants(checks.parse_spec(op.args[0]))["order"]
        problems = checks.check_identities(report, order, order <= IDENTITY_EXHAUSTIVE,
                                           IDENTITY_SAMPLES)
        return dt, ("wrong" if problems else "ok"), problems

    def run_search(self, op: Op, rep: int, groups: dict):
        iso = self.isoclinism
        a, b = (groups.pop((s, rep)) for s in op.args)
        t0 = time.perf_counter()
        result = iso.are_isoclinic(a, b, iso.SearchConfig(max_nodes=SEARCH_NODES))
        dt = time.perf_counter() - t0
        inv = [checks.expected_invariants(checks.parse_spec(s)) for s in op.args]
        status, problems = checks.classify_search(result.as_dict(), *inv)
        if status == "failed":
            problems = [f"{result.reason} after {result.nodes} nodes"]
        return dt, status, problems

    def run_op(self, op: Op, rep: int, groups: dict):
        try:
            if op.kind == "identities":
                return self.run_identities(op, rep, groups)
            if op.kind == "search":
                return self.run_search(op, rep, groups)
            return self.run_cli(op)
        except Exception:
            return 0.0, "failed", [traceback.format_exc()]

    def round(self, index: int, groups: dict) -> list:
        if self.tracer is not None:
            self.tracer.reset()
        records = []
        for op, rep in schedule(self.ops, random.Random(f"{self.seed}:{index}")):
            dt, status, problems = self.run_op(op, rep, groups)
            if op.kind in IN_PROCESS:
                gc.collect()       # free the op's groups now, outside any timing
            if status != "ok":
                print(f"{status}: {op.key}: {'; '.join(problems)}", file=sys.stderr)
            records.append((op, dt, status))
        return records


def end_to_end(rounds: list, setup_s: list) -> dict:
    times: dict = {}
    for records in rounds:
        for op, dt, status in records:
            if status == "ok" and op.kind in TIMED_KINDS:
                times.setdefault(op, []).append(dt)
    medians = {op: statistics.median(ts) for op, ts in times.items()}
    metrics = {"setup_s": (statistics.median(setup_s), "s"),
               "wall_s": (sum(medians.values()), "s")}
    for kind in TIMED_KINDS:
        metrics[f"{kind}_s"] = (sum(t for op, t in medians.items() if op.kind == kind), "s")
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pgf" / "cli.py").is_file():
        print(f"run.py: no pgf sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, bool(args.trace))
    for _ in range(MIN_SETUPS):
        groups = bench.setup()
    rounds, layers, traces = [], [], []
    start = time.perf_counter()
    while True:
        rounds.append(bench.round(len(rounds), groups))
        if bench.tracer is not None:
            layers.append(tracing.layer_metrics(bench.tracer))
            traces.append(bench.tracer.dump())
        # whole rounds only: stop unless another round of the mean length
        # still ends within the measured window
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
        groups = bench.setup()
    shutil.rmtree(bench.work, ignore_errors=True)

    statuses = [status for records in rounds for _, _, status in records]
    if args.trace:
        values = tracing.median_metrics(layers)
        values["cli.import_s"] = statistics.median(bench.import_s)
        metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}
    else:
        metrics = end_to_end(rounds, bench.setup_s)
    result = {
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": statuses.count("failed"),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        # the traced end-to-end times, for the tracing overhead
        traced = {name: v for name, (v, _) in end_to_end(rounds, bench.setup_s).items()}
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({"end_to_end": traced, "rounds": traces}) + "\n")
    print(f"{args.workload}: {len(rounds)} rounds, {len(statuses)} operations", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
