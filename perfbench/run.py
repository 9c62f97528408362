"""prvr benchmark: drives the CLI in-process, one workload per process.

    python3 perfbench/run.py --workload arl_full --seed 11 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke --workload all

Every workload runs the same steps as a closed loop with one client, one
command at a time:

    set-up:  gen-corpus for each corpus the workload reads
    timed:   train -> evaluate -> evaluate again -> audit -> grad-check

and sets the scale of each step (WORKLOADS). Each command is timed around
``prvr.cli.main(argv)``; its outputs are then checked, outside the timed
interval. The last line of stdout is one JSON result. With --trace 1 the
run makes one untraced pass and one traced pass (set-up once plus each
step once) and reports per-layer metrics from the traced one.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is first imported: the
# encoder matmuls go through OpenBLAS, built for up to 64 threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIGS = BENCH_DIR / "configs"
WORK = ROOT / ".perfbench"

# On a shared machine a core's speed can switch between regimes lasting
# seconds, so a step timed once over a fraction of a second reads one
# regime. An untraced run therefore repeats the short steps, spread over
# the pass, for at least these many seconds and reports medians; a traced
# run does each step once, so its counts repeat exactly.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
STEP_MIN_S = {"train": 4.0, "score": 3.0, "grad_check": 4.0}
# grad-check always runs ACCEPT-01's suite (seed 1): instance shapes are
# drawn from the seed and their cost varies sixfold, so a seeded suite
# would measure the draw, not the code. The workload seed drives corpora
# and training.
GRADCHECK_SEED = 1


@dataclass(frozen=True)
class Workload:
    train_corpus: str     # corpus config the model trains on
    train_cfg: str        # training config
    score_corpus: str     # corpus config evaluated (test split) and audited (train split)
    gc_instances: int     # grad-check instances
    order: tuple          # step order in each half of a pass: short steps around the long one


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "arl_full": Workload("accept", "arl", "accept", 2, ("grad_check", "train", "score")),
    "score_large": Workload("accept", "warm", "large", 2, ("train", "grad_check", "score")),
    "gradcheck": Workload("accept", "warm", "accept", 20, ("train", "score", "grad_check")),
}

# --smoke swaps every config for its ACCEPT-10-scale counterpart.
SMOKE_CONFIGS = {"accept": "tiny", "large": "tiny", "arl": "tiny_arl", "warm": "tiny_warm"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("test_sumr", "pp"),
    ("eval_queries_per_s", "1/s"),
    ("audit_pairs_per_s", "1/s"),
    ("gradcheck_instances_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def read_cfg(path):
    """key = value pairs of a config file, as strings.

    Sizes are read here rather than through prvr.config so that a traced
    run records no spans outside the timed commands.
    """
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def import_program():
    """Import prvr from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "prvr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {src / 'prvr'}")
    sys.path.insert(0, str(src))
    import prvr.cli
    import prvr.gradcheck
    if Path(prvr.__file__).resolve().parent != (src / "prvr").resolve():
        raise SystemExit(f"perfbench: imported prvr from {prvr.__file__}, not {src}")
    return prvr


class Session:
    """Runs CLI commands and output checks, counting each as an operation."""

    def __init__(self, prvr):
        self.prvr = prvr
        self.attempted = 0
        self.failures = []

    def command(self, argv):
        """Run one CLI command; returns (seconds, stdout, ok)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.prvr.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if code != 0:
            self.failures.append(f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return seconds, out.getvalue(), code == 0

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name} failed {detail}".strip())
        return ok


# -- output checks --------------------------------------------------------

def check_log(run, path, epochs):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        finite = all(math.isfinite(float(v)) for row in rows for k, v in row.items()
                     if k not in ("epoch", "branch", "phase") and v != "")
    except (OSError, ValueError) as exc:
        return run.check("training_log", False, str(exc))
    return run.check("training_log", finite and len(rows) == 2 * epochs,
                     f"({len(rows)} rows, finite={finite})")


def check_report(run, path):
    """Recalls ordered in [0, 1] and sumr = 100 * sum of recalls; returns sumr."""
    try:
        r = json.loads(Path(path).read_text(encoding="utf-8"))
        recalls = [r["r1"], r["r5"], r["r10"], r["r100"]]
        ok = (0.0 <= recalls[0] <= recalls[1] <= recalls[2] <= recalls[3] <= 1.0
              and math.isclose(r["sumr"], 100.0 * sum(recalls), rel_tol=1e-12))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.check("report", False, str(exc))
        return None
    run.check("report", ok, json.dumps(r))
    return r["sumr"]


def check_audit(run, path):
    """audit.csv parses with precision/recall/F1 in [0, 1]; returns F1."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        summary = {field: value for record, field, value, _ in rows[1:] if record == "summary"}
        stats = [float(summary[k]) for k in ("precision", "recall", "f1")]
        for record, a, b, c in rows[1:]:
            if record.startswith("hist_"):
                if not all(math.isfinite(float(x)) for x in (a, b, c)):
                    raise ValueError(f"non-finite histogram row {record}")
            elif record == "ambiguous_pair":
                int(a), int(b)
        ok = rows[0] == ["record", "field", "value", "extra"] and all(0.0 <= x <= 1.0 for x in stats)
    except (OSError, ValueError, KeyError) as exc:
        run.check("audit", False, str(exc))
        return None
    run.check("audit", ok, f"precision/recall/f1 = {stats}")
    return stats[2]


def check_gradcheck(run, stdout):
    found = re.search(r"max_rel_error=(\S+)", stdout)
    worst = float(found.group(1)) if found else math.inf
    return run.check("grad-check", worst < run.prvr.gradcheck.REL_TOL, f"max_rel_error={worst}")


# -- workload -------------------------------------------------------------

class Plan:
    """Paths and sizes of one workload run."""

    def __init__(self, name, seed, smoke):
        w = WORKLOADS[name]
        pick = (lambda c: SMOKE_CONFIGS[c]) if smoke else (lambda c: c)
        self.seed = seed
        self.gc_instances = 1 if smoke else w.gc_instances
        self.order = w.order
        self.dir = WORK / f"{name}{'-smoke' if smoke else ''}"
        train_spec, score_spec = pick(w.train_corpus), pick(w.score_corpus)
        self.corpora = {}  # path -> (spec file, split)
        self.train_corpus = self._corpus(train_spec, "train")
        self.eval_corpus = self._corpus(score_spec, "test")
        self.audit_corpus = self._corpus(score_spec, "train")
        self.train_cfg = CONFIGS / f"{pick(w.train_cfg)}.train.cfg"
        cfg = read_cfg(self.train_cfg)
        self.epochs = int(cfg["epochs"])
        n_q = int(read_cfg(CONFIGS / f"{train_spec}.corpus.cfg")["n_q"])
        batch = int(cfg["batch_size"])
        self.train_samples = self.epochs * (n_q // batch) * batch
        score = read_cfg(CONFIGS / f"{score_spec}.corpus.cfg")
        self.eval_queries = int(score["n_q"])
        self.audit_pairs = int(score["n_q"]) * int(score["n_v"])
        self.run_dir = self.dir / "run"

    def _corpus(self, spec, split):
        path = self.dir / f"{spec}-{split}.prvc"
        self.corpora[path] = (CONFIGS / f"{spec}.corpus.cfg", split)
        return path


def repeat(step, min_reps, min_s):
    """Run step() at least min_reps times and until min_s seconds of it; returns its times."""
    times = []
    while len(times) < min_reps or sum(times) < min_s:
        times.append(step())
    return times


def setup(run, plan):
    """Generate every corpus the workload reads; returns command seconds."""
    plan.dir.mkdir(parents=True, exist_ok=True)
    total = 0.0
    for path, (spec, split) in plan.corpora.items():
        seconds, _, ok = run.command(["gen-corpus", "--spec", str(spec), "--out", str(path),
                                      "--split", split, "--set", f"seed={plan.seed}"])
        if not ok:
            raise SystemExit("perfbench: set-up failed: " + "; ".join(run.failures))
        total += seconds
    return total


def sequence(run, plan, times, repeated):
    """One pass of the timed sequence, appending command seconds to times.

    The pass runs train, a scoring round (evaluate, evaluate, audit) and
    grad-check in the workload's order, in two halves. The first half runs
    each step once, and with repeated it also repeats the scoring round
    for half of its STEP_MIN_S; the second half runs each step again until
    it has run for STEP_MIN_S, so a short step is sampled on both sides of
    the long one. Every later evaluate and audit output must equal the
    first byte for byte. Returns (sumr, F1) of the first report and audit.
    """
    ckpt = plan.run_dir / "checkpoint.ckpt"
    report, audit_csv = plan.dir / "report.json", plan.dir / "audit.csv"
    first, results = {}, {}

    def scored(name, out, checker):
        """Check the first output; compare each later one with it."""
        if name not in first:
            results[name] = checker(run, out)
            first[name] = out.read_bytes()
        else:
            run.check(f"{name}_repeat", out.read_bytes() == first[name])

    def train():
        seconds, _, ok = run.command(["train", "--corpus", str(plan.train_corpus),
                                      "--config", str(plan.train_cfg), "--out", str(plan.run_dir),
                                      "--set", f"seed={plan.seed}"])
        times["train"].append(seconds)
        if ok:
            check_log(run, plan.run_dir / "training_log.csv", plan.epochs)
        return seconds

    def score():
        spent = 0.0
        for argv, out, name, checker in (
                (["evaluate", "--corpus", str(plan.eval_corpus)], report, "evaluate", check_report),
                (["evaluate", "--corpus", str(plan.eval_corpus)], report, "evaluate", check_report),
                (["audit", "--corpus", str(plan.audit_corpus)], audit_csv, "audit", check_audit)):
            seconds, _, ok = run.command(argv + ["--checkpoint", str(ckpt), "--out", str(out)])
            times[name].append(seconds)
            spent += seconds
            if ok:
                scored(name, out, checker)
        return spent

    def grad_check():
        seconds, stdout, _ = run.command(["grad-check", "--seed", str(GRADCHECK_SEED),
                                          "--instances", str(plan.gc_instances)])
        times["grad_check"].append(seconds)
        check_gradcheck(run, stdout)
        return seconds

    steps = {"train": train, "score": score, "grad_check": grad_check}
    spent = {}
    for half in ((1, 2) if repeated else (1,)):
        for name in plan.order:
            step = steps[name]
            target = STEP_MIN_S[name] * half / 2 if repeated else 0.0
            if half == 1:
                spent[name] = step()
            while spent[name] < target:
                spent[name] += step()
    return results.get("evaluate"), results.get("audit")


def new_times():
    return {"train": [], "evaluate": [], "audit": [], "grad_check": []}


def measure(run, plan, seconds, repeated):
    """Set-up and timed passes for about --seconds; end-to-end metrics."""
    setups = repeat(lambda: setup(run, plan), SETUP_MIN_REPS if repeated else 1,
                    SETUP_MIN_S if repeated else 0.0)
    times, passes = new_times(), 0
    t_start = time.perf_counter()
    while True:
        sumr, f1 = sequence(run, plan, times, repeated)
        passes += 1
        elapsed = time.perf_counter() - t_start
        # start another pass only if it is expected to end within --seconds
        if elapsed * (passes + 1) / passes > seconds:
            break
    if sumr is None or f1 is None:
        raise SystemExit("perfbench: no result to report: " + "; ".join(run.failures))
    med = {step: statistics.median(t) for step, t in times.items()}
    return {
        "setup_s": statistics.median(setups),
        # one nominal pass: train, evaluate twice, audit, grad-check
        "wall_s": med["train"] + 2 * med["evaluate"] + med["audit"] + med["grad_check"],
        "train_samples_per_s": plan.train_samples / med["train"],
        "test_sumr": sumr,
        "audit_f1": f1,
        "eval_queries_per_s": plan.eval_queries / med["evaluate"],
        "audit_pairs_per_s": plan.audit_pairs / med["audit"],
        "gradcheck_instances_per_s": plan.gc_instances / med["grad_check"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": dict(times, setup=setups),  # recorded in results.jsonl only
    }


def measure_traced(run, plan, src_hash):
    """One untraced and one traced pass of set-up plus sequence; per-layer metrics."""
    walls = []
    tr = tracer.Tracer()
    for ctx in (contextlib.nullcontext(), tr.installed()):
        with ctx:
            times = new_times()
            setup_s = setup(run, plan)
            sequence(run, plan, times, repeated=False)
        walls.append(setup_s + sum(sum(t) for t in times.values()))
    values = tr.metrics(walls[1], walls[0])
    tr.write(plan.dir / "trace.csv")

    # Exact counts must repeat across traced runs of the same program and input.
    counts = {key: values[key] for key in tracer.exact_keys()}
    counts_path = plan.dir / f"counts-seed{plan.seed}-{src_hash[:16]}.json"
    before = json.loads(counts_path.read_text(encoding="utf-8")) if counts_path.is_file() else None
    if before is not None and before.keys() == counts.keys():
        diff = sorted(k for k in counts if before[k] != counts[k])
        run.check("trace_counts_repeat", not diff, f"differ: {diff}")
    else:
        counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
    return values


# -- metadata -------------------------------------------------------------

def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(np):
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    return {
        "commit": git_commit(), "src_sha256": digest.hexdigest(), "src_lines": lines,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default 30, or one pass with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every config at ACCEPT-10 scale; runs in seconds")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.smoke:
        parser.error("--workload all is only for --smoke")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 30.0

    prvr = import_program()
    import numpy as np
    meta = metadata(np)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run = Session(prvr)
        plan = Plan(name, args.seed, args.smoke)
        if args.trace:
            values = measure_traced(run, plan, meta["src_sha256"])
            specs = [(n, u) for n, u, _ in tracer.metric_specs()]
        else:
            values = measure(run, plan, args.seconds, repeated=not args.smoke)
            specs = END_TO_END
        failed = len(run.failures)
        for line in run.failures:
            print(f"FAILED {line}")
        print(f"meta {json.dumps(dict(meta, workload=name, seed=args.seed, smoke=args.smoke))}")
        for metric, unit in specs:
            print(f"{metric:52s} {values[metric]:>16.6g} {unit}")
        if not args.trace:
            # Printed, not scored: audit_f1 is 0 on some seeds while detection
            # collapses, and error_rate is 0 on a correct run.
            print(f"{'audit_f1':52s} {values['audit_f1']:>16.6g} ratio")
        print(f"{'error_rate':52s} {failed / run.attempted:>16.6g} ratio "
              f"({failed} of {run.attempted} operations)")
        result = {
            "correct": failed == 0, "attempted": run.attempted, "failed": failed,
            "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in specs},
        }
        record = dict(result, meta=meta, workload=name, seed=args.seed, trace=args.trace,
                      samples=values.pop("samples", None))
        with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
