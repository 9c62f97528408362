"""Check that two checkouts of prvr produce byte-identical CLI outputs.

    python3 tools/same_outputs.py <checkout-a> <checkout-b> [--smoke] [--work DIR]

Each checkout runs the same commands from its own `src/` and its own
`perfbench/configs` (read only), one process per command with BLAS on one
thread: per seed (11 and 12), gen-corpus of a train and a test split; per
case, train, evaluate (test split) and audit (train split). The cases are
the full-ARL and warmup-only configs at both seeds, plus two variants of
the full-ARL config at seed 11: tv (frame_lad=false cross_model=false) and
frame-only (video_lad=false). Then the warm seed-11 checkpoint evaluates
and audits the benchmark-scale corpus (`large.corpus.cfg`, 2000 x 1000 x
16, seed 11), where near-tied frames are most frequent. Last, one
grad-check --seed 1 runs 20 instances. --smoke swaps in the ACCEPT-10
scale configs and 2 grad-check instances, and skips the large corpus.

Every output file is compared byte for byte, and every command's stdout
with the checkout and work paths masked. Each masked stdout is also
written to `<case>/<command>.stdout` beside the case's outputs, and
grad-check's to `grad-check.stdout`, so with --work DIR both are kept
under DIR/a and DIR/b. Before the verdict it prints the line count of
each checkout's `src/prvr/*.py`. Exit 0 when all are equal, 1 on any
difference or failed command, 2 on bad arguments.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SCALES = {
    False: ("accept.corpus.cfg", "arl.train.cfg", "warm.train.cfg"),
    True: ("tiny.corpus.cfg", "tiny_arl.train.cfg", "tiny_warm.train.cfg"),
}
SEEDS = (11, 12)
LARGE = "large.corpus.cfg"
RUN_FILES = ("checkpoint.ckpt", "training_log.csv", "config.resolved", "report.json",
             "audit.csv")
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}


def cases(smoke):
    """(name, train config file, seed, --set overrides) of every run."""
    _, arl, warm = SCALES[smoke]
    out = [(f"{kind}-{seed}", cfg, seed, ())
           for seed in SEEDS for kind, cfg in (("arl", arl), ("warm", warm))]
    first = SEEDS[0]
    out.append((f"tv-{first}", arl, first, ("frame_lad=false", "cross_model=false")))
    out.append((f"frame-{first}", arl, first, ("video_lad=false",)))
    return out


def run_checkout(checkout, work, smoke):
    """Run every command of one checkout under `work`; returns
    {output name: bytes}, stdouts included, and a list of failures. Each
    masked stdout is written to `work/<case>/<command>.stdout`."""
    checkout, work = Path(checkout).resolve(), Path(work).resolve()
    configs = checkout / "perfbench" / "configs"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    outputs, failures = {}, []

    def command(name, argv):
        proc = subprocess.run([sys.executable, "-m", "prvr.cli"] + [str(a) for a in argv],
                              capture_output=True, env=env, cwd=work)
        if proc.returncode != 0:
            failures.append(f"{checkout}: {name} exited {proc.returncode}: "
                            + proc.stderr.decode(errors="replace").strip()[-300:])
        text = proc.stdout.decode(errors="replace")
        masked = text.replace(str(work), "<work>").replace(str(checkout), "<checkout>").encode()
        outputs[f"{name}.stdout"] = masked
        path = work / f"{name}.stdout"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(masked)

    def keep(name, path):
        outputs[name] = path.read_bytes() if path.exists() else b""

    def corpora(name, cfg, seed):
        for split in ("train", "test"):
            path = work / name / f"{split}.prvc"
            path.parent.mkdir(parents=True, exist_ok=True)
            command(f"{name}/{split}", ["gen-corpus", "--spec", cfg, "--out", path,
                                        "--split", split, "--set", f"seed={seed}"])
            keep(f"{name}/{split}.prvc", path)
        return work / name

    def score(name, ckpt, splits):
        run = work / name
        run.mkdir(parents=True, exist_ok=True)
        command(f"{name}/evaluate", ["evaluate", "--checkpoint", ckpt, "--corpus",
                                     splits / "test.prvc", "--out", run / "report.json"])
        command(f"{name}/audit", ["audit", "--checkpoint", ckpt, "--corpus",
                                  splits / "train.prvc", "--out", run / "audit.csv"])

    for seed in SEEDS:
        corpora(f"corpus-{seed}", configs / SCALES[smoke][0], seed)

    for name, cfg, seed, overrides in cases(smoke):
        run = work / name
        sets = [a for kv in (f"seed={seed}",) + overrides for a in ("--set", kv)]
        command(f"{name}/train", ["train", "--corpus", work / f"corpus-{seed}" / "train.prvc",
                                  "--config", configs / cfg, "--out", run] + sets)
        score(name, run / "checkpoint.ckpt", work / f"corpus-{seed}")
        for file in RUN_FILES:
            keep(f"{name}/{file}", run / file)

    if not smoke:
        seed = SEEDS[0]
        score("large", work / f"warm-{seed}" / "checkpoint.ckpt",
              corpora("corpus-large", configs / LARGE, seed))
        for file in ("report.json", "audit.csv"):
            keep(f"large/{file}", work / "large" / file)

    command("grad-check", ["grad-check", "--seed", 1, "--instances", 2 if smoke else 20])
    return outputs, failures


def src_lines(checkout):
    """Lines of the checkout's src/prvr/*.py, counted as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (Path(checkout) / "src" / "prvr").glob("*.py"))


def differences(a, b):
    """Names of the outputs that are missing on one side or differ."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--smoke", action="store_true", help="ACCEPT-10 scale configs")
    parser.add_argument("--work", help="keep the outputs and stdouts in this directory")
    args = parser.parse_args(argv)
    for checkout in (args.checkout_a, args.checkout_b):
        if not (Path(checkout) / "src" / "prvr").is_dir():
            parser.error(f"not a prvr checkout: {checkout}")

    work = Path(args.work or tempfile.mkdtemp(prefix="same_outputs-"))
    try:
        results, failures = [], []
        for side, checkout in (("a", args.checkout_a), ("b", args.checkout_b)):
            (work / side).mkdir(parents=True, exist_ok=True)
            outputs, failed = run_checkout(checkout, work / side, args.smoke)
            results.append(outputs)
            failures += failed
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)

    diff = differences(*results)
    for line in failures:
        print(f"failed: {line}")
    for name in diff:
        print(f"differs: {name}")
    print(f"src/prvr/*.py lines: a {src_lines(args.checkout_a)}, b {src_lines(args.checkout_b)}")
    print(f"{len(results[0])} outputs compared: {len(diff)} differ, {len(failures)} commands failed")
    return 1 if diff or failures else 0


if __name__ == "__main__":
    sys.exit(main())
