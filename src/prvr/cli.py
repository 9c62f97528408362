"""Command-line entry point.

Subcommands: gen-corpus, train, evaluate, audit, grad-check.
Exit codes: 0 success, 2 usage, 3 config, format, dimension, I/O or
memory error, 4 numerical abort.
Every command prints its fully resolved configuration so a run can be
reproduced from the log alone.
"""

import argparse
import csv
import ctypes
import json
import os
import sys

from .config import (apply_overrides, corpus_spec_from, parse_kv_file,
                     resolved_lines, train_config_from)
from .corpus import _atomic_open, generate_synthetic, read_corpus, write_corpus
from .errors import ConfigError, DimensionError, FormatError, NumericalError
from .evaluation import audit, evaluate
from .gradcheck import REL_TOL, run_suite
from .trainer import LOG_COLUMNS, check_corpus_dims, checkpoint, resume, train


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _print_resolved(pairs):
    for line in pairs:
        print(f"config {line}")


def _require_file(path, what):
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")


def _check_out_file(out):
    """Fail before any work when the file `out` cannot be written."""
    if not out:
        raise OSError("--out is empty")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise OSError(f"--out's parent is not a directory: {out}")
    if os.path.isdir(out):
        raise OSError(f"--out is a directory: {out}")


def cmd_gen_corpus(args):
    _check_out_file(args.out)
    _require_file(args.spec, "spec file")
    entries = apply_overrides(parse_kv_file(args.spec), args.set)
    spec = corpus_spec_from(entries)
    _print_resolved(resolved_lines(spec) + [f"split={args.split}"])
    corpus = generate_synthetic(spec, split=args.split)
    write_corpus(corpus, args.out)
    planted = len(corpus.planted_ambiguity or ())
    print(f"wrote {args.out}: {corpus.n_q} queries, {corpus.n_v} videos, "
          f"{planted} planted ambiguous pairs")
    return 0


def cmd_train(args):
    # --out, or else its nearest existing ancestor, must be a directory;
    # abspath("") is the working directory, so an empty --out is refused first
    if not args.out:
        raise ConfigError("--out is empty")
    path = os.path.abspath(args.out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out is not a directory: {args.out}")
    _require_file(args.corpus, "corpus file")
    _require_file(args.config, "config file")
    entries = apply_overrides(parse_kv_file(args.config), args.set)
    cfg = train_config_from(entries)
    corpus = read_corpus(args.corpus)
    lines = resolved_lines(cfg)
    _print_resolved(lines)

    # --out and its files are written after train returns, so a rejected
    # run leaves no new directory, and an earlier run's files consistent
    state, log_rows = train(corpus, cfg)

    os.makedirs(args.out, exist_ok=True)
    with _atomic_open(os.path.join(args.out, "config.resolved")) as fh:
        fh.write("\n".join(lines) + "\n")
    ckpt_path = os.path.join(args.out, "checkpoint.ckpt")
    checkpoint(state, ckpt_path)
    log_path = os.path.join(args.out, "training_log.csv")
    with _atomic_open(log_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in log_rows:
            writer.writerow([_fmt(row.get(col)) for col in LOG_COLUMNS])
    print(f"trained {state.epoch} epochs; checkpoint {ckpt_path}; log {log_path}")
    return 0


def _load_for_scoring(args):
    """Checkpoint and corpus of evaluate/audit, checked against each other."""
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.corpus, "corpus file")
    state = resume(args.checkpoint)
    corpus = read_corpus(args.corpus)
    check_corpus_dims(state, corpus)
    _print_resolved([f"checkpoint={args.checkpoint}", f"corpus={args.corpus}",
                     f"epoch={state.epoch}"])
    return state, corpus


def cmd_evaluate(args):
    _check_out_file(args.out)
    state, corpus = _load_for_scoring(args)
    report = evaluate(state, corpus)
    payload = {f"r{k}": report.r_at[k] for k in sorted(report.r_at)}
    payload["sumr"] = report.sum_r
    with _atomic_open(args.out) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}: sumr={report.sum_r:.2f}")
    return 0


def cmd_audit(args):
    _check_out_file(args.out)
    state, corpus = _load_for_scoring(args)
    report = audit(state, corpus)
    with _atomic_open(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record", "field", "value", "extra"])
        for key in ("tau_s", "tau_u", "mean_positive_similarity",
                    "mean_unpaired_similarity", "mean_positive_uncertainty",
                    "mean_unpaired_uncertainty", "precision", "recall", "f1",
                    "lad_defined", "planted_count"):
            writer.writerow(["summary", key, _fmt(getattr(report, key)), ""])
        for metric, edges, h_pos, h_unp in (
            ("similarity", report.sim_bin_edges,
             report.sim_hist_positive, report.sim_hist_unpaired),
            ("uncertainty", report.unc_bin_edges,
             report.unc_hist_positive, report.unc_hist_unpaired),
        ):
            for b in range(len(h_pos)):
                writer.writerow([f"hist_{metric}_positive", repr(float(edges[b])),
                                 repr(float(edges[b + 1])), repr(float(h_pos[b]))])
                writer.writerow([f"hist_{metric}_unpaired", repr(float(edges[b])),
                                 repr(float(edges[b + 1])), repr(float(h_unp[b]))])
        # Python ints a block at a time, never a list of every pair
        pairs = report.detected_pairs
        for x0 in range(0, len(pairs), 4096):
            writer.writerows(["ambiguous_pair", qi, vj, ""]
                             for qi, vj in pairs[x0:x0 + 4096].tolist())
    print(f"wrote {args.out}: f1={report.f1:.4f} detected={len(pairs)}")
    return 0


def cmd_grad_check(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.instances < 1:
        raise ConfigError(f"--instances must be positive, got {args.instances}")
    _print_resolved([f"seed={args.seed}", f"instances={args.instances}"])
    worst, _ = run_suite(seed=args.seed, instances=args.instances)
    print(f"grad-check: instances={args.instances} max_rel_error={worst:.6e}")
    if not (worst < REL_TOL):
        raise NumericalError(f"gradient check failed: {worst:.6e} >= {REL_TOL}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="prvr",
                                     description="Ambiguity-aware PRVR training engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="train the dual-branch model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="recall metrics on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("audit", help="distribution and detection audit")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_grad_check)

    return parser


def _keep_freed_heap():
    """Fix glibc's mmap and trim thresholds at 8 and 16 MiB.

    Each training step frees its autodiff tape, a few MB. glibc's
    adaptive thresholds grow only with the largest mmap block freed so
    far, so left alone they return the tape to the OS and the next step
    faults it back in: about 240,000 minor faults in a 25-epoch
    ACCEPT-scale training, under 50 with these thresholds.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 8 << 20)            # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)           # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, FormatError) as exc:
        print(f"prvr: config-error: {exc}", file=sys.stderr)
        return 3
    except DimensionError as exc:
        print(f"prvr: dimension-error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"prvr: io-error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"prvr: memory-error: {exc or 'allocation failed'}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"prvr: numerical-error: {exc}", file=sys.stderr)
        return 4


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
