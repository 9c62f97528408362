"""End-to-end CLI pipeline, exit codes, and config handling."""

import json
import os
import pkgutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from prvr.cli import _write_pairs, main
from prvr.corpus import read_corpus

CORPUS_SPEC = """
# tiny synthetic corpus
n_q = 12
n_v = 6
l_q = 3
l_v = 4
d_t = 8
d_v = 9
seed = 5
segments_per_video = 2
ambiguity_rate = 0.4
noise_scale = 0.2
"""

TRAIN_CFG = """
epochs = 3
batch_size = 4
warmup_epochs = 1
learning_rate = 0.002
seed = 9
embed_dim = 10
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "corpus.cfg"
    path.write_text(CORPUS_SPEC)
    return str(path)


@pytest.fixture
def train_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(TRAIN_CFG)
    return str(path)


def test_full_pipeline(tmp_path, spec_file, train_file, capsys):
    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    out = capsys.readouterr().out
    assert "config seed=5" in out
    corpus = read_corpus(corpus_path)
    assert corpus.n_q == 12

    out_dir = str(tmp_path / "run")
    assert main(["train", "--corpus", corpus_path, "--config", train_file,
                 "--out", out_dir]) == 0
    assert os.path.isfile(os.path.join(out_dir, "checkpoint.ckpt"))
    assert os.path.isfile(os.path.join(out_dir, "training_log.csv"))
    resolved = open(os.path.join(out_dir, "config.resolved"), "rb").read()
    assert b"epochs=3" in resolved and b"margin_m=0.2" in resolved
    ckpt = open(os.path.join(out_dir, "checkpoint.ckpt"), "rb").read()
    assert _config_block(ckpt) == resolved

    report_path = str(tmp_path / "report.json")
    assert main(["evaluate", "--checkpoint", os.path.join(out_dir, "checkpoint.ckpt"),
                 "--corpus", corpus_path, "--out", report_path]) == 0
    report = json.load(open(report_path))
    assert set(report) == {"r1", "r5", "r10", "r100", "sumr"}
    assert 0.0 <= report["r1"] <= report["r5"] <= report["r10"] <= report["r100"] <= 1.0
    assert report["sumr"] == pytest.approx(
        100 * (report["r1"] + report["r5"] + report["r10"] + report["r100"]))

    audit_path = str(tmp_path / "audit.csv")
    assert main(["audit", "--checkpoint", os.path.join(out_dir, "checkpoint.ckpt"),
                 "--corpus", corpus_path, "--out", audit_path]) == 0
    lines = open(audit_path).read().splitlines()
    assert lines[0] == "record,field,value,extra"
    assert any(line.startswith("summary,f1,") for line in lines)
    assert any(line.startswith("hist_similarity_positive,") for line in lines)


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exits_2(spec_file, tmp_path):
    assert main(["gen-corpus", "--spec", spec_file, "--out",
                 str(tmp_path / "x.prvc"), "--frobnicate"]) == 2


def test_missing_file_exits_3(tmp_path):
    assert main(["gen-corpus", "--spec", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x.prvc")]) == 3


def test_unknown_config_key_exits_3(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CORPUS_SPEC + "\nwibble = 3\n")
    assert main(["gen-corpus", "--spec", str(bad),
                 "--out", str(tmp_path / "x.prvc")]) == 3


def test_invalid_value_exits_3(tmp_path, spec_file):
    assert main(["gen-corpus", "--spec", spec_file, "--out",
                 str(tmp_path / "x.prvc"), "--set", "ambiguity_rate=2.0"]) == 3


def test_corrupt_corpus_exits_3(tmp_path, train_file, capsys):
    # the second file is 100 bytes whose header declares N_q = 2^31 and
    # d_t = 2^20: 2^53 bytes of text features
    crafted = struct.pack("<4sIIIIIIII", b"PRVC", 1, 1 << 31, 1, 1, 1, 1 << 20, 1, 0)
    bad = tmp_path / "bad.prvc"
    for data in (b"not a corpus", crafted.ljust(100, b"\0")):
        bad.write_bytes(data)
        capsys.readouterr()
        assert main(["train", "--corpus", str(bad), "--config", train_file,
                     "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("prvr: config-error:")


def test_override_applies(tmp_path, spec_file, capsys):
    out = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", out,
                 "--set", "n_q=6", "--set", "ambiguity_rate=0.0"]) == 0
    corpus = read_corpus(out)
    assert corpus.n_q == 6
    assert corpus.planted_ambiguity == set()
    assert "config n_q=6" in capsys.readouterr().out


def test_gen_corpus_test_split(tmp_path, spec_file):
    out = str(tmp_path / "t.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", out,
                 "--split", "test"]) == 0
    assert read_corpus(out).split == "test"


def test_grad_check_small(capsys):
    assert main(["grad-check", "--seed", "3", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "max_rel_error=" in out


@pytest.mark.parametrize("argv", (["--instances", "0"], ["--instances", "-3"],
                                  ["--seed", "-1"]))
def test_grad_check_rejects_bad_arguments(capsys, argv):
    assert main(["grad-check"] + argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("prvr: config-error:")


@pytest.mark.parametrize("key", ("temperature=0.5", "adam_eps=1e-9"))
def test_retired_training_keys_exit_3(tmp_path, spec_file, train_file, capsys, key):
    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    capsys.readouterr()
    assert main(["train", "--corpus", corpus_path, "--config", train_file,
                 "--out", str(tmp_path / "run"), "--set", key]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unknown training key(s)" in err[0]


@pytest.mark.parametrize("seed", (1 << 63, -(1 << 63) - 1))
def test_seed_outside_int64_round_trips(tmp_path, spec_file, train_file, seed):
    from prvr.trainer import resume

    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    out_dir = tmp_path / "run"
    assert main(["train", "--corpus", corpus_path, "--config", train_file,
                 "--out", str(out_dir), "--set", f"seed={seed}"]) == 0
    assert resume(out_dir / "checkpoint.ckpt").cfg.seed == seed


def test_training_log_columns(tmp_path, spec_file, train_file):
    corpus_path = str(tmp_path / "c.prvc")
    main(["gen-corpus", "--spec", spec_file, "--out", corpus_path])
    out_dir = str(tmp_path / "run")
    main(["train", "--corpus", corpus_path, "--config", train_file, "--out", out_dir])
    lines = open(os.path.join(out_dir, "training_log.csv")).read().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["epoch", "branch", "phase", "tau_s", "tau_u"]
    warm = [l for l in lines[1:] if ",warmup," in l]
    arl = [l for l in lines[1:] if ",arl," in l]
    assert warm and arl
    for line in warm:
        cells = line.split(",")
        assert cells[3] == "" and cells[4] == ""


def test_rejected_train_rerun_keeps_earlier_run(tmp_path, spec_file, train_file, capsys):
    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    run = tmp_path / "run"
    argv = ["train", "--corpus", corpus_path, "--config", train_file, "--out", str(run)]
    assert main(argv) == 0
    earlier = _snapshot(run)
    assert sorted(earlier) == ["checkpoint.ckpt", "config.resolved", "training_log.csv"]
    capsys.readouterr()

    # the corpus has 12 queries, so train rejects the batch size
    assert main(argv + ["--set", "batch_size=64"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("prvr: config-error:")
    assert _snapshot(run) == earlier


@pytest.mark.parametrize("split, sets, what", (
    ("test", [], "training requires a train-split corpus"),
    ("train", ["--set", "batch_size=64"], "batch_size 64")), ids=("test-split", "batch-size"))
def test_rejected_train_leaves_no_new_directory(tmp_path, spec_file, train_file, capsys,
                                                split, sets, what):
    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path,
                 "--split", split]) == 0
    capsys.readouterr()
    run = tmp_path / "newrun" / "nested"
    assert main(["train", "--corpus", corpus_path, "--config", train_file,
                 "--out", str(run)] + sets) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("prvr: config-error:") and what in err[0]
    assert not (tmp_path / "newrun").exists()


def _train_to(out, tmp_path, spec_file, train_file, capsys, monkeypatch):
    """Run train with --out `out` and train itself replaced; returns the
    exit code, the stderr lines and the calls that reached train."""
    import prvr.cli as cli

    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    capsys.readouterr()
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
    code = main(["train", "--corpus", corpus_path, "--config", train_file, "--out", out])
    return code, capsys.readouterr().err.strip().splitlines(), trained


def test_train_out_naming_a_file_exits_3_before_training(tmp_path, spec_file, train_file,
                                                         capsys, monkeypatch):
    out = tmp_path / "run"
    out.write_text("not a directory\n")
    code, err, trained = _train_to(str(out), tmp_path, spec_file, train_file, capsys,
                                   monkeypatch)
    assert code == 3
    assert err == [f"prvr: config-error: --out is not a directory: {out}"]
    assert trained == [] and out.read_text() == "not a directory\n"


def test_train_out_below_a_file_exits_3_before_training(tmp_path, spec_file, train_file,
                                                        capsys, monkeypatch):
    (tmp_path / "afile").write_text("not a directory\n")
    out = tmp_path / "afile" / "run"
    code, err, trained = _train_to(str(out), tmp_path, spec_file, train_file, capsys,
                                   monkeypatch)
    assert code == 3
    assert err == [f"prvr: config-error: --out is not a directory: {out}"]
    assert trained == []


def test_train_out_empty_exits_3_before_training(tmp_path, spec_file, train_file,
                                                 capsys, monkeypatch):
    # abspath("") is the working directory, which exists
    monkeypatch.chdir(tmp_path)
    before = [p.name for p in tmp_path.iterdir()] + ["c.prvc"]
    code, err, trained = _train_to("", tmp_path, spec_file, train_file, capsys, monkeypatch)
    assert code == 3
    assert err == ["prvr: config-error: --out is empty"]
    assert trained == [] and sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


# an --out of evaluate, audit or gen-corpus that cannot be written, and its message
_BAD_FILE_OUTS = [
    pytest.param("missing-dir/x", "--out's parent is not a directory: {out}",
                 id="missing-parent"),
    pytest.param("afile/x", "--out's parent is not a directory: {out}", id="below-a-file"),
    pytest.param("adir", "--out is a directory: {out}", id="a-directory"),
    pytest.param("", "--out is empty", id="empty"),
]


def _bad_file_out(tmp_path, rel):
    (tmp_path / "afile").write_text("not a directory\n")
    (tmp_path / "adir").mkdir()
    return str(tmp_path / rel) if rel else ""


@pytest.mark.parametrize("rel,message", _BAD_FILE_OUTS)
def test_gen_corpus_bad_out_exits_3_before_generating(tmp_path, spec_file, capsys,
                                                      monkeypatch, rel, message):
    import prvr.cli as cli

    out = _bad_file_out(tmp_path, rel)
    generated = []
    monkeypatch.setattr(cli, "generate_synthetic", lambda *a, **kw: generated.append(a))
    assert main(["gen-corpus", "--spec", spec_file, "--out", out]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["prvr: io-error: " + message.format(out=out)]
    assert generated == []


def test_corpus_with_undefined_flag_bits_exits_3(tmp_path, spec_file, train_file, capsys):
    corpus_path = tmp_path / "c.prvc"
    assert main(["gen-corpus", "--spec", spec_file, "--out", str(corpus_path)]) == 0
    data = bytearray(corpus_path.read_bytes())
    (flags,) = struct.unpack_from("<I", data, 32)
    assert flags == 2                       # train split, planted list present
    struct.pack_into("<I", data, 32, flags | 0x80000004)
    corpus_path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["train", "--corpus", str(corpus_path), "--config", train_file,
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["prvr: config-error: flags: undefined bits 0x80000004"]
    assert not (tmp_path / "run").exists()


def _checkpoint_and_corpus(tmp_path, spec_file, train_file, corpus_overrides=()):
    """An untrained checkpoint for the spec's dims, and a corpus of the spec."""
    from prvr.config import parse_kv_file, train_config_from
    from prvr.trainer import checkpoint, init_state

    corpus_path = str(tmp_path / "c.prvc")
    argv = ["gen-corpus", "--spec", spec_file, "--out", corpus_path]
    for kv in corpus_overrides:
        argv += ["--set", kv]
    assert main(argv) == 0
    dims_path = str(tmp_path / "dims.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", dims_path]) == 0
    state = init_state(read_corpus(dims_path), train_config_from(parse_kv_file(train_file)))
    ckpt = str(tmp_path / "model.ckpt")
    checkpoint(state, ckpt)
    return ckpt, corpus_path


def _config_block(data):
    (n,) = struct.unpack("<I", data[8:12])
    return data[12:12 + n]


def _evaluate_fails(tmp_path, ckpt, corpus_path, capsys, prefix):
    """evaluate exits 3 with one stderr line that starts with `prefix`."""
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", ckpt, "--corpus", corpus_path,
                 "--out", str(tmp_path / "report.json")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)


def test_version_1_checkpoint_exits_3(tmp_path, spec_file, train_file, capsys):
    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    data = bytearray(open(ckpt, "rb").read())
    data[4:8] = struct.pack("<I", 1)
    with open(ckpt, "wb") as fh:
        fh.write(data)
    _evaluate_fails(tmp_path, ckpt, corpus_path, capsys,
                    "prvr: config-error: version: unsupported value 1")


def test_checkpoint_in_earlier_key_order_resumes(tmp_path, spec_file, train_file):
    # checkpoints written before the loss keys joined TrainConfig list the
    # sorted training keys first, then the sorted loss keys
    from prvr.trainer import resume

    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    data = open(ckpt, "rb").read()
    block = _config_block(data)
    lines = block.decode().splitlines()
    loss_keys = ("lambda_nce", "margin_m", "margin_ma")
    earlier = ([ln for ln in lines if ln.partition("=")[0] not in loss_keys]
               + [ln for ln in lines if ln.partition("=")[0] in loss_keys])
    assert earlier != lines and sorted(earlier) == lines
    moved = ("\n".join(earlier) + "\n").encode()
    ckpt_b = str(tmp_path / "earlier.ckpt")
    with open(ckpt_b, "wb") as fh:
        fh.write(data[:8] + struct.pack("<I", len(moved)) + moved + data[12 + len(block):])
    assert resume(ckpt_b).cfg == resume(ckpt).cfg

    reports = []
    for path in (ckpt, ckpt_b):
        report = tmp_path / (os.path.basename(path) + ".json")
        assert main(["evaluate", "--checkpoint", path, "--corpus", corpus_path,
                     "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("old, new", (
    (b"margin_m=0.2\nmargin_ma=0.1\n", b"margin_m=0.1\nmargin_ma=0.3\n"),
    (b"batch_size=4\n", b"batch_size=1\n")))
def test_invalid_config_block_exits_3(tmp_path, spec_file, train_file, capsys, old, new):
    from prvr.errors import FormatError
    from prvr.trainer import resume

    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    data = open(ckpt, "rb").read()
    block = _config_block(data)
    assert old in block
    bad = block.replace(old, new)
    with open(ckpt, "wb") as fh:
        fh.write(data[:8] + struct.pack("<I", len(bad)) + bad + data[12 + len(block):])
    with pytest.raises(FormatError, match="^config block: "):
        resume(ckpt)
    _evaluate_fails(tmp_path, ckpt, corpus_path, capsys, "prvr: config-error: config block: ")


def test_checkpoint_declaring_huge_tensors_exits_3(tmp_path, spec_file, train_file, capsys):
    from prvr.errors import FormatError
    from prvr.trainer import resume

    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    data = bytearray(open(ckpt, "rb").read())
    dims = 12 + struct.unpack("<I", data[8:12])[0]
    # d_t = 2^31 with embed_dim = 10: text_proj_w alone declares 2^34 * 10 bytes
    data[dims:dims + 16] = struct.pack("<IIII", 1 << 31, 9, 3, 4)
    with open(ckpt, "wb") as fh:
        fh.write(data)
    with pytest.raises(FormatError, match=r"^text_proj_w\.param: expected"):
        resume(ckpt)
    _evaluate_fails(tmp_path, ckpt, corpus_path, capsys, "prvr: config-error: text_proj_w.param:")


@pytest.mark.parametrize("command", ("evaluate", "audit"))
def test_corpus_dims_mismatch_exits_3(tmp_path, spec_file, train_file, capsys, command):
    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file, ["d_t=5"])
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--checkpoint", ckpt, "--corpus", corpus_path,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("prvr: dimension-error:")
    assert not out.exists()


def test_unwritable_out_exits_3(tmp_path, spec_file, train_file, capsys):
    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    capsys.readouterr()
    out = tmp_path / "missing-dir" / "report.json"
    assert main(["evaluate", "--checkpoint", ckpt, "--corpus", corpus_path,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("prvr: io-error:")


@pytest.mark.parametrize("command", ["evaluate", "audit"])
@pytest.mark.parametrize("rel,message", _BAD_FILE_OUTS)
def test_scoring_bad_out_exits_3_before_scoring(tmp_path, spec_file, train_file, capsys,
                                                monkeypatch, command, rel, message):
    import prvr.cli as cli

    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    out = _bad_file_out(tmp_path, rel)
    scored = []
    monkeypatch.setattr(cli, command, lambda *args: scored.append(args))
    capsys.readouterr()
    assert main([command, "--checkpoint", ckpt, "--corpus", corpus_path,
                 "--out", out]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["prvr: io-error: " + message.format(out=out)]
    assert scored == []


def _fail_json_mid_write(monkeypatch):
    import prvr.cli as cli

    def dump(obj, fh, **kwargs):
        fh.write('{"r1": ')
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli.json, "dump", dump)


def _fail_csv_mid_write(monkeypatch):
    import prvr.cli as cli
    fmt, calls = cli._fmt, []

    def failing_fmt(value):
        calls.append(value)
        if len(calls) == 5:     # after four summary rows
            raise OSError(28, "No space left on device")
        return fmt(value)
    monkeypatch.setattr(cli, "_fmt", failing_fmt)


def _fail_atomic_write_of(name):
    """Injector: the atomic write of file `name` fails halfway through its
    first write call."""
    def _fail_atomic_write(monkeypatch):
        import prvr.corpus as corpus

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

        def failing_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return HalfWrite(fh) if os.path.basename(path) == f"{name}.tmp" else fh
        monkeypatch.setattr(corpus, "open", failing_open, raising=False)
    return _fail_atomic_write


def _snapshot(directory):
    return {f: (directory / f).read_bytes() for f in os.listdir(directory)}


@pytest.mark.parametrize("command, name, inject", (
    ("evaluate", "report.json", _fail_json_mid_write),
    ("audit", "audit.csv", _fail_csv_mid_write),
    ("train", "config.resolved", _fail_atomic_write_of("config.resolved")),
    ("train", "checkpoint.ckpt", _fail_atomic_write_of("checkpoint.ckpt")),
    ("train", "training_log.csv", _fail_atomic_write_of("training_log.csv")),
    ("gen-corpus", "c.prvc", _fail_atomic_write_of("c.prvc"))))
def test_failed_write_keeps_earlier_output(tmp_path, spec_file, train_file, capsys,
                                           monkeypatch, command, name, inject):
    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # train writes its three files into --out; the others write --out itself
    out = out_dir if command == "train" else out_dir / name
    argv = {"train": ["train", "--corpus", corpus_path, "--config", train_file],
            "gen-corpus": ["gen-corpus", "--spec", spec_file],
            }.get(command, [command, "--checkpoint", ckpt, "--corpus", corpus_path])
    argv += ["--out", str(out)]
    assert main(argv) == 0
    earlier = _snapshot(out_dir)
    assert name in earlier
    capsys.readouterr()

    inject(monkeypatch)
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("prvr: io-error:")
    # every earlier file byte for byte, and no temp file left
    assert _snapshot(out_dir) == earlier


def test_nonfinite_loss_exits_4(tmp_path, spec_file, train_file, capsys, monkeypatch):
    import prvr.losses as losses
    from prvr import autodiff as ad

    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    real = losses.loss_video

    def nan_loss(scores, sets, cfg):
        parts = real(scores, sets, cfg)
        parts["total"] = ad.add(parts["total"], float("nan"))
        return parts
    monkeypatch.setattr(losses, "loss_video", nan_loss)
    capsys.readouterr()
    assert main(["train", "--corpus", corpus_path, "--config", train_file,
                 "--out", str(tmp_path / "run")]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("prvr: numerical-error:")
    assert "epoch 1 batch 0" in err[0]


@pytest.mark.parametrize("part", ("param", "adam_m", "adam_v"))
def test_nonfinite_checkpoint_exits_3(tmp_path, spec_file, train_file, capsys, part):
    # a NaN weight makes every score NaN, and NaN ranks no video ahead
    # of the paired one: the checkpoint must be refused, not scored
    from prvr.errors import FormatError
    from prvr.trainer import checkpoint, resume

    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    state = resume(ckpt)
    phi = state.phi
    tensors = {"param": phi.params.tensors, "adam_m": phi.adam.m, "adam_v": phi.adam.v}[part]
    tensors["text_proj_w"].flat[0] = np.nan
    checkpoint(state, ckpt)
    with pytest.raises(FormatError, match=rf"^text_proj_w\.{part}: non-finite value$"):
        resume(ckpt)
    _evaluate_fails(tmp_path, ckpt, corpus_path, capsys,
                    f"prvr: config-error: text_proj_w.{part}: non-finite value")


def _main_without_warnings(argv):
    """main(argv)'s exit code, asserting that no warning was issued: a
    RuntimeWarning would print ahead of the one prvr: line, but pytest's
    warning capture keeps it out of capsys."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


@pytest.mark.parametrize("command", ("evaluate", "audit"))
def test_overflowing_embedding_norm_exits_4(tmp_path, spec_file, train_file, capsys, command):
    # video_proj_w x 1e300 keeps every frame embedding finite but
    # overflows its norm: the unit frames would be all zeros and the
    # scores chance, so the run must fail, not report them
    from prvr.encoder import encode_video
    from prvr.trainer import checkpoint, resume

    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    state = resume(ckpt)
    for branch in (state.theta, state.phi):
        branch.params.tensors["video_proj_w"] *= 1e300
    checkpoint(state, ckpt)
    emb = encode_video(state.theta.params, read_corpus(corpus_path).video_features)
    assert np.isfinite(emb).all()
    capsys.readouterr()
    assert _main_without_warnings([command, "--checkpoint", ckpt, "--corpus", corpus_path,
                                   "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("prvr: numerical-error:")
    assert "non-finite embedding norm" in err[0]


@pytest.mark.parametrize("command, kv, code, want", (
    ("gen-corpus", "noise_scale=1e300", 3,
     "prvr: config-error: text_features contains non-finite values"),
    ("train", "learning_rate=1e300", 4,
     "prvr: numerical-error: non-finite embedding norm encountered in cosine kernel "
     "at epoch 1 batch 1")), ids=("gen-corpus", "train"))
def test_overflowing_input_prints_one_line(tmp_path, spec_file, train_file, capsys,
                                           command, kv, code, want):
    # features or weights overflow float64 before a check refuses them
    corpus_path = str(tmp_path / "c.prvc")
    if command == "train":
        assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
        argv = ["train", "--corpus", corpus_path, "--config", train_file,
                "--out", str(tmp_path / "run")]
    else:
        argv = ["gen-corpus", "--spec", spec_file, "--out", corpus_path]
    capsys.readouterr()
    assert _main_without_warnings(argv + ["--set", kv]) == code
    assert capsys.readouterr().err.strip().splitlines() == [want]


@pytest.mark.parametrize("command, kv", (
    ("train", "learning_rate=nan"), ("train", "learning_rate=inf"),
    ("train", "lambda_nce=nan"), ("train", "lambda_nce=inf"), ("train", "margin_m=inf"),
    ("gen-corpus", "noise_scale=nan"), ("gen-corpus", "noise_scale=inf")))
def test_nonfinite_config_float_exits_3(tmp_path, spec_file, train_file, capsys, command, kv):
    corpus_path = str(tmp_path / "c.prvc")
    if command == "train":
        assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
        argv = ["train", "--corpus", corpus_path, "--config", train_file,
                "--out", str(tmp_path / "run")]
    else:
        argv = ["gen-corpus", "--spec", spec_file, "--out", corpus_path]
    capsys.readouterr()
    assert main(argv + ["--set", kv]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    key = kv.partition("=")[0]
    assert len(err) == 1 and err[0].startswith(f"prvr: config-error: {key} must be finite")


def test_memory_error_exits_3(tmp_path, spec_file, capsys, monkeypatch):
    # numpy raises MemoryError for a request it cannot map, such as the
    # 7.28 TiB of features that n_q = 10^12 declares; never allocate here
    import prvr.cli as cli

    def refuse(spec, split):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")
    monkeypatch.setattr(cli, "generate_synthetic", refuse)
    out = tmp_path / "x.prvc"
    assert main(["gen-corpus", "--spec", spec_file, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["prvr: memory-error: Unable to allocate 7.28 TiB for an array"]
    assert not out.exists()


@pytest.mark.parametrize("command", ("gen-corpus", "train"))
def test_non_utf8_config_exits_3(tmp_path, spec_file, capsys, command):
    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    bad = tmp_path / "utf16.cfg"
    bad.write_bytes(b"\xff\xfe" + "seed = 5\n".encode("utf-16-le"))
    if command == "train":
        argv = ["train", "--corpus", corpus_path, "--config", str(bad),
                "--out", str(tmp_path / "run")]
    else:
        argv = ["gen-corpus", "--spec", str(bad), "--out", str(tmp_path / "x.prvc")]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"prvr: config-error: cannot read config file {bad}")


def test_audit_of_one_video_corpus_leaves_unpaired_means_empty(tmp_path, spec_file,
                                                                train_file, capsys):
    # one video: every pair is positive, so the unpaired means are undefined
    import csv
    import warnings

    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path, "--set", "n_v=1"]) == 0
    run = tmp_path / "run"
    assert main(["train", "--corpus", corpus_path, "--config", train_file,
                 "--out", str(run)]) == 0
    out = tmp_path / "audit.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["audit", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--corpus", corpus_path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="") as fh:
        summary = {row[1]: row[2] for row in csv.reader(fh) if row[0] == "summary"}
    assert summary["mean_unpaired_similarity"] == ""
    assert summary["mean_unpaired_uncertainty"] == ""
    assert float(summary["mean_positive_similarity"]) == float(summary["tau_s"])


@pytest.mark.parametrize("lines, lineno, what", (
    ("seed = 2\nseed = 5\n", 3, "repeated key 'seed'"),
    ("= 5\n", 2, "empty key")), ids=("repeated", "empty"))
def test_repeated_or_empty_config_key_exits_3(tmp_path, spec_file, capsys, lines, lineno,
                                              what):
    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    bad = tmp_path / "train.cfg"
    bad.write_text("epochs = 2\n" + lines)
    capsys.readouterr()
    assert main(["train", "--corpus", corpus_path, "--config", str(bad),
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"prvr: config-error: {bad}:{lineno}: {what}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sets, what", (
    (["=5"], "empty key"),
    (["seed=2", "seed=5"], "repeated key 'seed'"),
    (["seed"], "expected key=value, got 'seed'")), ids=("empty", "repeated", "no-equals"))
def test_bad_set_override_exits_3(tmp_path, spec_file, train_file, capsys, sets, what):
    corpus_path = str(tmp_path / "c.prvc")
    assert main(["gen-corpus", "--spec", spec_file, "--out", corpus_path]) == 0
    capsys.readouterr()
    argv = ["train", "--corpus", corpus_path, "--config", train_file,
            "--out", str(tmp_path / "run")]
    assert main(argv + [a for kv in sets for a in ("--set", kv)]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [f"prvr: config-error: --set: {what}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("extra, what", ((b"seed=5\n", "repeated key 'seed'"),
                                         (b"=5\n", "empty key")), ids=("repeated", "empty"))
def test_repeated_or_empty_key_in_config_block_exits_3(tmp_path, spec_file, train_file,
                                                       capsys, extra, what):
    from prvr.errors import FormatError
    from prvr.trainer import resume

    ckpt, corpus_path = _checkpoint_and_corpus(tmp_path, spec_file, train_file)
    data = open(ckpt, "rb").read()
    block = _config_block(data)
    lineno = block.split(b"\n").index(b"seed=9") + 2
    bad = block.replace(b"seed=9\n", b"seed=9\n" + extra)
    with open(ckpt, "wb") as fh:
        fh.write(data[:8] + struct.pack("<I", len(bad)) + bad + data[12 + len(block):])
    with pytest.raises(FormatError, match=f"^config block: line:{lineno}: {what}$"):
        resume(ckpt)
    _evaluate_fails(tmp_path, ckpt, corpus_path, capsys,
                    f"prvr: config-error: config block: line:{lineno}: {what}")


def test_every_module_imports_on_its_own():
    # the package re-exports nothing, so no import in __init__ can hide a
    # cycle that a fresh process importing one module would hit
    import prvr

    src = os.path.dirname(os.path.dirname(prvr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    names = [m.name for m in pkgutil.iter_modules(prvr.__path__)]
    assert len(names) >= 12
    for name in names:
        proc = subprocess.run([sys.executable, "-c", f"import prvr.{name}"],
                              capture_output=True, env=env)
        assert proc.returncode == 0, f"prvr.{name}: {proc.stderr.decode()}"


@pytest.mark.parametrize("pairs", (
    [], [[1, 3]], [[0, 0]], [[3, 4]], [[0, 1], [2, 0], [2, 1], [2, 2], [2, 3], [2, 4], [3, 4]]),
    ids=("none", "one", "index 0", "last query and video", "a query with every video"))
def test_detected_pairs_writer_matches_csv_writer(pairs):
    # audit.csv's pair rows, written a query row at a time, have the bytes
    # csv.writer gives the rows one by one (4 queries x 5 videos)
    import csv
    import io

    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    _write_pairs(got, pairs, 5)
    csv.writer(want).writerows(["ambiguous_pair", x, j, ""] for x, j in pairs.tolist())
    assert got.getvalue() == want.getvalue()
