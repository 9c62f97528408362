"""tools/same_outputs.py: the checkout against itself, and its verdicts."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_checkout_against_itself_at_smoke_scale(tmp_path, capsys):
    assert same_outputs.main([str(ROOT), str(ROOT), "--smoke", "--work", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "prvr").glob("*.py"))
    # the src/ line count of both sides, then the verdict: 4 corpora (file +
    # stdout each), 6 cases (5 files + 3 stdouts each) and the grad-check stdout
    assert out == [f"src/prvr/*.py lines: a {lines}, b {lines}",
                   "57 outputs compared: 0 differ, 0 commands failed"]
    stdouts = ("train.stdout", "evaluate.stdout", "audit.stdout")
    for side in ("a", "b"):
        for name in ("arl-11", "warm-11", "arl-12", "warm-12"):
            run = tmp_path / side / name
            assert sorted(p.name for p in run.iterdir()) == sorted(same_outputs.RUN_FILES
                                                                   + stdouts)
        assert (tmp_path / side / "tv-11" / "audit.csv").stat().st_size > 0
        for seed in same_outputs.SEEDS:
            corpora = tmp_path / side / f"corpus-{seed}"
            assert sorted(p.name for p in corpora.iterdir()) == [
                "test.prvc", "test.stdout", "train.prvc", "train.stdout"]
    # the kept stdouts are the compared ones, paths masked
    train_out = (tmp_path / "a" / "arl-11" / "train.stdout").read_text()
    assert train_out.startswith("config ") and str(tmp_path) not in train_out
    assert "<work>/arl-11/checkpoint.ckpt" in train_out
    grad_out = (tmp_path / "b" / "grad-check.stdout").read_text()
    assert grad_out == (tmp_path / "a" / "grad-check.stdout").read_text()
    assert grad_out.startswith("config seed=1\nconfig instances=2\n")
    assert grad_out.splitlines()[-1].startswith("grad-check: instances=2 max_rel_error=")
    log = (tmp_path / "a" / "arl-11" / "training_log.csv").read_bytes()
    assert log.count(b"\n") == 1 + 2 * 4    # header, one row per branch and epoch


def test_cases_cover_both_configs_per_seed_and_two_variants():
    names = [name for name, *_ in same_outputs.cases(smoke=False)]
    assert names == ["arl-11", "warm-11", "arl-12", "warm-12", "tv-11", "frame-11"]
    overrides = {name: sets for name, _, _, sets in same_outputs.cases(smoke=False)}
    assert overrides["tv-11"] == ("frame_lad=false", "cross_model=false")
    assert overrides["frame-11"] == ("video_lad=false",)


def test_any_difference_or_failure_exits_1(tmp_path, capsys, monkeypatch):
    runs = iter([({"x": b"1", "y": b"2"}, []), ({"x": b"1", "z": b"2"}, [])])
    monkeypatch.setattr(same_outputs, "run_checkout", lambda *args: next(runs))
    assert same_outputs.main([str(ROOT), str(ROOT), "--work", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["differs: y", "differs: z"]

    runs = iter([({"x": b"1"}, ["a: train exited 3"]), ({"x": b"1"}, [])])
    assert same_outputs.main([str(ROOT), str(ROOT), "--work", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "failed: a: train exited 3"


def test_not_a_checkout_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        same_outputs.main([str(tmp_path), str(ROOT)])
    assert exc.value.code == 2
