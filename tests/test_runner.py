"""Tests for configuration handling, training plumbing, and the CLI."""

import numpy as np
import pytest

from dul_lab import cli, config, runner
from dul_lab.config import TrainConfig, load_config, save_config, substream
from dul_lab.nn import load_checkpoint

TINY = TrainConfig(
    arch=(2, 8, 3), seed=5, pretrain_epochs=3, finetune_epochs=2,
    n_per_class=40, n_sem_train=60, n_sem_test=60, n_eval_id=60,
    batch_id=32, batch_ood=32,
)


def write_tiny_config(path):
    save_config(TINY, path)
    return str(path)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(arch=(2,))
    with pytest.raises(ValueError):
        TrainConfig(pretrain_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(schedule="linear")
    with pytest.raises(ValueError):
        TrainConfig(method="mixup")
    with pytest.raises(ValueError):
        TrainConfig(activation="gelu")
    with pytest.raises(ValueError):
        TrainConfig(eps_grid=())
    # values that used to fail mid-run, skew noise_sweep or train the wrong
    # head silently: the data are 2-D and the head needs one logit per class
    for bad in (dict(target_alpha0=3.0), dict(k=15),
                dict(eps_grid=(1.0, 2.0, 3.0)), dict(eps_grid=(0.5, 0.0)),
                dict(arch=(3, 8, 3)), dict(arch=(2, 8, 5)),
                dict(k=4), dict(batch_id=0),
                dict(batch_ood=0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_config_round_trip(tmp_path):
    cfg = TINY.with_(method="dul", lam=1.25, eps_grid=(0.0, 0.5))
    path = tmp_path / "run.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_unknown_key_and_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[train]\nwarmup = 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)
    path.write_text("[optimizer]\nlr0 = 0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown section"):
        load_config(path)
    path.write_text("[loss]\ntarget_alpha0 = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.ini: target_alpha0 must exceed k"):
        load_config(path)
    path.write_text("lr0 = 0.1\n", encoding="utf-8")  # no section header
    with pytest.raises(ValueError, match=r"bad\.ini: "):
        load_config(path)


def test_substream_disjoint_and_deterministic():
    a = substream(3, config.STREAM_INIT).standard_normal(8)
    b = substream(3, config.STREAM_INIT).standard_normal(8)
    c = substream(3, config.STREAM_BATCH).standard_normal(8)
    d = substream(4, config.STREAM_INIT).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_make_datasets_shapes():
    id_train, sem_train = runner.make_datasets(TINY)
    assert id_train.n == 120 and sem_train.n == 60
    id_eval, cov, sem_test = runner.make_eval_datasets(TINY)
    assert set(cov) == set(TINY.eps_grid)
    assert cov[0.0].noise_eps == 0.0
    assert np.array_equal(cov[0.0].points, id_eval.points)


def test_pretrain_learns_the_blobs():
    cfg = TINY.with_(pretrain_epochs=30)
    model = runner.pretrain(cfg)
    id_eval, _, _ = runner.make_eval_datasets(cfg)
    from dul_lab.metrics import accuracy
    assert accuracy(model, id_eval) > 0.9


def test_finetune_requires_method():
    model = runner.pretrain(TINY)
    with pytest.raises(ValueError):
        runner.finetune(TINY, model)


@pytest.mark.parametrize("method", ["oe", "energy", "dpn", "dul"])
def test_finetune_runs_and_changes_parameters(method):
    base = runner.pretrain(TINY)
    tuned = runner.finetune(TINY.with_(method=method), base)
    assert not np.array_equal(base.get_flat(), tuned.get_flat())


def test_evaluate_report_fields():
    model = runner.pretrain(TINY)
    report = runner.evaluate(TINY, model)
    assert set(report.detection) == set(
        ("msp", "maxlogit", "energy", "diffent", "strength"))
    for fpr, roc, pr in report.detection.values():
        assert 0.0 <= fpr <= 1.0 and 0.0 <= roc <= 1.0 and 0.0 <= pr <= 1.0
    assert 0.0 <= report.id_acc <= 1.0
    assert set(report.uncertainty) == {"ID", "COV", "SEM_TEST"}


def test_noise_sweep_rows():
    model = runner.pretrain(TINY)
    rows = runner.noise_sweep(TINY, model)
    assert [r["eps"] for r in rows] == list(TINY.eps_grid)
    assert rows[0]["shifted_du"] == 0.0
    csv_text = runner.sweep_csv(rows)
    assert csv_text.startswith("eps,cov_acc,shifted_du,mean_du,mean_total\n")
    assert len(csv_text.strip().split("\n")) == len(rows) + 1


def test_verify_quick_all_pass():
    checks = runner.verify(TINY, fuzz=300, quick=True)
    names = [c[0] for c in checks]
    assert "theorem1_lower_bound" in names
    for name, lhs, rhs, ok in checks:
        assert ok, (name, lhs, rhs)


def test_train_loop_deterministic():
    a = runner.pretrain(TINY)
    b = runner.pretrain(TINY)
    assert np.array_equal(a.get_flat(), b.get_flat())


def test_cli_gen_data(tmp_path):
    cfgfile = write_tiny_config(tmp_path / "run.ini")
    rc = cli.main(["--config", cfgfile, "--out", str(tmp_path / "out"),
                   "gen-data"])
    assert rc == 0
    out = tmp_path / "out"
    for name in ("id_train.csv", "sem_train.csv", "id_eval.csv",
                 "sem_test.csv"):
        assert (out / name).exists()
    assert any(p.name.startswith("cov_eps") for p in out.iterdir())


def test_cli_pretrain_eval_sweep(tmp_path):
    cfgfile = write_tiny_config(tmp_path / "run.ini")
    out = str(tmp_path / "out")
    assert cli.main(["--config", cfgfile, "--out", out, "pretrain"]) == 0
    ckpt = str(tmp_path / "out" / "pretrained.ckpt")
    model = load_checkpoint(ckpt)
    assert model.out_dim == 3
    assert cli.main(["--config", cfgfile, "--out", out, "eval",
                     "--checkpoint", ckpt]) == 0
    assert (tmp_path / "out" / "eval_report.csv").exists()
    assert cli.main(["--config", cfgfile, "--out", out, "sweep",
                     "--checkpoint", ckpt]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_cli_finetune(tmp_path):
    cfgfile = write_tiny_config(tmp_path / "run.ini")
    out = str(tmp_path / "out")
    assert cli.main(["--config", cfgfile, "--out", out, "pretrain"]) == 0
    assert cli.main(["--config", cfgfile, "--out", out, "finetune",
                     "--method", "oe"]) == 0
    assert (tmp_path / "out" / "finetuned_oe.ckpt").exists()
    # no method configured anywhere is a usage error
    assert cli.main(["--config", cfgfile, "--out", out, "finetune"]) == 2
    # missing checkpoint
    assert cli.main(["--config", cfgfile, "--out", str(tmp_path / "empty"),
                     "finetune", "--method", "oe"]) == 2


def test_cli_missing_config_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(tmp_path / "nope.ini"), "pretrain"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", [
    "[loss]\ntarget_alpha0 = 2.5\n",
    "[data]\neps_grid = 1 2 3\n",
    "[train]\nbatch_id = many\n",
    "[train]\nbatch_id = 0\n",
    "[train]\narch = 2 8 5\n",
    "[train]\nwarmup = 5\n",
    "lr0 = 0.1\n",  # configparser's own error spans lines
])
def test_cli_bad_config_exits_2_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "pretrained.ckpt").exists()


def test_cli_global_flags_after_subcommand(tmp_path):
    cfgfile = write_tiny_config(tmp_path / "run.ini")
    out = str(tmp_path / "out")
    assert cli.main(["pretrain", "--config", cfgfile, "--out", out]) == 0
    assert (tmp_path / "out" / "pretrained.ckpt").exists()


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["eval", "sweep", "finetune"])
@pytest.mark.parametrize("content", [None, "dul-mlp-v1\ntanh\n2\n"])
def test_cli_bad_checkpoint_exits_2_with_one_line(tmp_path, capsys, command, content):
    ckpt = tmp_path / "model.ckpt"
    if content is None:
        expected = f"error: checkpoint not found: {ckpt}\n"
    else:
        ckpt.write_text(content, encoding="utf-8")  # cut after the header
        expected = f"error: {ckpt}: checkpoint ends early\n"
    extra = ["--method", "oe"] if command == "finetune" else []
    rc = cli.main([command, "--checkpoint", str(ckpt), "--out", str(tmp_path)] + extra)
    assert rc == 2
    assert capsys.readouterr().err == expected
