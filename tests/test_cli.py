"""Command-line behavior: artifacts, determinism, exit codes."""

import argparse
import codecs
import importlib
import inspect
import json
import os
import pkgutil
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mbrobust
from mbrobust import cli, gradcheck, losses, training
from mbrobust.cli import build_parser, echo_config, main, resolve_run_config
from mbrobust.data import diagnose, load_dataset, save_dataset, split_leave_one_out
from mbrobust.evaluation import evaluate
from mbrobust.losses import Hyperparameters
from mbrobust.synthetic import planted_dataset
from mbrobust.training import TrainConfig, format_log, load_checkpoint

from conftest import write_dataset_dir


def _save_planted(path):
    ds = planted_dataset(seed=5, num_users=16, num_items=16, num_groups=4,
                         target_per_user=4, aux_per_user=5)
    save_dataset(ds, str(path))
    return str(path)


@pytest.fixture
def dataset_dir(tmp_path):
    return _save_planted(tmp_path / "data")


def _train_args(dataset_dir, out, extra=()):
    return [
        "--seed", "0", "--out", out, "train", dataset_dir,
        "--dim", "4", "--num-layers", "1", "--lr", "0.05",
        "--batch-size", "16", "--max-epochs", "2", "--lambda-reg", "1e-5",
        *extra,
    ]


class TestDiagnoseCommand:
    def test_json_matches_library_report(self, dataset_dir, capsys):
        assert main(["diagnose", dataset_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = diagnose(load_dataset(dataset_dir)).to_json_dict()
        assert payload == report

    def test_behavior_filter(self, dataset_dir, capsys):
        assert main(["diagnose", dataset_dir, "--behaviors", "view"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["bar"]) == ["view"]
        assert "dt" in payload

    @pytest.mark.parametrize("raw", [" , ", ""])
    def test_behavior_list_naming_none_exits_1(self, dataset_dir, capsys, raw):
        assert main(["diagnose", dataset_dir, "--behaviors", raw]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: --behaviors names no behavior")

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = main(["diagnose", str(tmp_path / "nope")])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_target_outside_behaviors_exits_2(self, tmp_path, capsys):
        path = write_dataset_dir(tmp_path / "data", ["view"], "buy",
                                 {"view": "alice\tapple\n"})
        assert main(["diagnose", path]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, dataset_dir, capsys):
        assert main(["diagnose", dataset_dir, "--bogus"]) == 1

    def test_bad_utf8_in_a_behavior_file_exits_2_naming_its_line(self, tmp_path, capsys):
        path = write_dataset_dir(tmp_path / "data", ["buy"], "buy", {"buy": "u\ti\n"})
        with open(os.path.join(path, "buy.tsv"), "ab") as fh:
            fh.write(b"u\tcaf\xff\n")
        assert main(["diagnose", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"{os.path.join(path, 'buy.tsv')}:2: not valid UTF-8" in err


class TestSplitAndPerturbCommands:
    def test_split_writes_layout(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "split")
        assert main(["--out", out, "split", dataset_dir]) == 0
        for name in ("manifest.json", "validation.tsv", "test.tsv",
                     "users.map", "items.map", "train.buy.tsv",
                     "train.view.tsv", "train.cart.tsv"):
            assert os.path.isfile(os.path.join(out, name)), name

    @pytest.mark.parametrize("aux, clobbered", [
        (("x", "train.x"), "train.x.tsv"),  # the split's training edges of x
        (("validation",), "validation.tsv"),
    ])
    def test_split_never_overwrites_a_behavior_file(self, tmp_path, capsys, aux,
                                                    clobbered):
        data_dir = tmp_path / "data"
        save_dataset(planted_dataset(7, aux_behaviors=aux), str(data_dir))
        before = _tree(data_dir)
        assert main(["--out", str(data_dir), "split", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(data_dir / clobbered) in err
        assert _tree(data_dir) == before

    def test_split_into_the_dataset_directory_keeps_the_dataset(self, dataset_dir):
        before, original = _tree(Path(dataset_dir)), load_dataset(dataset_dir)
        assert main(["--out", dataset_dir, "split", dataset_dir]) == 0
        after = _tree(Path(dataset_dir))
        assert {k: after[k] for k in before} == before
        assert load_dataset(dataset_dir) == original

    def test_perturb_deterministic(self, dataset_dir, tmp_path):
        outs = []
        for name in ("p1", "p2"):
            out = str(tmp_path / name)
            code = main(["--seed", "9", "--out", out, "perturb", dataset_dir,
                         "--mode", "add", "--ratio", "0.3"])
            assert code == 0
            outs.append(out)
        for fname in ("view.tsv", "cart.tsv", "buy.tsv"):
            a = Path(outs[0], fname).read_bytes()
            b = Path(outs[1], fname).read_bytes()
            assert a == b, fname

    def test_perturb_rejects_target(self, dataset_dir, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "p"), "perturb", dataset_dir,
                     "--mode", "add", "--ratio", "0.3", "--behaviors", "buy"])
        assert code == 2

    def test_perturb_ratio_above_one_exits_1(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(["--out", str(out), "perturb", dataset_dir,
                     "--mode", "add", "--ratio", "1.5"])
        assert code == 1
        assert "ratio" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [" , ", ""])
    def test_perturb_behavior_list_naming_none_exits_1(self, dataset_dir, tmp_path,
                                                       capsys, raw):
        out = tmp_path / "p"
        code = main(["--out", str(out), "perturb", dataset_dir,
                     "--mode", "add", "--ratio", "0.5", "--behaviors", raw])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "config error: --behaviors names no behavior")
        assert not out.exists()

    def test_negative_seed_exits_1_naming_the_flag(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(["--seed", "-1", "--out", str(out), "perturb", dataset_dir,
                     "--mode", "add", "--ratio", "0.1"])
        assert code == 1
        assert "--seed: root seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


def _tree(root: Path) -> dict:
    """Every path under ``root``, with the bytes of each file."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestBehaviorNames:
    def test_absolute_name_exits_2_and_writes_nothing(self, dataset_dir, tmp_path,
                                                      capsys):
        # the name points at a file in tmp_path outside both the dataset and
        # the output directory, so a run that follows it stays in tmp_path
        outside = tmp_path / "elsewhere" / "escaped"
        outside.parent.mkdir()
        os.replace(os.path.join(dataset_dir, "view.tsv"), f"{outside}.tsv")
        manifest = Path(dataset_dir, "manifest.json")
        manifest.write_text(json.dumps(
            {"behaviors": [str(outside), "cart", "buy"], "target": "buy"}))
        before = _tree(tmp_path)
        code = main(["--out", str(tmp_path / "out"), "perturb", dataset_dir,
                     "--mode", "add", "--ratio", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(str(outside)) in err
        assert _tree(tmp_path) == before

    def test_comma_name_exits_2_before_training(self, dataset_dir, tmp_path, capsys):
        # a comma would add a cell to the train_log.csv header
        os.replace(os.path.join(dataset_dir, "view.tsv"),
                   os.path.join(dataset_dir, "vi,ew.tsv"))
        manifest = Path(dataset_dir, "manifest.json")
        manifest.write_text(json.dumps(
            {"behaviors": ["vi,ew", "cart", "buy"], "target": "buy"}))
        out = tmp_path / "run"
        assert main(_train_args(dataset_dir, str(out))) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and repr("vi,ew") in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["split", "perturb", "train", "sweep", "diagnose"])
def test_os_error_on_the_output_path_exits_2(dataset_dir, tmp_path, capsys, command):
    # a regular file where the output directory goes; diagnose writes a file,
    # so it gets a name longer than a file system allows
    out = tmp_path / ("x" * 300 if command == "diagnose" else "file")
    if command != "diagnose":
        out.write_text("")
    extra = {
        "perturb": ["--mode", "add", "--ratio", "0.1"],
        "train": ["--max-epochs", "1"],
        "sweep": ["--ratios", "0.1", "--modes", "add", "--max-epochs", "1"],
    }
    code = main(["--out", str(out), command, dataset_dir, *extra.get(command, [])])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(out) in err


class TestTrainCommand:
    def test_writes_artifacts(self, dataset_dir, tmp_path):
        out = str(tmp_path / "run")
        assert main(_train_args(dataset_dir, out)) == 0
        for name in ("checkpoint.npz", "train_log.csv", "effective_config.cfg",
                     "validation_report.json"):
            assert os.path.isfile(os.path.join(out, name)), name
        header = Path(out, "train_log.csv").read_text().splitlines()[0]
        assert header == ("epoch,bpr_view,bpr_cart,bpr_buy,rrm,orm,main,total,"
                          "val_hr10,val_ndcg10,seconds")

    def test_identical_configs_reproduce_artifacts(self, dataset_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert main(_train_args(dataset_dir, out)) == 0
            outs.append(out)
        ck1 = Path(outs[0], "checkpoint.npz").read_bytes()
        ck2 = Path(outs[1], "checkpoint.npz").read_bytes()
        assert ck1 == ck2

        def rows_minus_seconds(path):
            lines = Path(path, "train_log.csv").read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert rows_minus_seconds(outs[0]) == rows_minus_seconds(outs[1])

    def test_zero_weights_are_the_only_off_switch(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "ablate")
        code = main(_train_args(dataset_dir, out,
                                extra=("--lambda-rrm", "0", "--lambda-orm", "0")))
        assert code == 0
        cfg = Path(out, "effective_config.cfg").read_text()
        assert "lambda_rrm = 0.0" in cfg
        assert "lambda_orm = 0.0" in cfg

        # a disable flag or config key is no second spelling: each fails
        # before any output
        capsys.readouterr()
        out = str(tmp_path / "flag")
        assert main(_train_args(dataset_dir, out, extra=("--disable-rrm",))) == 1
        assert "unrecognized arguments: --disable-rrm" in capsys.readouterr().err
        assert not os.path.exists(out)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("dim = 4\ndisable_rrm = true\n")
        out = str(tmp_path / "key")
        assert main(_train_args(dataset_dir, out, extra=("--config", str(cfg_path)))) == 1
        assert f"{cfg_path}:2: unknown config key 'disable_rrm'" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_ks_flag_is_gone(self, dataset_dir, tmp_path, capsys, command):
        # no training code read it; evaluate --ks takes other cutoffs
        out = str(tmp_path / "run")
        assert main(["--out", out, command, dataset_dir, "--ks", "5,10"]) == 1
        assert "unrecognized arguments: --ks" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_ks_config_key_is_gone(self, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("dim = 4\nks = 5,10\n")
        out = str(tmp_path / "run")
        assert main(_train_args(dataset_dir, out, extra=("--config", str(cfg_path)))) == 1
        assert f"{cfg_path}:2: unknown config key 'ks'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_drop_behavior_removes_column(self, dataset_dir, tmp_path):
        out = str(tmp_path / "drop")
        assert main(_train_args(dataset_dir, out,
                                extra=("--drop-behaviors", "view"))) == 0
        header = Path(out, "train_log.csv").read_text().splitlines()[0]
        assert "bpr_view" not in header
        assert "bpr_cart" in header

    @pytest.mark.parametrize("variant, orm_logged", [("rex", False), ("irm_v1", True)])
    def test_a_term_that_never_ran_has_empty_cells(self, dataset_dir, tmp_path, variant,
                                                    orm_logged):
        # the target alone: alignment needs an auxiliary behavior and the
        # risk variance two behaviors; an IRM penalty runs on the target
        out = str(tmp_path / "single")
        assert main(_train_args(dataset_dir, out, extra=(
            "--drop-behaviors", "view,cart", "--irm-variant", variant))) == 0
        header, *rows = Path(out, "train_log.csv").read_text().splitlines()
        columns = header.split(",")
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            assert cells["rrm"] == ""
            assert (cells["orm"] != "") == orm_logged
            assert cells["main"] != ""

    def test_dropping_target_rejected_before_training(self, dataset_dir, tmp_path,
                                                      capsys):
        out = str(tmp_path / "bad")
        code = main(_train_args(dataset_dir, out,
                                extra=("--drop-behaviors", "buy")))
        assert code == 1
        assert not os.path.isfile(os.path.join(out, "checkpoint.npz"))

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("dim = 4\nlr = 0.05\nmax_epochs = 1\n"
                            "num_layers = 1\nbatch_size = 16\n")
        out = str(tmp_path / "cfgrun")
        code = main(["--out", out, "train", dataset_dir,
                     "--config", str(cfg_path), "--max-epochs", "2"])
        assert code == 0
        text = Path(out, "effective_config.cfg").read_text()
        assert "max_epochs = 2" in text  # flag wins over file
        assert "dim = 4" in text

    def test_non_finite_loss_exits_3(self, dataset_dir, tmp_path, capsys,
                                     monkeypatch):
        real_main_loss = losses.main_loss
        monkeypatch.setattr(losses, "main_loss", lambda *args: (
            float("inf"), *real_main_loss(*args)[1:]))
        assert main(_train_args(dataset_dir, str(tmp_path / "run"))) == 3
        assert "non-finite main loss" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "-1", "learning rate"),
        ("--lr", "inf", "learning rate"),
        ("--tau", "nan", "temperature"),
        ("--lambda-orm", "nan", "lambda_orm"),
        ("--max-epochs", "-1", "max_epochs"),
    ])
    def test_bad_hyperparameter_exits_1_before_training(
        self, dataset_dir, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("training started"))
        code = main(_train_args(dataset_dir, str(tmp_path / "run"), (flag, value)))
        assert code == 1
        assert message in capsys.readouterr().err

    def test_negative_seed_exits_1_before_writing(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        args = _train_args(dataset_dir, str(out))
        assert args[:2] == ["--seed", "0"]
        code = main(["--seed", "-1", *args[2:]])
        assert code == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("learning_rate = 0.1\n")
        code = main(["--out", str(tmp_path / "o"), "train", dataset_dir,
                     "--config", str(cfg_path)])
        assert code == 1

    def test_config_file_of_bad_utf8_exits_1_naming_it(self, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"dim = 4\n# caf\xff\n")
        code = main(["--out", str(tmp_path / "o"), "train", dataset_dir,
                     "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{cfg_path}: not valid UTF-8" in err

    def test_run_reproducible_from_echoed_config_alone(self, dataset_dir,
                                                       tmp_path):
        first = str(tmp_path / "first")
        assert main(_train_args(dataset_dir, first)) == 0
        echoed = os.path.join(first, "effective_config.cfg")
        second = str(tmp_path / "second")
        assert main(["--out", second, "train", dataset_dir,
                     "--config", echoed]) == 0
        ck1 = Path(first, "checkpoint.npz").read_bytes()
        ck2 = Path(second, "checkpoint.npz").read_bytes()
        assert ck1 == ck2
        for name in ("effective_config.cfg", "validation_report.json"):
            assert Path(first, name).read_bytes() == Path(second, name).read_bytes(), name
        # the validation report takes evaluate's default cutoffs
        assert json.loads(Path(first, "validation_report.json").read_text())["ks"] == [10, 20]

    def test_config_file_with_a_utf8_bom_reproduces_the_checkpoint(self, dataset_dir,
                                                                   tmp_path):
        first = str(tmp_path / "first")
        assert main(_train_args(dataset_dir, first)) == 0
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(codecs.BOM_UTF8 + Path(first, "effective_config.cfg").read_bytes())
        second = str(tmp_path / "second")
        assert main(["--out", second, "train", dataset_dir, "--config", str(bom)]) == 0
        assert (Path(first, "checkpoint.npz").read_bytes()
                == Path(second, "checkpoint.npz").read_bytes())

    def test_saturated_target_exits_2_naming_the_cause(self, tmp_path, capsys):
        # every user with a target edge has the one item, so no negative exists
        lines = "".join(f"u{u}\ti0\n" for u in range(4))
        data = write_dataset_dir(tmp_path / "data", ["view", "buy"], "buy",
                                 {"view": lines, "buy": lines})
        code = main(_train_args(data, str(tmp_path / "run")))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: no negative can be drawn")


class TestSplitLoading:
    @pytest.fixture
    def split_dir(self, dataset_dir, tmp_path):
        out = str(tmp_path / "split")
        assert main(["--out", out, "split", dataset_dir]) == 0
        return out

    @pytest.mark.parametrize("fname", ["test.tsv", "validation.tsv", "train.view.tsv"])
    def test_unknown_raw_id_exits_2(self, split_dir, tmp_path, capsys, fname):
        path = os.path.join(split_dir, fname)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("nosuchuser\tnosuchitem\n")
        lineno = len(Path(path).read_text(encoding="utf-8").splitlines())
        code = main(_train_args(split_dir, str(tmp_path / "run")))
        assert code == 2
        assert f"{fname}:{lineno}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"target": "buy"}', '{"behaviors": [',
                                      '["view", "buy"]'])
    def test_bad_manifest_exits_2(self, split_dir, tmp_path, capsys, text):
        path = os.path.join(split_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code = main(_train_args(split_dir, str(tmp_path / "run")))
        assert code == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("fname", ["test.tsv", "validation.tsv"])
    def test_second_held_out_pair_exits_2(self, split_dir, tmp_path, capsys, fname):
        path = os.path.join(split_dir, fname)
        first = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)[0]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(first)
        code = main(_train_args(split_dir, str(tmp_path / "run")))
        assert code == 2
        err = capsys.readouterr().err
        assert fname in err and repr(first.split()[0]) in err
        assert "more than one held-out pair" in err

    @pytest.mark.parametrize("fname", ["test.tsv", "validation.tsv"])
    def test_held_out_training_edge_exits_2(self, split_dir, tmp_path, capsys,
                                            fname):
        target = json.loads(Path(split_dir, "manifest.json").read_text())["target"]
        user, item = Path(split_dir, f"train.{target}.tsv").read_text(
            encoding="utf-8").splitlines()[0].split()[:2]
        path = os.path.join(split_dir, fname)
        text = Path(path).read_text(encoding="utf-8")
        lines = [line for line in text.splitlines(keepends=True)
                 if line.split()[0] != user]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines + [f"{user}\t{item}\n"])
        code = main(_train_args(split_dir, str(tmp_path / "run")))
        assert code == 2
        err = capsys.readouterr().err
        assert fname in err and repr(user) in err
        assert f"training {target!r} edge" in err

    def test_validation_pair_equal_to_test_pair_exits_2(self, split_dir, tmp_path,
                                                         capsys):
        user, item = Path(split_dir, "test.tsv").read_text(
            encoding="utf-8").splitlines()[0].split()
        path = os.path.join(split_dir, "validation.tsv")
        lines = [line if line.split()[0] != user else f"{user}\t{item}\n"
                 for line in Path(path).read_text(encoding="utf-8").splitlines(True)]
        assert f"{user}\t{item}\n" in lines  # the user's validation pair is now their test pair
        Path(path).write_text("".join(lines), encoding="utf-8")
        code = main(_train_args(split_dir, str(tmp_path / "run")))
        assert code == 2
        err = capsys.readouterr().err
        assert "validation.tsv" in err and repr(user) in err and repr(item) in err

    def test_bad_utf8_in_users_map_exits_2_on_evaluate(self, split_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(_train_args(split_dir, out)) == 0
        path = os.path.join(split_dir, "users.map")
        with open(path, "ab") as fh:
            fh.write(b"caf\xff\t999\n")
        lineno = len(Path(path).read_bytes().splitlines())
        capsys.readouterr()
        code = main(["evaluate", split_dir,
                     "--checkpoint", os.path.join(out, "checkpoint.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"users.map:{lineno}: not valid UTF-8" in err

    def test_malformed_id_map_line_exits_2(self, split_dir, tmp_path, capsys):
        path = os.path.join(split_dir, "users.map")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("no-dense-id\n")
        lineno = len(Path(path).read_text(encoding="utf-8").splitlines())
        code = main(_train_args(split_dir, str(tmp_path / "run")))
        assert code == 2
        assert f"users.map:{lineno}:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["gap", "repeated dense id", "repeated raw id",
                                      "negative id"])
    def test_inconsistent_id_map_exits_2(self, split_dir, tmp_path, capsys, case):
        path = os.path.join(split_dir, "items.map")
        lines = sorted(Path(path).read_text(encoding="utf-8").splitlines(),
                       key=lambda line: int(line.split("\t")[1]))
        first, last = (line.split("\t")[0] for line in (lines[0], lines[-1]))
        lines = {
            "gap": lines[:-1] + [f"{last}\t{len(lines)}"],
            "repeated dense id": lines[:-1] + [f"{last}\t0"],
            "repeated raw id": lines + [f"{first}\t{len(lines)}"],
            "negative id": lines[:-1] + [f"{last}\t-1"],
        }[case]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        code = main(_train_args(split_dir, str(tmp_path / "run")))
        assert code == 2
        assert "items.map" in capsys.readouterr().err

    def test_empty_training_target_exits_2(self, split_dir, tmp_path, capsys):
        target = json.loads(Path(split_dir, "manifest.json").read_text())["target"]
        open(os.path.join(split_dir, f"train.{target}.tsv"), "w").close()
        code = main(_train_args(split_dir, str(tmp_path / "run")))
        assert code == 2
        assert f"train.{target}.tsv" in capsys.readouterr().err

    def test_empty_test_set_exits_2_on_evaluate(self, split_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(_train_args(split_dir, out)) == 0
        open(os.path.join(split_dir, "test.tsv"), "w").close()
        capsys.readouterr()
        code = main(["evaluate", split_dir,
                     "--checkpoint", os.path.join(out, "checkpoint.npz")])
        assert code == 2
        assert "no held-out pairs" in capsys.readouterr().err


# Every Hyperparameters field (``seed`` is the global --seed) and every
# TrainConfig run field (``eval_every``), each with a
# non-default value to pass through the flags, a config file and the echo.
_STR_VALUES = {"irm_variant": "irm_v2", "orm_scope": "aux_only",
               "rrm_denominator": "literal"}
_SCHEMA = {f.name: f.default for f in fields(Hyperparameters) if f.name != "seed"}
_SCHEMA.update((f.name, f.default) for f in fields(TrainConfig) if f.name != "hp")


def _schema_text(key):
    default = _SCHEMA[key]
    if isinstance(default, str):
        return _STR_VALUES[key]
    return str(default * 2)


def _resolved_text(cfg, key):
    return str(getattr(cfg.hp, key) if hasattr(cfg.hp, key) else getattr(cfg, key))


@pytest.mark.parametrize("key", list(_SCHEMA))
def test_every_config_field_reaches_flags_file_and_echo(key, tmp_path):
    text = _schema_text(key)
    parser = build_parser()
    for command in ("train", "sweep"):
        args = parser.parse_args([command, "data", "--" + key.replace("_", "-"), text])
        cfg, _ = resolve_run_config(args)
        assert _resolved_text(cfg, key) == text, command

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{key} = {text}\n")
    cfg, _ = resolve_run_config(parser.parse_args(["train", "data",
                                                   "--config", str(cfg_path)]))
    assert _resolved_text(cfg, key) == text

    echo_config(cfg, (), str(tmp_path / "out"))
    echoed = (tmp_path / "out" / "effective_config.cfg").read_text().splitlines()
    assert f"{key} = {text}" in echoed


def test_config_keys_and_flags_are_the_schema():
    # one spelling per knob: the config keys are the dataclass fields plus
    # drop_behaviors, and the train/sweep flags are those keys (seed is the
    # global --seed) plus --config, and the sweep grid
    keys = {f.name for f in fields(Hyperparameters)}
    keys |= {f.name for f in fields(TrainConfig) if f.name != "hp"}
    keys.add("drop_behaviors")
    assert set(cli._CONFIG_KEYS) == keys
    flags = {"--" + k.replace("_", "-") for k in keys - {"seed"}} | {"--config"}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, extra in (("train", set()), ("sweep", {"--ratios", "--modes"})):
        options = {opt for action in commands[command]._actions
                   for opt in action.option_strings if opt.startswith("--")}
        assert options - {"--help"} == flags | extra, command


def test_readme_lists_match_the_code():
    # each list is the backquoted text of one README passage
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def passage(start, end):
        return re.search(re.escape(start) + "(.*?)" + re.escape(end), readme, re.S).group(1)

    keys = passage("The keys, in\nthe order `effective_config.cfg` lists them, are", ". ")
    assert re.findall(r"`(\w+)`", keys) == list(cli._CONFIG_KEYS)
    columns = passage("`bpr_<behavior>` column per trained behavior:", ". ")
    assert ",".join(re.findall(r"`([^`]+)`", columns)) == format_log([], ["<behavior>"]).strip()
    codes = dict(re.findall(r"`(\d)` (\w+)", passage("Exit codes:", "\n\n")))
    assert codes == {str(cli.EXIT_OK): "success", str(cli.EXIT_USAGE): "usage",
                     str(cli.EXIT_DATA): "data", str(cli.EXIT_NUMERIC): "numerical"}
    assert sorted(str(v) for k, v in vars(cli).items() if k.startswith("EXIT_")) == sorted(codes)


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, language):
    """The first ``language`` code block under the README's ``## heading``."""
    section = _README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(f"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_synopsis_parses():
    # each synopsis line, with its optional parts given and the [flags]
    # placeholder dropped, is a command line the parser accepts
    for line in _readme_block("Command line", "bash").splitlines():
        argv = shlex.split(line.replace("[flags]", "").replace("[", "").replace("]", ""))
        assert argv[0] == "mbrobust", line
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the parser rejects the README line {line!r}")


def _pointers(text, roots):
    """The backquoted dotted names in ``text`` that start with a key of ``roots``."""
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return [m.group(0) for span in spans
            if (m := re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span))
            and m.group(0).split(".")[0] in roots]


def test_readme_code_pointers_resolve():
    # every code pointer names an attribute of the code, and every design
    # note points at the code that holds the rest of it.  A pointer starts
    # with a public module of the package or a class defined in one.
    roots = {}
    for info in pkgutil.iter_modules(mbrobust.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"mbrobust.{info.name}")
            roots[info.name] = module
            roots.update((name, c) for name, c in vars(module).items()
                         if inspect.isclass(c) and c.__module__ == module.__name__)
    readme = _README.read_text(encoding="utf-8")
    for pointer in _pointers(readme, roots):
        if pointer == "losses.rrm":  # the benchmark tracer's span name for rrm_loss
            continue
        head, *parts = pointer.split(".")
        obj = roots[head]
        for part in parts:
            assert hasattr(obj, part), f"README names {pointer}, which the code lacks"
            obj = getattr(obj, part)
    notes = readme.split("\n## Design notes\n", 1)[1].split("\n## ", 1)[0].split("\n- ")[1:]
    assert notes
    for note in notes:
        assert _pointers(note, roots), f"design note without a code pointer: {note[:60]!r}"


def test_readme_quickstart_runs(tmp_path):
    code = _readme_block("Library quickstart", "python")
    assert '"path/to/dataset"' in code
    save_dataset(planted_dataset(7), str(tmp_path))
    exec(code.replace('"path/to/dataset"', repr(str(tmp_path))), {})


class TestEvaluateCommand:
    def test_roundtrip(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(_train_args(dataset_dir, out)) == 0
        capsys.readouterr()
        code = main(["evaluate", dataset_dir,
                     "--checkpoint", os.path.join(out, "checkpoint.npz"),
                     "--ks", "5,10"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ks"] == [5, 10]
        assert payload["users"] == 16
        assert payload["excluded_train_items"] is True

    def test_no_exclusion_matches_the_library(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(_train_args(dataset_dir, out)) == 0
        checkpoint = os.path.join(out, "checkpoint.npz")
        capsys.readouterr()
        code = main(["evaluate", dataset_dir, "--checkpoint", checkpoint,
                     "--no-exclusion"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["excluded_train_items"] is False
        state, _ = load_checkpoint(checkpoint)
        split = split_leave_one_out(load_dataset(dataset_dir))
        report = evaluate(state, split, exclude_train=False)
        assert payload["hr"] == {str(k): v for k, v in report.hr.items()}
        assert payload["ndcg"] == {str(k): v for k, v in report.ndcg.items()}

    def test_trained_planted_fixture_scores_perfectly(self, tmp_path, capsys):
        ds = planted_dataset(seed=7)
        data_dir = str(tmp_path / "planted")
        save_dataset(ds, data_dir)
        out = str(tmp_path / "run")
        code = main([
            "--seed", "1", "--out", out, "train", data_dir,
            "--dim", "16", "--num-layers", "2", "--tau", "0.2",
            "--lambda-rrm", "0.5", "--lambda-orm", "1.0",
            "--lambda-reg", "1e-5", "--lr", "0.03", "--batch-size", "64",
            "--max-epochs", "200", "--patience", "10",
        ])
        assert code == 0
        capsys.readouterr()
        code = main(["evaluate", data_dir,
                     "--checkpoint", os.path.join(out, "checkpoint.npz"),
                     "--ks", "10"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hr"]["10"] == 1.0

    def test_dropped_behavior_checkpoint_evaluates(self, dataset_dir, tmp_path,
                                                  capsys):
        out = str(tmp_path / "run")
        assert main(_train_args(dataset_dir, out, ["--drop-behaviors", "view"])) == 0
        capsys.readouterr()
        code = main(["evaluate", dataset_dir,
                     "--checkpoint", os.path.join(out, "checkpoint.npz")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["users"] == 16

    def test_behaviors_named_like_split_files_train_and_evaluate(self, tmp_path,
                                                               capsys):
        # such a directory holds validation.tsv and test.tsv; only a
        # users.map makes a split directory
        ds = planted_dataset(seed=5, num_users=16, num_items=16, num_groups=4,
                             target_per_user=4, aux_per_user=5,
                             aux_behaviors=("validation",), target="test")
        data_dir = str(tmp_path / "data")
        save_dataset(ds, data_dir)
        out = str(tmp_path / "run")
        assert main(_train_args(data_dir, out)) == 0
        assert Path(out, "train_log.csv").read_text().startswith(
            "epoch,bpr_validation,bpr_test,")
        capsys.readouterr()
        code = main(["evaluate", data_dir,
                     "--checkpoint", os.path.join(out, "checkpoint.npz")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["users"] == 16

    def test_manifest_mismatch_exits_2(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(_train_args(dataset_dir, out)) == 0
        other = planted_dataset(seed=6, num_users=12, num_items=12, num_groups=4,
                                target_per_user=3, aux_per_user=3)
        other_dir = str(tmp_path / "other")
        save_dataset(other, other_dir)
        code = main(["evaluate", other_dir,
                     "--checkpoint", os.path.join(out, "checkpoint.npz")])
        assert code == 2


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A dataset directory and the checkpoint `train` wrote for it."""
    root = tmp_path_factory.mktemp("trained")
    data_dir = _save_planted(root / "data")
    assert main(_train_args(data_dir, str(root / "run"))) == 0
    return data_dir, str(root / "run" / "checkpoint.npz")


def _rewrite_checkpoint(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` after ``edit(header, entries)``."""
    with np.load(src) as npz:
        entries = {k: npz[k] for k in npz.files}
    header = json.loads(entries["header"].tobytes())
    edit(header, entries)
    entries["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **entries)


# case -> (edit of a valid checkpoint's header and entries, message fragment)
_BAD_CHECKPOINTS = {
    "no_hyperparameters": (lambda h, e: h.pop("hyperparameters"), "header must hold"),
    "dim_narrower_than_tables": (lambda h, e: h["hyperparameters"].update(dim=3),
                                 "expected float64 (16, 3)"),
    "missing_table": (lambda h, e: e.pop("item_emb"), "lacks item_emb"),
    "rows_disagree_with_num_users": (
        lambda h, e: e.update(user_emb=e["user_emb"][:-1]), "user_emb is float64 (15, 4)"),
    "future_version": (lambda h, e: h.update(format_version=3),
                       "unsupported checkpoint version 3"),
    "non_integer_num_layers": (lambda h, e: h["hyperparameters"].update(num_layers=2.0),
                               "num_layers must be an integer"),
}


class TestMalformedCheckpoint:
    def _evaluate(self, data_dir, path, capsys):
        capsys.readouterr()
        code = main(["evaluate", data_dir, "--checkpoint", path])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("case", list(_BAD_CHECKPOINTS))
    def test_bad_entries_exit_2(self, trained_run, tmp_path, capsys, case):
        data_dir, good = trained_run
        edit, fragment = _BAD_CHECKPOINTS[case]
        path = str(tmp_path / "checkpoint.npz")
        _rewrite_checkpoint(good, path, edit)
        code, err = self._evaluate(data_dir, path, capsys)
        assert code == 2
        assert path in err and fragment in err

    @pytest.mark.parametrize("table", ["user_emb", "item_emb"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_entry_exits_2(self, trained_run, tmp_path, capsys,
                                           table, value):
        # ranking takes a NaN score for an excluded item: a NaN entry read as
        # a near-perfect model
        data_dir, good = trained_run
        path = str(tmp_path / "checkpoint.npz")

        def edit(header, entries):
            entries[table] = entries[table].copy()
            entries[table][3, 0] = value

        _rewrite_checkpoint(good, path, edit)
        code, err = self._evaluate(data_dir, path, capsys)
        assert code == 2
        assert path in err and f"{table} has a NaN or infinite entry" in err

    @pytest.mark.parametrize("overflows", [True, False])
    def test_tables_whose_scores_overflow_exit_2(self, tmp_path, capsys, overflows):
        # finite entries, but scores beyond float64: a 2^600-scaled checkpoint
        # used to evaluate with exit 0 (HR@10 0.375) and only a RuntimeWarning.
        # Scaled to ||[user_emb; item_emb]||_F^2 within 2^1020..2^1022 it
        # evaluates, and the pytest configuration fails any overflow on the way
        data_dir = str(tmp_path / "planted")
        ds = planted_dataset(seed=7)
        save_dataset(ds, data_dir)
        rng = np.random.default_rng(0)
        user, item = rng.normal(size=(40, 8)), rng.normal(size=(40, 8))
        shift = 600 if overflows else int((1022 - np.log2(np.sum(user**2) + np.sum(item**2))) // 2)
        state = losses.ModelState(np.ldexp(user, shift), np.ldexp(item, shift),
                                  Hyperparameters(dim=8))
        path = str(tmp_path / "checkpoint.npz")
        training.save_checkpoint(state, ds.manifest, path)
        code, err = self._evaluate(data_dir, path, capsys)
        if overflows:
            assert code == 2
            assert path in err and "overflow" in err
        else:
            assert code == 0, err

    def test_truncated_file_exits_2(self, trained_run, tmp_path, capsys):
        data_dir, good = trained_run
        path = tmp_path / "checkpoint.npz"
        body = Path(good).read_bytes()
        path.write_bytes(body[: len(body) // 2])
        code, err = self._evaluate(data_dir, str(path), capsys)
        assert code == 2
        assert str(path) in err and "unreadable checkpoint" in err

    def test_non_checkpoint_file_exits_2(self, trained_run, tmp_path, capsys):
        data_dir, _ = trained_run
        path = tmp_path / "train_log.csv"
        path.write_text("epoch,total\n1,0.5\n")
        code, err = self._evaluate(data_dir, str(path), capsys)
        assert code == 2
        assert str(path) in err and "not a checkpoint file" in err

    def test_json_version_1_checkpoint_exits_2(self, trained_run, tmp_path, capsys):
        data_dir, _ = trained_run
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"format_version": 1, "user_emb": [[0.5]]}))
        code, err = self._evaluate(data_dir, str(path), capsys)
        assert code == 2
        assert str(path) in err and "unsupported checkpoint version 1" in err

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    def test_unopenable_path_exits_2(self, trained_run, tmp_path, capsys, where):
        data_dir, _ = trained_run
        (tmp_path / "file").write_text("")
        path = str(tmp_path if where == "directory" else tmp_path / "file" / "c.npz")
        code, err = self._evaluate(data_dir, path, capsys)
        assert code == 2
        assert path in err and "data error" in err


class TestSweepCommand:
    def test_csv_row_contract(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(["--out", out, "sweep", dataset_dir,
                     "--ratios", "0.1,0.3,0.5", "--modes", "add,remove",
                     "--dim", "4", "--num-layers", "1", "--lr", "0.05",
                     "--batch-size", "16", "--max-epochs", "1"])
        assert code == 0
        lines = Path(out, "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # header + baseline + 6 cells
        assert lines[1].startswith("baseline,")

    def test_no_held_out_pairs_exits_2_before_training(self, tmp_path, capsys,
                                                       monkeypatch):
        # two target interactions per user: the split holds nothing out
        data_dir = str(tmp_path / "data")
        save_dataset(planted_dataset(7, target_per_user=2), data_dir)
        monkeypatch.setattr(training, "train",
                            lambda *args: pytest.fail("training started"))
        code = main(["--out", str(tmp_path / "sweep"), "sweep", data_dir,
                     "--ratios", "0.3", "--modes", "add"])
        assert code == 2
        assert "no held-out pairs to evaluate" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "sweep")  # not even the config echo

    def test_bad_ratio_exits_1_before_training(self, dataset_dir, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.setattr(training, "train",
                            lambda *args: pytest.fail("training started"))
        code = main(["--out", str(tmp_path / "sweep"), "sweep", dataset_dir,
                     "--ratios", "0.1,1.5", "--modes", "add,remove",
                     "--dim", "4", "--max-epochs", "1"])
        assert code == 1
        assert "ratio must be in (0, 1], got 1.5" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "sweep")

    # a bad mode is caught even when the grid is empty, since an empty grid is
    # itself an error
    @pytest.mark.parametrize("grid, message", [
        (("--modes", "add,flip"), "unknown perturbation mode 'flip'"),
        (("--ratios", " , "), "at least one ratio and one mode"),
        (("--modes", "flip", "--ratios", ""), "at least one ratio and one mode"),
    ])
    def test_bad_grid_exits_1_before_any_output(self, dataset_dir, tmp_path, capsys,
                                                monkeypatch, grid, message):
        monkeypatch.setattr(training, "train",
                            lambda *args: pytest.fail("training started"))
        code = main(["--out", str(tmp_path / "sweep"), "sweep", dataset_dir, *grid,
                     "--dim", "4", "--max-epochs", "1"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "sweep")

    def test_dropping_target_exits_1_like_train(self, dataset_dir, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(training, "train",
                            lambda *args: pytest.fail("training started"))
        code = main(["--out", str(tmp_path / "sweep"), "sweep", dataset_dir,
                     "--drop-behaviors", "buy", "--dim", "4", "--max-epochs", "1"])
        assert code == 1
        assert "must not name the target" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_small_pass(self, capsys):
        code = main(["gradcheck", "--sizes", "5x5x2", "--variant", "rex"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_single_behavior_sizes_pass_every_path(self, capsys):
        # the objective without alignment or invariance: the main term and L2
        code = main(["gradcheck", "--sizes", "6x6x1,8x8x1"])
        assert code == 0
        out = capsys.readouterr().out
        paths = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(paths) == 2 * 12 and "FAIL" not in out
        assert all("b1" in line for line in paths)

    def test_variant_filter_restricts_paths(self, capsys):
        code = main(["gradcheck", "--sizes", "5x5x2", "--variant", "irm_v1",
                     "--mode", "literal", "--scope", "aux_only"])
        assert code == 0
        out = capsys.readouterr().out
        paths = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(paths) == 1
        assert "irm_v1|literal|aux_only" in paths[0]

    def test_seed_defaults_to_zero(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_gradcheck",
                            lambda seed, **kwargs: seen.append(seed) or [])
        assert main(["gradcheck"]) == 0
        assert seen == [0]

    def test_bad_size_exits_1(self, capsys):
        assert main(["gradcheck", "--sizes", "5by5"]) == 1

    # too few users or items, or no behavior: no fixture could get an edge in
    # every behavior, so every size is rejected before the first fixture
    @pytest.mark.parametrize("size", ["5x1x2", "0x5x2", "5x5x0"])
    def test_unusable_size_exits_1(self, capsys, monkeypatch, size):
        monkeypatch.setattr(gradcheck, "random_fixture",
                            lambda *args: pytest.fail("fixture drawn"))
        assert main(["gradcheck", "--sizes", f"5x5x2,{size}"]) == 1
        assert f"fixture size {size}" in capsys.readouterr().err

    # an empty size list would check no path and pass vacuously
    @pytest.mark.parametrize("sizes", ["", ",", " , "])
    def test_no_sizes_exits_1(self, capsys, monkeypatch, sizes):
        monkeypatch.setattr(gradcheck, "random_fixture",
                            lambda *args: pytest.fail("fixture drawn"))
        assert main(["gradcheck", "--sizes", sizes]) == 1
        assert "no fixture sizes to check" in capsys.readouterr().err

    def test_negative_seed_exits_1_naming_the_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(gradcheck, "random_fixture",
                            lambda *args: pytest.fail("fixture drawn"))
        assert main(["--seed", "-1", "gradcheck"]) == 1
        assert "--seed: root seed must be >= 0, got -1" in capsys.readouterr().err
