"""Command-line interface: exit codes, outputs, manifests, determinism."""

import argparse
import dataclasses
import hashlib
import json
import logging
import os

import numpy as np
import pytest

import hsidet as h
from hsidet import cli, dictlearn, predetect
from hsidet.cli import _add_config_flags, _config_from_args, build_parser, main


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def write_tiny_scene(out_dir, seed=0):
    spec = h.SceneSpec(
        width=10, height=10, bands=6, n_endmembers=2, n_targets=3,
        target_fill=0.9, noise_sigma=0.01, seed=seed,
    )
    cube, mask, sig = h.generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cube": os.path.join(out_dir, "scene.hdr"),
        "mask": os.path.join(out_dir, "scene.mask"),
        "signature": os.path.join(out_dir, "scene.sig"),
    }
    h.save_cube(cube, paths["cube"])
    h.save_mask(mask, paths["mask"])
    h.save_signature(sig, paths["signature"])
    return paths


def write_cem_map(paths, base):
    cube = h.load_cube(paths["cube"])
    h.save_scoremap(h.cem_detect(cube, h.load_signature(paths["signature"])), base)


def count_calls(monkeypatch, calls, module, name):
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestSynthCommand:
    def test_writes_scene_and_manifest(self, tmp_path):
        out = str(tmp_path / "scene")
        assert main(["synth", "--preset", "sparse-targets", "--out", out]) == 0
        for name in ("scene.hdr", "scene.raw", "scene.mask", "scene.sig", "manifest.json"):
            assert (tmp_path / "scene" / name).exists()
        manifest = json.loads((tmp_path / "scene" / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["preset"] == "sparse-targets"

    def test_repeated_runs_byte_identical_data(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["synth", "--preset", "sparse-targets", "--out", a])
        main(["synth", "--preset", "sparse-targets", "--out", b])
        for name in ("scene.raw", "scene.hdr", "scene.mask", "scene.sig"):
            assert sha(os.path.join(a, name)) == sha(os.path.join(b, name))

    def test_seed_override_changes_scene(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["synth", "--preset", "sparse-targets", "--out", a])
        main(["synth", "--preset", "sparse-targets", "--seed", "99", "--out", b])
        assert sha(os.path.join(a, "scene.raw")) != sha(os.path.join(b, "scene.raw"))


class TestDetectCommand:
    def test_cem_detect_writes_scores(self, tmp_path):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        out = str(tmp_path / "det")
        rc = main(["detect", "--method", "cem", "--cube", paths["cube"],
                   "--signature", paths["signature"], "--out", out])
        assert rc == 0
        assert sorted(os.listdir(tmp_path / "det")) == ["cem.csv", "cem.manifest.json"]
        manifest = json.loads((tmp_path / "det" / "cem.manifest.json").read_text())
        assert manifest["outputs"] == {"scores": os.path.join(out, "cem.csv")}
        assert manifest["method"] == "cem"
        assert manifest["config"]["gamma"] == 0.3

    def test_wshr_detect_with_overrides(self, tmp_path):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        out = str(tmp_path / "det")
        rc = main(["detect", "--method", "wshr", "--cube", paths["cube"],
                   "--signature", paths["signature"], "--out", out,
                   "--owr", "5", "--iwr", "1", "--bg-atoms", "8",
                   "--target-atoms", "3", "--train-targets", "4",
                   "--bg-fraction", "0.6", "--gamma", "0.25"])
        assert rc == 0
        manifest = json.loads((tmp_path / "det" / "wshr.manifest.json").read_text())
        assert manifest["config"]["owr"] == 5
        assert manifest["config"]["gamma"] == 0.25
        smap = h.load_scoremap(str(tmp_path / "det" / "wshr"))
        assert (smap.height, smap.width) == (10, 10)

    def test_each_method_keeps_its_own_manifest(self, tmp_path):
        # Two detect runs into a synth output directory: each score map keeps
        # the record of its own config, and the scene's manifest survives.
        out = str(tmp_path / "scene")
        assert main(["synth", "--preset", "sparse-targets", "--out", out]) == 0
        inputs = ["--cube", os.path.join(out, "scene.hdr"),
                  "--signature", os.path.join(out, "scene.sig"), "--out", out]
        assert main(["detect", "--method", "std", *inputs,
                     "--owr", "9", "--iwr", "3", "--bg-atoms", "64"]) == 0
        assert main(["detect", "--method", "cem", *inputs]) == 0

        def manifest(name):
            return json.loads((tmp_path / "scene" / name).read_text())

        assert manifest("manifest.json")["command"] == "synth"
        std, cem = manifest("std.manifest.json"), manifest("cem.manifest.json")
        assert (std["method"], std["config"]["owr"], std["config"]["iwr"],
                std["config"]["n_bg_atoms"]) == ("std", 9, 3, 64)
        assert (cem["method"], cem["config"]["owr"], cem["config"]["n_bg_atoms"]) == ("cem", 19, 1000)
        assert std["outputs"] == {"scores": os.path.join(out, "std.csv")}

    def test_missing_cube_is_runtime_error(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="hsidet")
        rc = main(["detect", "--method", "cem", "--cube", str(tmp_path / "no.hdr"),
                   "--signature", str(tmp_path / "no.sig"), "--out", str(tmp_path / "o")])
        assert rc == 1
        # At DEBUG the traceback of the caught failure is logged too.
        assert any(r.levelno == logging.DEBUG and r.exc_info for r in caplog.records)


class TestEvalCommand:
    def test_eval_reports_auc_rows(self, tmp_path, capsys):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        cube = h.load_cube(paths["cube"])
        sig = h.load_signature(paths["signature"])
        smap = h.cem_detect(cube, sig)
        h.save_scoremap(smap, str(tmp_path / "cem"))
        out = str(tmp_path / "eval")
        rc = main(["eval", "--scores", f"cem={tmp_path / 'cem'}",
                   "--mask", paths["mask"], "--out", out])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        name, value = line.split(",")
        assert name == "cem"
        assert 0.0 <= float(value) <= 1.0
        assert (tmp_path / "eval" / "auc.csv").exists()
        assert (tmp_path / "eval" / "roc_cem.csv").exists()


    @pytest.mark.parametrize("name", ["a,b", "a/b", "", "\u00e9"])
    def test_empty_name_or_name_with_separator_is_runtime_error(self, tmp_path, capsys, name):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        write_cem_map(paths, str(tmp_path / "cem"))
        out = tmp_path / "eval"
        rc = main(["eval", "--scores", f"{name}={tmp_path / 'cem'}",
                   "--mask", paths["mask"], "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: score map name {name!r}")
        assert not out.exists()

    def test_repeated_name_is_runtime_error(self, tmp_path, capsys):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        for d in ("d1", "d2"):
            os.makedirs(tmp_path / d)
            write_cem_map(paths, str(tmp_path / d / "cem"))
        out = tmp_path / "eval"
        rc = main(["eval", "--scores", str(tmp_path / "d1" / "cem"),
                   str(tmp_path / "d2" / "cem"), "--mask", paths["mask"], "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'cem' is given more than once" in err
        assert not out.exists()

    def test_names_are_checked_before_any_file_is_read(self, tmp_path, capsys):
        rc = main(["eval", "--scores", f"a/b={tmp_path / 'none'}",
                   "--mask", str(tmp_path / "none.mask"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "score map name 'a/b'" in capsys.readouterr().err


class TestMismatchedInputs:
    """A signature, mask or score map that does not fit, or a mask that no
    ROC can score, fails right after loading, names the files and writes
    nothing."""

    def test_compare_mask_that_does_not_fit_the_cube(self, tmp_path, capsys):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        bad = str(tmp_path / "other.mask")
        labels = np.zeros((12, 10), dtype=np.uint8)
        labels[0, 0] = 1
        h.save_mask(h.GroundTruthMask(labels), bad)
        out = tmp_path / "cmp"
        rc = main(["compare", "--cube", paths["cube"], "--signature", paths["signature"],
                   "--mask", bad, "--methods", "cem,ace", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: (height, width) (12, 10) does not match (10, 10) of {paths['cube']}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "compare"])
    def test_signature_of_the_wrong_length(self, tmp_path, capsys, command):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        bad = str(tmp_path / "long.sig")
        h.save_signature(np.full(7, 0.5), bad)
        out = tmp_path / "o"
        args = (["detect", "--method", "cem"] if command == "detect"
                else ["compare", "--mask", paths["mask"], "--methods", "cem"])
        rc = main(args + ["--cube", paths["cube"], "--signature", bad, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: 7 bands do not match the 6 bands of {paths['cube']}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "eval"])
    @pytest.mark.parametrize("label", [0, 1])
    def test_mask_without_a_target_or_a_background_pixel(
            self, tmp_path, capsys, monkeypatch, command, label):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        bad = str(tmp_path / "flat.mask")
        h.save_mask(h.GroundTruthMask(np.full((10, 10), label)), bad)
        if command == "compare":
            args = ["compare", "--cube", paths["cube"], "--signature", paths["signature"]]
        else:
            write_cem_map(paths, str(tmp_path / "cem"))
            args = ["eval", "--scores", str(tmp_path / "cem")]
        calls = []
        count_calls(monkeypatch, calls, cli, "detect")
        count_calls(monkeypatch, calls, h.cube, "load_scoremap")
        out = tmp_path / "o"
        rc = main(args + ["--mask", bad, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: mask must contain at least one target and one background pixel\n")
        assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize("command", ["detect", "compare"])
    def test_singular_statistics_name_the_cube(self, tmp_path, capsys, command):
        # A constant cube has a zero covariance, so ACE cannot whiten it.
        cube = str(tmp_path / "flat.hdr")
        h.save_cube(h.HsiCube(np.full((5, 4, 4), 0.5)), cube)
        signature = str(tmp_path / "flat.sig")
        h.save_signature(np.linspace(0.1, 0.5, 5), signature)
        mask = str(tmp_path / "flat.mask")
        h.save_mask(h.GroundTruthMask(np.eye(4, dtype=np.uint8)), mask)
        out = tmp_path / "o"
        args = (["detect", "--method", "ace"] if command == "detect"
                else ["compare", "--mask", mask, "--methods", "ace"])
        rc = main(args + ["--cube", cube, "--signature", signature, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cube}: ACE covariance of (pixels, bands) (16, 5) is singular "
            "even after ridge loading\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "compare"])
    def test_pipeline_errors_name_the_cube(self, tmp_path, capsys, command):
        # A 3x3 all-zero corner leaves pixel (0, 0) a 5/3 window ring of
        # zero-norm pixels only, which W-SHR cannot code against.
        paths = write_tiny_scene(str(tmp_path / "scene"))
        cube = h.load_cube(paths["cube"])
        data = cube.data.copy()
        data[:, :3, :3] = 0.0
        h.save_cube(h.HsiCube(data), paths["cube"])
        out = tmp_path / "o"
        args = (["detect", "--method", "wshr"] if command == "detect"
                else ["compare", "--mask", paths["mask"], "--methods", "wshr"])
        rc = main(args + ["--cube", paths["cube"], "--signature", paths["signature"],
                          "--out", str(out), *TINY_FLAGS, "--iwr", "3"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {paths['cube']}: all local window pixels at (0, 0) have zero norm\n")
        assert not out.exists()

    def test_eval_map_that_the_mask_does_not_fit(self, tmp_path, capsys):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        small = str(tmp_path / "small")
        h.save_scoremap(h.ScoreMap(np.zeros((4, 5))), small)
        out = tmp_path / "eval"
        rc = main(["eval", "--scores", small, "--mask", paths["mask"], "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {small}: (height, width) (4, 5) does not match (10, 10) of {paths['mask']}\n")
        assert not out.exists()


class TestCompareCommand:
    def test_compare_on_files_runs_fast_methods(self, tmp_path, capsys):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        out = str(tmp_path / "cmp")
        rc = main(["compare", "--cube", paths["cube"], "--signature", paths["signature"],
                   "--mask", paths["mask"], "--methods", "cem,ace", "--out", out])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert {l.split(",")[0] for l in lines} == {"cem", "ace"}
        aucs = [float(l.split(",")[1]) for l in lines]
        assert aucs == sorted(aucs, reverse=True)
        for name in ("auc.csv", "roc_cem.csv", "roc_ace.csv", "roc.svg", "manifest.json"):
            assert (tmp_path / "cmp" / name).exists()

    def test_compare_repeat_is_byte_identical(self, tmp_path):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["compare", "--cube", paths["cube"], "--signature", paths["signature"],
                "--mask", paths["mask"], "--methods", "cem,ace"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        for name in ("auc.csv", "roc_cem.csv", "roc_ace.csv", "cem.csv", "ace.csv"):
            assert sha(os.path.join(a, name)) == sha(os.path.join(b, name))

    def test_unknown_method_is_runtime_error(self, tmp_path):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        rc = main(["compare", "--cube", paths["cube"], "--signature", paths["signature"],
                   "--mask", paths["mask"], "--methods", "cem,bogus",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_repeated_method_is_runtime_error(self, tmp_path, capsys):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        out = tmp_path / "o"
        rc = main(["compare", "--cube", paths["cube"], "--signature", paths["signature"],
                   "--mask", paths["mask"], "--methods", "cem,ace,cem",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'cem'" in err
        assert not (out / "auc.csv").exists()

    @pytest.mark.parametrize("methods", [",", ""])
    def test_empty_method_list_is_runtime_error(self, tmp_path, capsys, methods):
        out = tmp_path / "o"
        rc = main(["compare", "--preset", "sparse-targets", "--methods", methods,
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: no method given")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--sparsity", "0", "k"),
        ("--sparsity", "13", "k"),
        ("--bg-atoms", "0", "n_bg_atoms"),
        ("--target-atoms", "0", "n_target_atoms"),
        ("--train-targets", "0", "n_target_train"),
        ("--threads", "0", "threads"),
        ("--seed", "-1", "seed"),
        ("--lambda", "-1", "lam"),
        ("--lambda", "nan", "lam"),
        ("--lambda", "inf", "lam"),
        ("--bg-fraction", "1", "bg_fraction"),
    ])
    def test_bad_config_flag_fails_before_anything_is_written(
            self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "o"
        rc = main(["compare", "--preset", "sparse-targets", "--methods", "cem",
                   "--out", str(out), flag, value])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must")
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--bg-fraction", "0.0001"], "bg_fraction 0.0001 selects no background pixels out of 1600"),
        (["--train-targets", "1000"],
         "requested 1000 target + 1280 background samples from 1600 pixels"),
    ])
    def test_training_set_sizes_fail_before_the_scene_is_written(
            self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        rc = main(["compare", "--preset", "sparse-targets", "--methods", "wshr",
                   "--out", str(out), *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_compare_without_inputs_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_compare_with_preset_and_files_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--preset", "sparse-targets", "--cube", str(tmp_path / "no.hdr"),
                  "--signature", str(tmp_path / "no.sig"), "--mask", str(tmp_path / "no.mask"),
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


TINY_FLAGS = ["--owr", "5", "--iwr", "1", "--bg-atoms", "8", "--target-atoms", "3",
              "--train-targets", "4", "--bg-fraction", "0.6"]


class TestOneFitPerCube:
    def test_five_method_compare_runs_cem_once_and_odl_twice(self, tmp_path, monkeypatch):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        calls = []
        count_calls(monkeypatch, calls, predetect, "cem_detect")
        count_calls(monkeypatch, calls, dictlearn, "odl_learn")
        rc = main(["compare", "--cube", paths["cube"], "--signature", paths["signature"],
                   "--mask", paths["mask"], "--methods", "cem,ace,std,shr,wshr",
                   "--out", str(tmp_path / "cmp")] + TINY_FLAGS)
        assert rc == 0
        assert calls.count("cem_detect") == 1
        assert calls.count("odl_learn") == 2

    def test_std_detect_learns_one_dictionary(self, tmp_path, monkeypatch):
        paths = write_tiny_scene(str(tmp_path / "scene"))
        calls = []
        count_calls(monkeypatch, calls, dictlearn, "odl_learn")
        rc = main(["detect", "--method", "std", "--cube", paths["cube"],
                   "--signature", paths["signature"], "--out", str(tmp_path / "det")]
                  + TINY_FLAGS)
        assert rc == 0
        assert calls == ["odl_learn"]


def config_flags():
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    return [a for a in parser._actions if a.dest != "help"]


def setting(config, dest):
    window = {"owr": config.window.outer, "iwr": config.window.inner}
    return window[dest] if dest in window else getattr(config, dest)


COMMANDS = {
    "detect": ["detect", "--method", "cem", "--cube", "c", "--signature", "s", "--out", "o"],
    "compare": ["compare", "--preset", "large", "--out", "o"],
}


class TestConfigFlags:
    def test_every_dest_is_a_config_field_or_window_side(self):
        names = {f.name for f in dataclasses.fields(h.DetectorConfig)}
        for action in config_flags():
            assert action.dest in names - {"window"} | {"owr", "iwr"}, action.dest

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("action", config_flags(), ids=lambda a: a.option_strings[0])
    def test_non_default_value_reaches_its_field(self, command, action):
        base = h.DetectorConfig()
        value = 0.25 if action.type is float else setting(base, action.dest) + 2
        assert value != setting(base, action.dest)
        args = build_parser().parse_args(
            COMMANDS[command] + [action.option_strings[0], str(value)])
        assert setting(_config_from_args(args, base), action.dest) == value


class TestUsageErrors:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_method_choice_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--method", "bogus", "--cube", "c", "--signature", "s",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_bad_preset_choice_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--preset", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_log_level_exits_two_before_any_work(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HSI_LOG", "bogus")
        out = tmp_path / "scene"
        assert main(["synth", "--preset", "sparse-targets", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: HSI_LOG=")
        assert "'BOGUS'" in err[0] and "DEBUG, INFO, WARNING, ERROR, CRITICAL" in err[0]
        assert not out.exists()
