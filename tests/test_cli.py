"""Command-line interface: exit codes, outputs, manifests, determinism."""

import hashlib
import json
import logging
import os

import numpy as np
import pytest

import hsidet as h
from hsidet import dictlearn, predetect
from hsidet.cli import main


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
        assert (tmp_path / "det" / "cem.f32").exists()
        assert (tmp_path / "det" / "cem.csv").exists()
        manifest = json.loads((tmp_path / "det" / "manifest.json").read_text())
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
        manifest = json.loads((tmp_path / "det" / "manifest.json").read_text())
        assert manifest["config"]["owr"] == 5
        assert manifest["config"]["gamma"] == 0.25
        smap = h.load_scoremap(str(tmp_path / "det" / "wshr"))
        assert (smap.height, smap.width) == (10, 10)

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


    @pytest.mark.parametrize("name", ["a,b", "a/b", ""])
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
        for name in ("auc.csv", "roc_cem.csv", "roc_ace.csv", "cem.f32", "ace.f32"):
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
        count_calls(monkeypatch, calls, dictlearn, "cem_detect")
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
