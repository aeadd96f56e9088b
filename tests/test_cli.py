"""End-to-end command-line workflows on small synthetic datasets."""

import json
import os

import numpy as np
import pytest

from mmexpr.checkpoint import load_checkpoint, save_checkpoint
from mmexpr.cli import main
from mmexpr.data import (
    FeatureTrack,
    load_labels,
    load_manifest,
    load_video,
    read_feature_file,
    write_feature_file,
)
from mmexpr.ensemble import PredictionTrack, write_predictions
from mmexpr.errors import DataFormatError
from mmexpr.fileio import read_json, write_json
from mmexpr.training import ExperimentConfig


def run_cli(*argv):
    return main([str(a) for a in argv])


def small_config_doc(manifest="manifest.json", out="run", encoder="transformer",
                     epochs=40, lr=2e-3, seed=0):
    return {
        "manifest": manifest,
        "output_dir": out,
        "seed": seed,
        "features": {"visual": ["synthvis"], "audio": ["synthaud"]},
        "registry": {"synthvis": {"dim": 8, "modality": "visual"},
                     "synthaud": {"dim": 4, "modality": "audio"}},
        "model": {"encoder": encoder, "d_model": 64, "head": [32, 16],
                  "segment": {"l": 16, "p": 16}, "head_dropout": 0.1,
                  "transformer": {"layers": 1, "heads": 2, "dropout": 0.1,
                                  "ffn_dim": 128},
                  "lstm": {"hidden": 32, "layers": 1}},
        "training": {"lr": lr, "epochs": epochs, "alpha": 5.0,
                     "batch_segments": 1, "batch_videos": 1},
    }


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Separable sigma=0 dataset covering all 8 classes, plus a config file."""
    root = tmp_path_factory.mktemp("cli-data")
    assert run_cli("synth", "--out", root, "--videos", 8, "--frames", 64,
                   "--visual-dim", 8, "--audio-dim", 4, "--sigma", 0.0,
                   "--seed", 0) == 0
    write_json(str(root / "small_config.json"), small_config_doc())
    return root


@pytest.fixture(scope="module")
def trained_run(synth_dir):
    """One trained transformer run on the sigma=0 set (shared across tests)."""
    assert run_cli("train", "--config", synth_dir / "small_config.json") == 0
    return synth_dir / "run"


class TestSynth:
    def test_writes_dataset_and_config(self, synth_dir):
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        assert len(manifest.videos) == 8
        assert manifest.split_ids("train") == manifest.split_ids("val")
        assert (synth_dir / "config.json").exists()
        assert (synth_dir / "resolved_config.json").exists()

    def test_identical_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("synth", "--out", tmp_path / sub, "--videos", 2,
                           "--frames", 32, "--visual-dim", 4, "--audio-dim", 4,
                           "--seed", 5) == 0
        for rel in sorted(p.relative_to(tmp_path / "a")
                          for p in (tmp_path / "a").rglob("*") if p.is_file()):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestPrepare:
    def test_complete_dataset_reports_zero_imputed(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "prepared"
        code = run_cli("prepare", "--manifest", synth_dir / "manifest.json",
                       "--out", out, "--config", synth_dir / "small_config.json")
        assert code == 0
        assert "0 frames imputed" in capsys.readouterr().out
        report = read_json(str(out / "prepare_report.json"))
        assert report["total_frames_imputed"] == 0
        # prepared manifest is loadable and self-contained
        manifest = load_manifest(str(out / "manifest.json"))
        assert len(manifest.videos) == 8

    def test_missing_frame_names_video_frame_and_donor(self, synth_dir, tmp_path, capsys):
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        entry = manifest.videos[0]
        feat = read_feature_file(entry.features["synthvis"], video_id=entry.video_id)
        feat.present[4] = False  # frame 5 now absent; nearest donor is frame 4
        broken_dir = tmp_path / "broken"
        os.makedirs(broken_dir / "features", exist_ok=True)
        new_path = broken_dir / "features" / "v.synthvis.mmft"
        write_feature_file(feat, str(new_path))
        doc = read_json(str(synth_dir / "manifest.json"))
        doc["videos"][0]["features"]["synthvis"] = os.path.relpath(new_path, broken_dir)
        for video in doc["videos"]:
            for k, p in video["features"].items():
                if not os.path.isabs(p) and not p.startswith(str(tmp_path)):
                    video["features"][k] = os.path.join(str(synth_dir), p)
            if not os.path.isabs(video["label_file"]):
                video["label_file"] = os.path.join(str(synth_dir), video["label_file"])
        doc["videos"][0]["features"]["synthvis"] = str(new_path)
        write_json(str(broken_dir / "manifest.json"), doc)

        out = tmp_path / "prepared"
        code = run_cli("prepare", "--manifest", broken_dir / "manifest.json",
                       "--out", out, "--config", synth_dir / "small_config.json")
        assert code == 0
        assert "1 frames imputed" in capsys.readouterr().out
        report = read_json(str(out / "prepare_report.json"))
        vid = doc["videos"][0]["id"]
        assert report["videos"][vid]["repairs"]["synthvis"] == [{"frame": 5, "donor": 4}]
        # the repaired file carries the donor's row
        repaired = read_feature_file(str(out / "features" / f"{vid}.synthvis.mmft"))
        np.testing.assert_array_equal(repaired.matrix[4], repaired.matrix[3])

    def test_dim_mismatch_exits_2_with_both_dims(self, synth_dir, tmp_path, capsys):
        cfg = small_config_doc()
        cfg["registry"]["synthvis"]["dim"] = 9
        write_json(str(tmp_path / "bad_config.json"), cfg)
        code = run_cli("prepare", "--manifest", synth_dir / "manifest.json",
                       "--out", tmp_path / "x", "--config", tmp_path / "bad_config.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "dim 8" in err and "expects 9" in err


def write_one_video_dataset(root, mutate):
    """A 4-frame video "v" with synthvis (dim 8) and synthaud (dim 4) tracks.

    ``mutate`` edits the label rows and tracks before they are written.
    Returns the manifest and config paths.
    """
    rng = np.random.default_rng(0)
    files = {
        "labels": [(f, f - 1) for f in range(1, 5)],
        "synthvis": FeatureTrack("v", "synthvis", rng.normal(size=(4, 8)).astype(np.float32),
                                 np.ones(4, bool)),
        "synthaud": FeatureTrack("v", "synthaud", rng.normal(size=(4, 4)).astype(np.float32),
                                 np.ones(4, bool)),
    }
    mutate(files)
    (root / "v.csv").write_text(
        "frame,label\n" + "".join(f"{f},{l}\n" for f, l in files["labels"]))
    for name in ("synthvis", "synthaud"):
        write_feature_file(files[name], str(root / f"v.{name}.mmft"))
    write_json(str(root / "manifest.json"), {
        "videos": [{"id": "v", "n_frames": 4, "label_file": "v.csv",
                    "features": {n: f"v.{n}.mmft" for n in ("synthvis", "synthaud")}}],
        "splits": {"train": ["v"], "val": ["v"]}})
    write_json(str(root / "config.json"), small_config_doc())
    return root / "manifest.json", root / "config.json"


def _resized_track(name, frames, dim):
    return FeatureTrack("v", name, np.zeros((frames, dim), np.float32), np.ones(frames, bool))


def _nan_in_present_row(files):
    files["synthvis"].matrix[1, 2] = np.nan


def _rename_set(files):
    files["synthvis"].feature_set = "other"


MALFORMED = [
    pytest.param(_rename_set, "holds feature set 'other', expected 'synthvis'",
                 id="set-name-in-file"),
    pytest.param(lambda f: f.update(synthvis=_resized_track("synthvis", 5, 8)),
                 "covers 5 frames, manifest says 4", id="feature-frame-count"),
    pytest.param(lambda f: f.update(synthvis=_resized_track("synthvis", 4, 9)),
                 "has dim 9, registry expects 8", id="registry-dim"),
    pytest.param(_nan_in_present_row, "non-finite value in present frame 2",
                 id="nan-in-present-row"),
    pytest.param(lambda f: f.update(labels=[(1, 0), (2, 1), (3, 2)]),
                 "covers 3 frames, manifest says 4", id="labels-short"),
    pytest.param(lambda f: f.update(labels=[(1, 0), (20_000_000, 1)]),
                 "line 3: frame index 20000000 past the manifest's 4 frames",
                 id="label-frame-past-n-frames"),
]


class TestSharedChecks:
    """load_video and prepare reject each malformed input with one message."""

    @pytest.mark.parametrize("mutate, message", MALFORMED)
    def test_load_video_and_prepare_agree(self, tmp_path, capsys, mutate, message):
        manifest_path, config_path = write_one_video_dataset(tmp_path, mutate)
        config = ExperimentConfig.from_json(read_json(str(config_path)))
        entry = load_manifest(str(manifest_path)).video("v")
        with pytest.raises(DataFormatError, match=message) as caught:
            load_video(entry, config.registry(), config.visual_features, config.audio_features)
        assert run_cli("prepare", "--manifest", manifest_path, "--out", tmp_path / "out",
                       "--config", config_path) == 2
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    def test_unmutated_dataset_loads_and_prepares(self, tmp_path):
        manifest_path, config_path = write_one_video_dataset(tmp_path, lambda files: None)
        config = ExperimentConfig.from_json(read_json(str(config_path)))
        entry = load_manifest(str(manifest_path)).video("v")
        video = load_video(entry, config.registry(), config.visual_features,
                           config.audio_features)
        assert video.features.shape == (4, 12)
        assert run_cli("prepare", "--manifest", manifest_path, "--out", tmp_path / "out",
                       "--config", config_path) == 0


class TestTrainPredictEvaluate:
    def test_train_writes_artifacts(self, trained_run):
        assert (trained_run / "best.ckpt").exists()
        assert (trained_run / "resolved_config.json").exists()
        lines = (trained_run / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 40
        record = json.loads(lines[-1])
        assert record["val_macro_f1"] == 1.0

    def test_separable_floor_reaches_perfect_f1(self, synth_dir, trained_run, tmp_path, capsys):
        preds = tmp_path / "preds"
        assert run_cli("predict", "--checkpoint", trained_run / "best.ckpt",
                       "--manifest", synth_dir / "manifest.json",
                       "--split", "val", "--out", preds) == 0
        report_path = tmp_path / "report.json"
        assert run_cli("evaluate", "--predictions", preds,
                       "--manifest", synth_dir / "manifest.json",
                       "--split", "val", "--out", report_path) == 0
        report = read_json(str(report_path))
        assert report["macro_f1"] == 1.0
        assert report["per_class_f1"] == [1.0] * 8
        assert "macro_f1 1.00000" in capsys.readouterr().out

    def test_predict_is_idempotent(self, synth_dir, trained_run, tmp_path):
        outs = []
        for sub in ("p1", "p2"):
            out = tmp_path / sub
            assert run_cli("predict", "--checkpoint", trained_run / "best.ckpt",
                           "--manifest", synth_dir / "manifest.json",
                           "--split", "val", "--out", out) == 0
            outs.append(out)
        for name in sorted(os.listdir(outs[0])):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_evaluate_perfect_predictions(self, synth_dir, tmp_path):
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        preds = tmp_path / "oracle_preds"
        os.makedirs(preds, exist_ok=True)
        for entry in manifest.videos:
            labels = load_labels(entry.label_file, video_id=entry.video_id).labels
            probs = np.full((len(labels), 8), 0.02 / 7)
            probs[np.arange(len(labels)), labels] = 0.98
            write_predictions(PredictionTrack(entry.video_id, labels, probs),
                              str(preds / f"{entry.video_id}.csv"))
        report_path = tmp_path / "report.json"
        assert run_cli("evaluate", "--predictions", preds,
                       "--manifest", synth_dir / "manifest.json",
                       "--out", report_path) == 0
        assert read_json(str(report_path))["macro_f1"] == 1.0


class TestEnsembleCommand:
    def make_member(self, base_labels_by_vid, out_dir, wrong_slice, rng):
        """Member predictions: correct except on its own slice of frames."""
        os.makedirs(out_dir, exist_ok=True)
        for vid, labels in base_labels_by_vid.items():
            noisy = labels.copy()
            idx = np.arange(len(labels))[wrong_slice]
            noisy[idx] = (labels[idx] + 1 + rng.integers(0, 6, len(idx))) % 8
            probs = np.full((len(labels), 8), 0.3 / 7)
            probs[np.arange(len(labels)), noisy] = 0.7
            write_predictions(PredictionTrack(vid, noisy, probs),
                              str(out_dir / f"{vid}.csv"))

    def test_three_member_vote_beats_every_member(self, synth_dir, tmp_path, capsys):
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        labels = {e.video_id: load_labels(e.label_file).labels for e in manifest.videos}
        rng = np.random.default_rng(9)
        # members err on pairwise-disjoint frame slices, so the majority is
        # always right and the fused score must dominate every member's
        slices = [slice(0, None, 5), slice(1, None, 5), slice(2, None, 5)]
        member_dirs = []
        for i, sl in enumerate(slices):
            d = tmp_path / f"member{i}"
            self.make_member(labels, d, sl, rng)
            member_dirs.append(d)
        spec_path = tmp_path / "ensemble.json"
        write_json(str(spec_path), {"members": [str(d) for d in member_dirs],
                                    "strategy": "majority_vote",
                                    "tie_break": "mean_probability"})
        fused_dir = tmp_path / "fused"
        assert run_cli("ensemble", "--spec", spec_path, "--out", fused_dir,
                       "--manifest", synth_dir / "manifest.json") == 0
        fused_score = read_json(str(fused_dir / "report.json"))["macro_f1"]
        assert fused_score == 1.0
        member_scores = []
        for d in member_dirs:
            report_path = tmp_path / f"{d.name}.json"
            assert run_cli("evaluate", "--predictions", d,
                           "--manifest", synth_dir / "manifest.json",
                           "--out", report_path) == 0
            member_scores.append(read_json(str(report_path))["macro_f1"])
        assert all(fused_score >= s for s in member_scores)
        assert all(s < 1.0 for s in member_scores)

    def test_spec_needs_two_members(self, tmp_path, synth_dir, capsys):
        spec_path = tmp_path / "solo.json"
        write_json(str(spec_path), {"members": ["only"]})
        assert run_cli("ensemble", "--spec", spec_path, "--out", tmp_path / "f") == 2


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run_cli("train") == 1  # --config is required
        assert run_cli("no-such-command") == 1

    def test_validation_error_is_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run_cli("evaluate", "--predictions", tmp_path,
                       "--manifest", missing, "--out", tmp_path / "r.json") == 2

    def test_nan_probability_exits_2(self, synth_dir, tmp_path, capsys):
        manifest = load_manifest(str(synth_dir / "manifest.json"))
        member_dirs = [tmp_path / "a", tmp_path / "b"]
        for d in member_dirs:
            os.makedirs(d)
            for entry in manifest.videos:
                labels = load_labels(entry.label_file).labels
                probs = np.full((len(labels), 8), 1 / 8)
                write_predictions(PredictionTrack(entry.video_id, labels, probs),
                                  str(d / f"{entry.video_id}.csv"))
        bad = member_dirs[1] / f"{manifest.videos[0].video_id}.csv"
        lines = bad.read_text().splitlines()
        lines[1] = "1,0,nan,0,0,0,0,0,0,0"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("evaluate", "--predictions", member_dirs[1],
                       "--manifest", synth_dir / "manifest.json",
                       "--out", tmp_path / "r.json") == 2
        assert "non-finite probability" in capsys.readouterr().err
        spec_path = tmp_path / "ensemble.json"
        write_json(str(spec_path), {"members": [str(d) for d in member_dirs]})
        assert run_cli("ensemble", "--spec", spec_path, "--out", tmp_path / "fused") == 2
        assert "non-finite probability" in capsys.readouterr().err

    def test_numeric_failure_is_3(self, synth_dir, tmp_path, capsys):
        doc = small_config_doc(manifest=str(synth_dir / "manifest.json"),
                               out=str(tmp_path / "run"), epochs=2, lr=1e25)
        cfg_path = tmp_path / "explode.json"
        write_json(str(cfg_path), doc)
        assert run_cli("train", "--config", cfg_path) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_adam_update_is_3(self, synth_dir, tmp_path, capsys):
        doc = small_config_doc(manifest=str(synth_dir / "manifest.json"),
                               out=str(tmp_path / "run"), epochs=1, lr=1e38)
        write_json(str(tmp_path / "overflow.json"), doc)
        assert run_cli("train", "--config", tmp_path / "overflow.json") == 3
        assert "epoch 1 batch 0: adam_step" in capsys.readouterr().err


def _set(path, value):
    """A config edit that sets the dotted ``path`` of the document to ``value``."""
    def edit(doc):
        *sections, key = path.split(".")
        for section in sections:
            doc = doc[section]
        doc[key] = value
    return edit


BAD_CONFIGS = [
    pytest.param(_set("model.transformer.heads", 0), "model.transformer.heads", id="heads-0"),
    pytest.param(_set("model.lstm.hidden", 0), "model.lstm.hidden", id="hidden-0"),
    pytest.param(_set("model", [1]), "model", id="model-not-object"),
    pytest.param(_set("model.transformer.positional_encoding", "false"),
                 "model.transformer.positional_encoding", id="positional-encoding-string"),
    pytest.param(_set("model.d_model", 64.0), "model.d_model", id="float-for-int"),
    pytest.param(_set("model.lstm.layers", True), "model.lstm.layers", id="bool-for-int"),
    pytest.param(_set("model.segment", 16), "model.segment", id="segment-not-object"),
    pytest.param(_set("model.head", [32, 0]), "model.head[1]", id="head-size-0"),
    pytest.param(_set("model.head_dropout", 1.0), "model.head_dropout", id="dropout-1"),
    pytest.param(_set("model.transformer.dropout", -0.1), "model.transformer.dropout",
                 id="dropout-negative"),
    pytest.param(_set("model.classes", 3), "model.classes", id="classes-3"),
    pytest.param(_set("training.lr", -0.001), "training.lr", id="lr-negative"),
    pytest.param(_set("training.lr", 0), "training.lr", id="lr-0"),
    pytest.param(_set("training.lr", float("nan")), "training.lr", id="lr-nan"),
    pytest.param(_set("training.alpha", float("nan")), "training.alpha", id="alpha-nan"),
]


class TestConfigChecks:
    """Malformed configs exit 2 naming the key, before any output is written."""

    @pytest.mark.parametrize("edit, key", BAD_CONFIGS)
    def test_train_rejects_malformed_config(self, synth_dir, tmp_path, capsys, edit, key):
        doc = small_config_doc(manifest=str(synth_dir / "manifest.json"),
                               out=str(tmp_path / "run"), epochs=1)
        edit(doc)
        write_json(str(tmp_path / "bad.json"), doc)
        assert run_cli("train", "--config", tmp_path / "bad.json") == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run" / "resolved_config.json").exists()

    @pytest.mark.parametrize("entry", [5, {"modality": "visual"},
                                       {"dim": 0, "modality": "visual"}],
                             ids=["not-object", "no-dim", "dim-0"])
    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_registry_entry_rejected_naming_the_set(self, synth_dir, tmp_path, capsys,
                                                    command, entry):
        doc = small_config_doc(manifest=str(synth_dir / "manifest.json"),
                               out=str(tmp_path / "run"), epochs=1)
        doc["registry"]["synthvis"] = entry
        write_json(str(tmp_path / "bad.json"), doc)
        args = {"prepare": ["--manifest", synth_dir / "manifest.json", "--out", tmp_path / "p"],
                "train": []}[command]
        assert run_cli(command, "--config", tmp_path / "bad.json", *args) == 2
        assert "registry entry 'synthvis'" in capsys.readouterr().err

    def _predict(self, synth_dir, trained_run, tmp_path, arrays):
        save_checkpoint(arrays, str(tmp_path / "edited.ckpt"))
        return run_cli("predict", "--checkpoint", tmp_path / "edited.ckpt",
                       "--config", trained_run / "resolved_config.json",
                       "--manifest", synth_dir / "manifest.json",
                       "--split", "val", "--out", tmp_path / "preds")

    def test_predict_rejects_fusion_weight_of_other_feature_dims(self, synth_dir, trained_run,
                                                                 tmp_path, capsys):
        arrays = load_checkpoint(str(trained_run / "best.ckpt"))
        arrays["fusion.weight"] = np.zeros((13, 64), np.float32)  # the config's sets give 12
        assert self._predict(synth_dir, trained_run, tmp_path, arrays) == 2
        assert "input dim 12 != layer dim 13" in capsys.readouterr().err

    def test_prepare_rejects_config_that_is_not_an_object(self, synth_dir, tmp_path, capsys):
        (tmp_path / "list.json").write_text("[1]\n")
        assert run_cli("prepare", "--manifest", synth_dir / "manifest.json",
                       "--out", tmp_path / "p", "--config", tmp_path / "list.json") == 2
        assert "config: expected an object" in capsys.readouterr().err

    def test_predict_rejects_nan_parameter_naming_it(self, synth_dir, trained_run, tmp_path,
                                                     capsys):
        arrays = load_checkpoint(str(trained_run / "best.ckpt"))
        arrays["head.out.bias"][2] = np.nan
        assert self._predict(synth_dir, trained_run, tmp_path, arrays) == 2
        assert "'head.out.bias'" in capsys.readouterr().err
        assert not (tmp_path / "preds").exists()

    def test_predict_rejects_checkpoint_without_fusion_weight(self, synth_dir, trained_run,
                                                              tmp_path, capsys):
        arrays = load_checkpoint(str(trained_run / "best.ckpt"))
        del arrays["fusion.weight"]
        assert self._predict(synth_dir, trained_run, tmp_path, arrays) == 2
        assert "fusion.weight" in capsys.readouterr().err
        assert not (tmp_path / "preds").exists()
